//! Traced population and policy wrappers for the real engine.
//!
//! [`TracedSpec`] wraps a population; every UE's trajectory and policy
//! construction is timed, and every policy it hands out is a
//! [`TracedPolicy`] that times the engine's `decide` and
//! `notify_handover` callbacks. `as_fuzzy` delegates to the wrapped
//! controller, so the engine still batches the fuzzy FLC stage exactly
//! as it does unwrapped (the pre-gate, the batched evaluation and the
//! PRTLC run on the inner controller, outside these spans).

use cellgeom::Axial;
use handover_core::{
    Decision, FuzzyHandoverController, HandoverPolicy, LoadField, MeasurementReport,
    PolicyCheckpoint,
};
use handover_sim::fleet::UeSpec;
use mobility::Trajectory;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One callback's summed wall time and call count. The counters are
/// statistics only, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct CallbackSpan {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl CallbackSpan {
    fn record(&self, since: Instant) {
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Summed wall time, nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean wall time per call, nanoseconds (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.ns() as f64 / n as f64,
        }
    }
}

/// Spans of every engine callback.
#[derive(Debug, Default)]
pub struct CallbackSpans {
    /// `UeSpec::trajectory`.
    pub trajectory: CallbackSpan,
    /// `UeSpec::policy`.
    pub policy: CallbackSpan,
    /// `HandoverPolicy::decide`.
    pub decide: CallbackSpan,
    /// `HandoverPolicy::notify_handover`.
    pub notify: CallbackSpan,
}

/// A population whose callbacks are timed.
pub struct TracedSpec<'a> {
    inner: &'a dyn UeSpec,
    spans: Arc<CallbackSpans>,
}

impl<'a> TracedSpec<'a> {
    /// Wrap `inner`, recording into fresh spans.
    pub fn new(inner: &'a dyn UeSpec) -> Self {
        TracedSpec {
            inner,
            spans: Arc::new(CallbackSpans::default()),
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &CallbackSpans {
        &self.spans
    }
}

impl UeSpec for TracedSpec<'_> {
    fn trajectory(&self, ue_id: u64) -> Trajectory {
        let t = Instant::now();
        let trajectory = self.inner.trajectory(ue_id);
        self.spans.trajectory.record(t);
        trajectory
    }

    fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        let t = Instant::now();
        let inner = self.inner.policy(ue_id);
        self.spans.policy.record(t);
        Box::new(TracedPolicy {
            inner,
            spans: Arc::clone(&self.spans),
        })
    }
}

/// A policy whose engine callbacks are timed.
pub struct TracedPolicy {
    inner: Box<dyn HandoverPolicy + Send>,
    spans: Arc<CallbackSpans>,
}

impl HandoverPolicy for TracedPolicy {
    fn decide(&mut self, report: &MeasurementReport) -> Decision {
        let t = Instant::now();
        let decision = self.inner.decide(report);
        self.spans.decide.record(t);
        decision
    }

    fn notify_handover(&mut self, new_serving: Axial) {
        let t = Instant::now();
        self.inner.notify_handover(new_serving);
        self.spans.notify.record(t);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn as_fuzzy(&mut self) -> Option<&mut FuzzyHandoverController> {
        self.inner.as_fuzzy()
    }

    fn set_load_field(&mut self, field: &Arc<LoadField>) {
        self.inner.set_load_field(field);
    }

    fn policy_checkpoint(&self) -> PolicyCheckpoint {
        self.inner.policy_checkpoint()
    }

    fn restore_policy_checkpoint(&mut self, state: &PolicyCheckpoint) {
        self.inner.restore_policy_checkpoint(state);
    }
}
