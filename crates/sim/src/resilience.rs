//! The fault-tolerance plane: typed configuration errors, a
//! deterministic fault-injection harness, and a supervised runner that
//! recovers from worker crashes, stalls and corrupted snapshots.
//!
//! The module turns the fleet engine from a batch job that panics on
//! the first fault into a component a long-running service can lean on:
//!
//! * [`ConfigError`] is the typed form of every configuration
//!   validation in the workspace — NaN sigmas, zero capacities and
//!   inverted windows surface as values instead of panics.
//!   [`validate_planes`] is the one check of a simulation plus its
//!   traffic and dynamics planes that every run entry shares.
//! * [`FaultPlan`] / [`FaultInjector`] script faults — a worker panic
//!   at a lockstep step, a forced allocation failure in the arena grow
//!   path, a stalled worker, a flipped checkpoint byte — that fire
//!   **deterministically**: each fault triggers exactly once, at a
//!   step that does not depend on worker count, chunk size or thread
//!   scheduling, so chaos runs are exactly reproducible.
//! * [`FleetSimulation::run_supervised`] runs a fleet under a
//!   [`RetryPolicy`]: periodic checkpointing on a step cadence,
//!   panic/stall detection, restore-from-last-good-snapshot with
//!   bounded retries, deterministic *virtual-time* backoff, and
//!   graceful degradation (halving the worker count after repeated
//!   stalls — safe because fleet results are worker-count-invariant).
//!
//! The headline contract, pinned by `tests/resilience_props.rs`: for
//! any scripted [`FaultPlan`] of recoverable faults, the supervised
//! result is **bit-identical** to the fault-free
//! [`FleetSimulation::try_run_ids`] — every `f64` included. Recovery never
//! changes the answer, because every segment is replayed from a
//! checksummed snapshot whose resume path is itself bit-identical
//! (the PR 6 contract), and corrupted snapshots are always *detected*
//! (typed [`CheckpointError`](crate::checkpoint::CheckpointError)),
//! never silently resumed.

use crate::checkpoint::FleetCheckpoint;
use crate::dynamics::DynamicsConfig;
use crate::engine::SimConfig;
use crate::fleet::{FleetError, FleetResult, FleetSimulation, UeSpec};
use crate::traffic::TrafficConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Domain-separation constant for the fault-injection stream
/// (`b"faults!!"`), XORed into the base seed like
/// [`TRAFFIC_STREAM`](crate::traffic::TRAFFIC_STREAM) — chaos schedules
/// never correlate with measurement, trajectory, churn or service
/// draws.
pub const FAULT_STREAM: u64 = 0x6661_756C_7473_2121;

/// A typed configuration defect. Every `validated()` method in the
/// workspace returns one of these instead of panicking, and every run
/// entry reports it as [`FleetError::InvalidConfig`]. The `Display`
/// messages keep the phrases of the asserts they replaced.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field that must be finite is NaN or infinite.
    NotFinite {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field that must be strictly positive (and finite) is not.
    NonPositive {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field that must be non-negative (and finite) is not.
    Negative {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field outside its closed range.
    OutOfRange {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// An integer field below its minimum.
    TooSmall {
        /// Human-readable field name (phrased to include the legacy
        /// assert message, e.g. "churn horizon").
        field: &'static str,
        /// Required minimum.
        minimum: u64,
        /// The offending value.
        got: u64,
    },
    /// A `[from, until)` window with `from >= until`.
    InvertedWindow {
        /// Human-readable window name.
        field: &'static str,
        /// Window start.
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Guard channels ≥ total channels: no room for new calls.
    GuardChannelsExhaustCapacity {
        /// Reserved guard channels.
        guard: u32,
        /// Total channels per cell.
        channels: u32,
    },
    /// A referenced cell is not in the layout.
    UnknownCell {
        /// What referenced the cell (e.g. "outage").
        what: &'static str,
        /// The missing cell.
        cell: cellgeom::Axial,
    },
    /// A traffic plane on [`FleetSimulation::run_streamed`], whose
    /// serving-cell traces would materialize per-UE state.
    StreamedTraffic,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotFinite { field, value } => {
                write!(f, "{field} must be finite (got {value})")
            }
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be positive and finite (got {value})")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative and finite (got {value})")
            }
            ConfigError::OutOfRange { field, value, lo, hi } => {
                write!(f, "{field} must lie in [{lo}, {hi}] (got {value})")
            }
            ConfigError::TooSmall { field, minimum, got } => {
                write!(f, "{field} must be at least {minimum} (got {got})")
            }
            ConfigError::InvertedWindow { field, from, until } => {
                write!(f, "{field} window must be non-empty (from {from}, until {until})")
            }
            ConfigError::GuardChannelsExhaustCapacity { guard, channels } => {
                write!(
                    f,
                    "guard channels must leave room for new calls \
                     ({guard} guard of {channels} total)"
                )
            }
            ConfigError::UnknownCell { what, cell } => {
                write!(f, "{what} cell {cell:?} is not in the layout")
            }
            ConfigError::StreamedTraffic => write!(
                f,
                "the streaming path has no traffic plane (serving-cell traces would \
                 materialize per-UE state); use try_run_ids for traffic studies"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validate a simulation and the planes attached to it: the
/// [`SimConfig`] (NaN/negative sigmas, non-positive spacing), the
/// traffic plane (zero capacities, exhausted guard channels), the
/// dynamics plane (inverted windows, out-of-range shares, invalid tides
/// even when flat) and every outage cell's membership in the layout.
/// [`FleetSimulation`]'s run entries, [`ScenarioMatrix::try_run`] and
/// the twin service's session configs all run this one check before any
/// work starts.
///
/// [`ScenarioMatrix::try_run`]: crate::matrix::ScenarioMatrix::try_run
pub fn validate_planes(
    sim: &SimConfig,
    traffic: Option<&TrafficConfig>,
    dynamics: Option<&DynamicsConfig>,
) -> Result<(), ConfigError> {
    sim.validated()?;
    if let Some(traffic) = traffic {
        traffic.validated()?;
    }
    if let Some(dynamics) = dynamics {
        dynamics.validated()?;
        dynamics.outage_indices(sim.layout.cells())?;
    }
    Ok(())
}

/// Shorthand validators shared by the `validated()` implementations.
pub(crate) fn require_finite(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NotFinite { field, value })
    }
}

/// `value` must be finite and strictly positive.
pub(crate) fn require_positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositive { field, value })
    }
}

/// `value` must be finite and non-negative.
pub(crate) fn require_non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::Negative { field, value })
    }
}

/// `value` must lie in the closed range `[lo, hi]` (NaN never does).
pub(crate) fn require_in_range(
    field: &'static str,
    value: f64,
    lo: f64,
    hi: f64,
) -> Result<(), ConfigError> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange { field, value, lo, hi })
    }
}

/// One scripted fault. Faults are *one-shot*: each fires exactly once
/// per [`FaultInjector`], at a deterministic point of the run, and the
/// retried segment then completes cleanly — which is what makes every
/// fault here *recoverable* and the supervised result bit-identical to
/// the clean run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Panic the first worker that steps lockstep step `at_step`
    /// (whole-worker-shard loss; the pass surfaces
    /// [`FleetError::WorkerPanic`]).
    WorkerPanic {
        /// Lockstep step at which the panic fires.
        at_step: u64,
    },
    /// Panic inside the dense measurement arena's grow path at
    /// `at_step`, simulating an allocation failure while resizing the
    /// `cells × chunk` RSS matrix. Inert under the pruned candidate
    /// modes (they never grow that matrix).
    AllocFailure {
        /// Lockstep step at which the forced allocation failure fires.
        at_step: u64,
    },
    /// Charge `delay_steps` of *virtual* wall-clock delay to the worker
    /// that steps `at_step` first. The supervisor's watchdog compares
    /// the accumulated delay of each segment against
    /// [`RetryPolicy::stall_deadline_steps`] and treats an over-deadline
    /// segment as failed ([`FleetError::WorkerStalled`]).
    StallWorker {
        /// Lockstep step at which the stall fires.
        at_step: u64,
        /// Virtual delay charged, in steps.
        delay_steps: u64,
    },
    /// Flip one byte of the `at_snapshot`-th sealed checkpoint (0-based,
    /// counting every snapshot the supervisor seals). The checksummed
    /// header guarantees the corruption is *detected* — the snapshot is
    /// quarantined, never resumed.
    CorruptCheckpoint {
        /// Index of the sealed snapshot to corrupt.
        at_snapshot: u64,
        /// Byte offset to flip (taken modulo the sealed length).
        byte_offset: u64,
    },
}

/// A deterministic fault schedule: either scripted explicitly or drawn
/// from the domain-separated [`FAULT_STREAM`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scripted faults, in script order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An explicit script.
    pub fn scripted(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// An empty plan (no faults — the supervisor runs clean).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Draw `n` recoverable faults (panics, stalls, allocation
    /// failures) over the first `horizon_steps` lockstep steps from the
    /// [`FAULT_STREAM`] — the same `seed` always yields the same chaos
    /// schedule, so a failing chaos run reproduces exactly.
    pub fn chaos(seed: u64, horizon_steps: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ FAULT_STREAM);
        let horizon = horizon_steps.max(1);
        let faults = (0..n)
            .map(|_| {
                let at_step = rng.next_u64() % horizon;
                match rng.next_u64() % 3 {
                    0 => Fault::WorkerPanic { at_step },
                    1 => Fault::AllocFailure { at_step },
                    _ => Fault::StallWorker {
                        at_step,
                        delay_steps: 1 + rng.next_u64() % horizon,
                    },
                }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Arm the plan: build the runtime injector the fleet engine hooks
    /// consult. One injector serves **one** run — the one-shot fired
    /// flags are not reset between runs.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

/// Armed runtime form of a [`FaultPlan`]: lock-free one-shot triggers
/// the fleet engine's hot loop consults (two relaxed atomic loads per
/// scheduled fault per step — zero cost when no injector is attached).
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// `(at_step, fired)` worker-panic triggers.
    panics: Vec<(u64, AtomicBool)>,
    /// `(at_step, fired)` arena-grow allocation-failure triggers.
    alloc_failures: Vec<(u64, AtomicBool)>,
    /// `(at_step, delay_steps, fired)` stall triggers.
    stalls: Vec<(u64, u64, AtomicBool)>,
    /// `(at_snapshot, byte_offset, fired)` snapshot-corruption triggers.
    corruptions: Vec<(u64, u64, AtomicBool)>,
    /// Virtual delay accumulated since the last watchdog read.
    stall_steps: AtomicU64,
}

impl FaultInjector {
    fn new(plan: &FaultPlan) -> Self {
        let mut inj = FaultInjector::default();
        for fault in &plan.faults {
            match *fault {
                Fault::WorkerPanic { at_step } => {
                    inj.panics.push((at_step, AtomicBool::new(false)));
                }
                Fault::AllocFailure { at_step } => {
                    inj.alloc_failures.push((at_step, AtomicBool::new(false)));
                }
                Fault::StallWorker { at_step, delay_steps } => {
                    inj.stalls.push((at_step, delay_steps, AtomicBool::new(false)));
                }
                Fault::CorruptCheckpoint { at_snapshot, byte_offset } => {
                    inj.corruptions.push((at_snapshot, byte_offset, AtomicBool::new(false)));
                }
            }
        }
        inj
    }

    /// Step hook, called once per (worker, chunk, lockstep step). Fires
    /// pending stalls (accumulating virtual delay) and worker panics
    /// scheduled at `step`; the compare-exchange makes each fault
    /// one-shot even when several workers reach the step concurrently.
    pub(crate) fn check_step(&self, step: u64) {
        for (at, delay, fired) in &self.stalls {
            if *at == step
                && fired.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                self.stall_steps.fetch_add(*delay, Ordering::Relaxed);
            }
        }
        for (at, fired) in &self.panics {
            if *at == step
                && fired.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                panic!("injected fault: worker panic at step {step}");
            }
        }
    }

    /// Arena-grow hook, called from the dense measurement path just
    /// before the `cells × chunk` RSS matrix is (re)sized.
    pub(crate) fn check_arena_grow(&self, step: u64) {
        for (at, fired) in &self.alloc_failures {
            if *at == step
                && fired.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                panic!("injected fault: arena allocation failure at step {step}");
            }
        }
    }

    /// Apply any scheduled corruption to the `snapshot_index`-th sealed
    /// snapshot bytes. Returns `true` if a byte was flipped.
    pub fn corrupt_snapshot(&self, snapshot_index: u64, bytes: &mut [u8]) -> bool {
        let mut hit = false;
        for (at, offset, fired) in &self.corruptions {
            if *at == snapshot_index
                && !bytes.is_empty()
                && fired.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                let idx = (*offset % bytes.len() as u64) as usize;
                bytes[idx] ^= 0xFF;
                hit = true;
            }
        }
        hit
    }

    /// Read and reset the virtual stall delay accumulated since the
    /// last call (the supervisor's per-segment watchdog read).
    pub fn take_stall_steps(&self) -> u64 {
        self.stall_steps.swap(0, Ordering::Relaxed)
    }

    /// Whether every scripted fault has fired.
    pub fn exhausted(&self) -> bool {
        self.panics.iter().all(|(_, f)| f.load(Ordering::Relaxed))
            && self.alloc_failures.iter().all(|(_, f)| f.load(Ordering::Relaxed))
            && self.stalls.iter().all(|(_, _, f)| f.load(Ordering::Relaxed))
            && self.corruptions.iter().all(|(_, _, f)| f.load(Ordering::Relaxed))
    }
}

/// Supervision parameters for [`FleetSimulation::run_supervised`]. All
/// time quantities are *virtual* (lockstep steps), so supervised runs
/// are deterministic — no wall clocks anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Snapshot every this-many lockstep steps.
    pub checkpoint_cadence: u64,
    /// Give up (with [`FleetError::RetriesExhausted`]) after this many
    /// failed segment attempts across the whole run.
    pub max_retries: u32,
    /// A segment whose accumulated virtual stall delay exceeds this
    /// deadline counts as failed ([`FleetError::WorkerStalled`]).
    pub stall_deadline_steps: u64,
    /// Virtual backoff charged for the first consecutive failure.
    pub backoff_initial_steps: u64,
    /// Backoff multiplier per additional consecutive failure.
    pub backoff_multiplier: u64,
    /// Halve the worker count after this many over-deadline stalls
    /// (graceful degradation; results are worker-count-invariant, so
    /// degrading never changes the answer).
    pub degrade_after_stalls: u32,
    /// Keep at most this many recent good snapshots in memory.
    pub keep_snapshots: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            checkpoint_cadence: 16,
            max_retries: 8,
            stall_deadline_steps: 64,
            backoff_initial_steps: 4,
            backoff_multiplier: 2,
            degrade_after_stalls: 2,
            keep_snapshots: 2,
        }
    }
}

impl RetryPolicy {
    /// Typed validation of the supervision parameters.
    pub fn validated(&self) -> Result<(), ConfigError> {
        if self.checkpoint_cadence < 1 {
            return Err(ConfigError::TooSmall {
                field: "checkpoint cadence",
                minimum: 1,
                got: self.checkpoint_cadence,
            });
        }
        if self.stall_deadline_steps < 1 {
            return Err(ConfigError::TooSmall {
                field: "stall deadline",
                minimum: 1,
                got: self.stall_deadline_steps,
            });
        }
        if self.backoff_multiplier < 1 {
            return Err(ConfigError::TooSmall {
                field: "backoff multiplier",
                minimum: 1,
                got: self.backoff_multiplier,
            });
        }
        if self.keep_snapshots < 1 {
            return Err(ConfigError::TooSmall {
                field: "kept snapshots",
                minimum: 1,
                got: self.keep_snapshots as u64,
            });
        }
        Ok(())
    }
}

/// What the supervisor did to finish a run — every counter is
/// deterministic for a given engine + [`FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// Segments completed (including the final assembly).
    pub segments: u64,
    /// Snapshots sealed (including later-corrupted ones).
    pub snapshots_taken: u64,
    /// Failed segment attempts (each consumed one retry).
    pub retries: u32,
    /// Failures classified as worker panics.
    pub worker_panics: u32,
    /// Failures classified as over-deadline stalls.
    pub stalls: u32,
    /// Corrupted snapshots detected (at seal or restore time) and
    /// quarantined.
    pub corrupt_snapshots_detected: u32,
    /// Recoveries that restored from a good snapshot (vs. restarting
    /// from scratch).
    pub restores: u32,
    /// Times the worker count was halved.
    pub degradations: u32,
    /// Total deterministic virtual backoff charged, in steps.
    pub virtual_backoff_steps: u64,
    /// Worker count at the end of the run (after degradations).
    pub final_workers: usize,
}

/// A supervised run's result: the (bit-identical-to-clean) fleet
/// result plus the supervision audit trail.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The fleet result — bit-identical to the fault-free
    /// [`FleetSimulation::try_run_ids`].
    pub result: FleetResult,
    /// What the supervisor did to get there.
    pub report: SupervisorReport,
}

impl SupervisorReport {
    /// Fold another report's counters into this one (a session
    /// accumulating per-`advance` supervision audit trails keeps one
    /// running total). `final_workers` takes the other report's value —
    /// it is a point-in-time reading, not a counter.
    pub fn absorb(&mut self, other: &SupervisorReport) {
        self.segments += other.segments;
        self.snapshots_taken += other.snapshots_taken;
        self.retries += other.retries;
        self.worker_panics += other.worker_panics;
        self.stalls += other.stalls;
        self.corrupt_snapshots_detected += other.corrupt_snapshots_detected;
        self.restores += other.restores;
        self.degradations += other.degradations;
        self.virtual_backoff_steps += other.virtual_backoff_steps;
        self.final_workers = other.final_workers;
    }
}

/// The reusable single-tenant supervisor behind
/// [`FleetSimulation::run_supervised`], factored out so a long-lived
/// session can drive a fleet *incrementally*: advance to an arbitrary
/// step bound, inspect the current snapshot, then advance again — with
/// the same cadence checkpointing, sealed write-then-verify snapshots,
/// watchdog, bounded retries, virtual backoff and worker degradation
/// on every segment.
///
/// Determinism contract (inherited from the PR 6 resume chain and
/// pinned by `tests/resilience_props.rs` / `tests/server_session.rs`):
/// for any sequence of `advance_to` bounds and any recoverable fault
/// schedule, [`Supervisor::finish`] returns a result bit-identical to
/// the fault-free batch [`FleetSimulation::try_run_ids`].
#[derive(Debug)]
pub struct Supervisor {
    engine: FleetSimulation,
    policy: RetryPolicy,
    report: SupervisorReport,
    /// Recent sealed good snapshots, oldest first.
    history: VecDeque<(u64, Vec<u8>)>,
    /// The snapshot a resumed supervisor started from (validated on
    /// entry): the restore point when no sealed snapshot is left.
    origin: Option<FleetCheckpoint>,
    /// The newest snapshot this supervisor produced or restored.
    current: Option<FleetCheckpoint>,
    consecutive_failures: u32,
    stall_strikes: u32,
}

impl Supervisor {
    /// A supervisor for a fresh (not-yet-started) run. Validates the
    /// retry policy and the engine's configuration planes up front.
    pub fn new(engine: FleetSimulation, policy: RetryPolicy) -> Result<Self, FleetError> {
        policy.validated().map_err(FleetError::InvalidConfig)?;
        engine.validate_planes().map_err(FleetError::InvalidConfig)?;
        Ok(Supervisor {
            engine,
            policy,
            report: SupervisorReport::default(),
            history: VecDeque::new(),
            origin: None,
            current: None,
            consecutive_failures: 0,
            stall_strikes: 0,
        })
    }

    /// A supervisor resuming from an existing snapshot (a hydrated
    /// session). The snapshot is validated against the engine's planes;
    /// an incompatible one surfaces as
    /// [`FleetError::CorruptCheckpoint`]. A failure before any newer
    /// snapshot verifies restores this one, never step 0.
    pub fn from_checkpoint(
        engine: FleetSimulation,
        policy: RetryPolicy,
        cp: FleetCheckpoint,
    ) -> Result<Self, FleetError> {
        let mut sup = Supervisor::new(engine, policy)?;
        sup.engine.check_checkpoint(&cp).map_err(FleetError::CorruptCheckpoint)?;
        sup.origin = Some(cp);
        Ok(sup)
    }

    /// The current snapshot (`None` until the first segment completes
    /// on a fresh run).
    pub fn checkpoint(&self) -> Option<&FleetCheckpoint> {
        self.current.as_ref().or(self.origin.as_ref())
    }

    /// The supervision audit trail so far.
    pub fn report(&self) -> &SupervisorReport {
        &self.report
    }

    /// The lockstep step of the current snapshot (0 before the first
    /// segment).
    pub fn step(&self) -> u64 {
        self.checkpoint().map_or(0, |cp| cp.step)
    }

    /// Whether every UE has finished (the run is ready for
    /// [`Supervisor::finish`]'s final assembly without further
    /// stepping).
    pub fn all_finished(&self) -> bool {
        self.checkpoint().is_some_and(|cp| cp.live.is_empty())
    }

    /// Current worker count (after any degradations).
    pub fn workers(&self) -> usize {
        self.engine.workers()
    }

    /// Tear down into the current snapshot and the audit trail.
    pub fn into_parts(self) -> (Option<FleetCheckpoint>, SupervisorReport) {
        (self.current.or(self.origin), self.report)
    }

    /// Virtual watchdog: a segment that accumulated more stall delay
    /// than the deadline is treated as failed even if it technically
    /// produced output — a real supervisor would have killed it
    /// mid-flight.
    fn watchdog<T>(&self, attempt: Result<T, FleetError>) -> Result<T, FleetError> {
        let stalled = self.engine.fault_injector().map_or(0, |f| f.take_stall_steps());
        if stalled > self.policy.stall_deadline_steps {
            Err(FleetError::WorkerStalled {
                stalled_steps: stalled,
                deadline_steps: self.policy.stall_deadline_steps,
            })
        } else {
            attempt
        }
    }

    /// Accept a completed segment's snapshot: seal, expose to scripted
    /// bit-rot, then write-verify — a corrupted seal is detected here
    /// and quarantined (the older good snapshot stays).
    fn accept_snapshot(&mut self, cp: FleetCheckpoint) {
        self.report.segments += 1;
        self.consecutive_failures = 0;
        let mut sealed = cp.seal();
        let snapshot_index = self.report.snapshots_taken;
        self.report.snapshots_taken += 1;
        if let Some(injector) = self.engine.fault_injector() {
            injector.corrupt_snapshot(snapshot_index, &mut sealed);
        }
        match FleetCheckpoint::try_unseal(&sealed) {
            Ok(_) => {
                self.history.push_back((cp.step, sealed));
                while self.history.len() > self.policy.keep_snapshots {
                    self.history.pop_front();
                }
            }
            Err(_) => self.report.corrupt_snapshots_detected += 1,
        }
        self.current = Some(cp);
    }

    /// Account a failed segment attempt: retry budget, deterministic
    /// virtual backoff, worker degradation after repeated stalls, and
    /// restore from the newest snapshot that still verifies
    /// (quarantining any that rotted in memory), falling back to the
    /// starting snapshot of a resumed run. Non-recoverable errors pass
    /// straight through.
    fn handle_failure(&mut self, err: FleetError) -> Result<(), FleetError> {
        if !err.is_recoverable() {
            return Err(err);
        }
        self.report.retries += 1;
        match &err {
            FleetError::WorkerPanic(_) => self.report.worker_panics += 1,
            FleetError::WorkerStalled { .. } => {
                self.report.stalls += 1;
                self.stall_strikes += 1;
            }
            _ => {}
        }
        if self.report.retries > self.policy.max_retries {
            return Err(FleetError::RetriesExhausted {
                attempts: self.report.retries,
                last: Box::new(err),
            });
        }
        // Deterministic virtual-time backoff: no wall clock, just an
        // exponentially growing charge in the report.
        self.consecutive_failures += 1;
        self.report.virtual_backoff_steps += self.policy.backoff_initial_steps.saturating_mul(
            self.policy
                .backoff_multiplier
                .saturating_pow(self.consecutive_failures.saturating_sub(1)),
        );
        // Graceful degradation: repeated stalls halve the worker count
        // (results are worker-invariant).
        if self.stall_strikes >= self.policy.degrade_after_stalls && self.engine.workers() > 1 {
            let halved = self.engine.workers() / 2;
            self.engine = self.engine.clone().with_workers(halved);
            self.report.degradations += 1;
            self.stall_strikes = 0;
        }
        self.current = loop {
            match self.history.back() {
                None => break None,
                Some((_, sealed)) => match FleetCheckpoint::try_unseal(sealed) {
                    Ok(cp) => {
                        self.report.restores += 1;
                        break Some(cp);
                    }
                    Err(_) => {
                        self.report.corrupt_snapshots_detected += 1;
                        self.history.pop_back();
                    }
                },
            }
        };
        Ok(())
    }

    /// Advance the run in cadence-sized supervised segments until the
    /// current snapshot reaches `target_step` or every UE has finished,
    /// whichever comes first. Returns the snapshot at the stopping
    /// point. On a fresh supervisor `ids`/`base_seed` start the run;
    /// on later calls (and after [`Supervisor::from_checkpoint`]) the
    /// population and seed come from the snapshot itself.
    pub fn advance_to(
        &mut self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        target_step: u64,
    ) -> Result<&FleetCheckpoint, FleetError> {
        loop {
            if let Some(cp) = self.checkpoint() {
                if cp.live.is_empty() || cp.step >= target_step {
                    break;
                }
            }
            let bound = match self.checkpoint() {
                Some(cp) => {
                    cp.step.saturating_add(self.policy.checkpoint_cadence).min(target_step)
                }
                None => self.policy.checkpoint_cadence.min(target_step),
            };
            let attempt = self.engine.advance(spec, self.checkpoint(), ids, base_seed, bound);
            match self.watchdog(attempt) {
                Ok(cp) => self.accept_snapshot(cp),
                Err(err) => self.handle_failure(err)?,
            }
        }
        // invariant: the loop only breaks once a snapshot is in place.
        Ok(self.checkpoint().expect("advance_to leaves a checkpoint"))
    }

    /// Drive the remaining steps (supervised, cadence-segmented) and
    /// assemble the final [`FleetResult`] through the resume path —
    /// bit-identical to the uninterrupted batch run. The final assembly
    /// (traffic replay + merge) retries under the same policy as any
    /// other segment.
    pub fn finish(
        &mut self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
    ) -> Result<FleetResult, FleetError> {
        loop {
            self.advance_to(spec, ids, base_seed, u64::MAX)?;
            let cp = self.checkpoint().expect("advance_to leaves a checkpoint");
            let attempt = self.engine.try_resume(spec, cp).map(Box::new);
            match self.watchdog(attempt) {
                Ok(result) => {
                    self.report.segments += 1;
                    self.report.final_workers = self.engine.workers();
                    return Ok(*result);
                }
                Err(err) => self.handle_failure(err)?,
            }
        }
    }
}

impl FleetSimulation {
    /// Run `ids` to completion under supervision: checkpoint every
    /// [`RetryPolicy::checkpoint_cadence`] steps, detect worker panics
    /// (via the fallible pass plumbing) and stalls (via the virtual
    /// watchdog), recover from the most recent *verified* snapshot with
    /// bounded retries and deterministic virtual-time backoff, and
    /// degrade the worker count after repeated stalls.
    ///
    /// The result is **bit-identical** to the fault-free
    /// [`FleetSimulation::try_run_ids`] for any recoverable fault schedule,
    /// any cadence and any worker/chunk shape — recovery replays from
    /// snapshots whose resume path is itself bit-identical, and the
    /// checksummed seal format guarantees corrupted snapshots are
    /// detected and quarantined, never resumed.
    ///
    /// Faults come from the injector attached with
    /// [`FleetSimulation::with_fault_injection`] (none attached ⇒ a
    /// clean run that pays only the checkpointing overhead).
    pub fn run_supervised(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        policy: &RetryPolicy,
    ) -> Result<SupervisedRun, FleetError> {
        let mut supervisor = Supervisor::new(self.clone(), *policy)?;
        let result = supervisor.finish(spec, ids, base_seed)?;
        let (_, report) = supervisor.into_parts();
        Ok(SupervisedRun { result, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::chaos(7, 100, 5);
        let b = FaultPlan::chaos(7, 100, 5);
        let c = FaultPlan::chaos(8, 100, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.faults.len(), 5);
        for fault in &a.faults {
            match *fault {
                Fault::WorkerPanic { at_step } | Fault::AllocFailure { at_step } => {
                    assert!(at_step < 100);
                }
                Fault::StallWorker { at_step, delay_steps } => {
                    assert!(at_step < 100 && delay_steps >= 1);
                }
                Fault::CorruptCheckpoint { .. } => panic!("chaos never scripts corruption"),
            }
        }
    }

    #[test]
    fn injector_faults_fire_exactly_once() {
        let plan = FaultPlan::scripted(vec![
            Fault::StallWorker { at_step: 3, delay_steps: 10 },
            Fault::CorruptCheckpoint { at_snapshot: 0, byte_offset: 2 },
        ]);
        let inj = plan.injector();
        inj.check_step(3);
        inj.check_step(3);
        assert_eq!(inj.take_stall_steps(), 10, "stall delay charged once");
        assert_eq!(inj.take_stall_steps(), 0, "watchdog read resets the charge");
        let mut bytes = vec![0u8; 8];
        assert!(inj.corrupt_snapshot(0, &mut bytes));
        assert_eq!(bytes[2], 0xFF);
        assert!(!inj.corrupt_snapshot(0, &mut bytes), "corruption is one-shot");
        assert!(inj.exhausted());
    }

    #[test]
    fn injected_panic_is_one_shot() {
        let plan = FaultPlan::scripted(vec![Fault::WorkerPanic { at_step: 5 }]);
        let inj = plan.injector();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.check_step(5)));
        assert!(err.is_err(), "scheduled step panics");
        inj.check_step(5); // second arrival: already fired, no panic
        assert!(inj.exhausted());
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::default().validated().is_ok());
        let bad = RetryPolicy { checkpoint_cadence: 0, ..RetryPolicy::default() };
        assert!(matches!(
            bad.validated(),
            Err(ConfigError::TooSmall { field: "checkpoint cadence", .. })
        ));
        let bad = RetryPolicy { keep_snapshots: 0, ..RetryPolicy::default() };
        assert!(bad.validated().is_err());
    }

    #[test]
    fn config_error_messages_keep_legacy_phrases() {
        // The Display strings keep the phrases of the asserts the typed
        // errors replaced.
        let msg = ConfigError::NonPositive { field: "sample spacing", value: 0.0 }.to_string();
        assert!(msg.contains("sample spacing must be positive"), "{msg}");
        let msg =
            ConfigError::GuardChannelsExhaustCapacity { guard: 3, channels: 3 }.to_string();
        assert!(msg.contains("guard channels must leave room for new calls"), "{msg}");
        let msg = ConfigError::InvertedWindow { field: "outage", from: 5, until: 5 }.to_string();
        assert!(msg.contains("non-empty"), "{msg}");
        let msg = ConfigError::OutOfRange {
            field: "tidal amplitude",
            value: 1.5,
            lo: 0.0,
            hi: 1.0,
        }
        .to_string();
        assert!(msg.contains("tidal amplitude must lie in [0, 1]"), "{msg}");
    }
}
