//! Monte-Carlo repetition: the paper "carried out 10 times simulations and
//! calculated the average values". Repetitions differ only in the RNG
//! stream (shadowing + measurement noise).
//! [`try_run_repetitions_parallel`] is the one entry: it runs them on the
//! fleet engine's scoped runner, in order on the calling thread for
//! `threads = 1`.
//!
//! `make_policy` builds one fresh policy per repetition; fuzzy policies
//! built through [`FuzzyHandoverController::new`] all borrow the
//! process-wide compiled plan ([`handover_core::paper_flc_plan`]), so
//! spawning a policy per repetition costs a scratch buffer, not a rule
//! base.
//!
//! [`FuzzyHandoverController::new`]: handover_core::FuzzyHandoverController::new

use crate::engine::{SimResult, Simulation};
use crate::fleet::{map_round_robin, panic_message, FleetError};
use crate::resilience::ConfigError;
use handover_core::HandoverPolicy;
use mobility::Trajectory;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Aggregate statistics over a batch of runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McSummary {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean handover count per run.
    pub mean_handovers: f64,
    /// Standard deviation of the handover count.
    pub std_handovers: f64,
    /// Mean ping-pong count per run (window from the sim config).
    pub mean_ping_pongs: f64,
    /// Mean outage ratio per run.
    pub mean_outage: f64,
    /// Mean of all FLC outputs observed across all runs. `None` when the
    /// policy never produced an HD value (conventional baselines that
    /// never handed over): previously this was `NaN`, which serde_json
    /// silently serializes as `null` and then refuses to deserialize —
    /// `Option` makes the "no data" case explicit and round-trippable.
    pub mean_hd: Option<f64>,
}

/// Run `reps` repetitions on `threads` workers (worker 0 is the calling
/// thread, so `threads = 1` runs them in order on the caller). Run `k`
/// builds a fresh policy with `make_policy` and uses seed
/// `base_seed + k`, so the results, returned in repetition order, are
/// bit-identical for every thread count. A panicking policy or engine
/// surfaces as the [`FleetError::WorkerPanic`] of the *first failing
/// repetition* (lowest repetition index — the same error for every
/// thread count), and `reps == 0` comes back as
/// [`FleetError::InvalidConfig`].
pub fn try_run_repetitions_parallel(
    sim: &Simulation,
    trajectory: &Trajectory,
    make_policy: impl Fn() -> Box<dyn HandoverPolicy + Send> + Sync,
    base_seed: u64,
    reps: usize,
    threads: usize,
) -> Result<Vec<SimResult>, FleetError> {
    if reps < 1 {
        return Err(ConfigError::TooSmall { field: "repetitions", minimum: 1, got: 0 }.into());
    }
    let runs = map_round_robin(reps, threads, |k| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut policy = make_policy();
            sim.run(trajectory, policy.as_mut(), base_seed + k as u64)
        }))
        .map_err(|payload| FleetError::WorkerPanic(panic_message(payload.as_ref())))
    });
    runs.into_iter().collect()
}

/// Aggregate a batch of runs.
pub fn summarize(results: &[SimResult], pingpong_window: usize) -> McSummary {
    assert!(!results.is_empty(), "cannot summarize zero runs");
    let n = results.len() as f64;
    let counts: Vec<f64> = results.iter().map(|r| r.handover_count() as f64).collect();
    let mean_handovers = counts.iter().sum::<f64>() / n;
    let var = counts.iter().map(|c| (c - mean_handovers).powi(2)).sum::<f64>() / n;
    let mean_ping_pongs = results
        .iter()
        .map(|r| r.log.ping_pong_report(pingpong_window).ping_pongs as f64)
        .sum::<f64>()
        / n;
    let mean_outage = results.iter().map(|r| r.log.outage_ratio()).sum::<f64>() / n;
    let mut hd_sum = 0.0;
    let mut hd_count = 0usize;
    for r in results {
        for hd in r.hd_values() {
            hd_sum += hd;
            hd_count += 1;
        }
    }
    McSummary {
        runs: results.len(),
        mean_handovers,
        std_handovers: var.sqrt(),
        mean_ping_pongs,
        mean_outage,
        mean_hd: (hd_count > 0).then(|| hd_sum / hd_count as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use cellgeom::{Axial, Vec2};
    use handover_core::{ControllerConfig, Decision, FuzzyHandoverController, MeasurementReport};
    use radiolink::{MeasurementNoise, ShadowingConfig};
    use std::sync::mpsc::{channel, Sender};
    use std::thread::{self, ThreadId};

    fn noisy_sim() -> Simulation {
        let mut cfg = SimConfig::paper_default();
        cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
        cfg.noise = MeasurementNoise::new(1.0);
        Simulation::new(cfg)
    }

    fn crossing_walk() -> Trajectory {
        Trajectory::new(vec![Vec2::ZERO, Vec2::new(6.5, 0.0)])
    }

    fn fuzzy() -> Box<dyn HandoverPolicy + Send> {
        Box::new(FuzzyHandoverController::new(ControllerConfig::paper_default(2.0)))
    }

    /// The sequential reference: repetition `k` on the calling thread
    /// with seed `base_seed + k`.
    fn sequential(
        sim: &Simulation,
        t: &Trajectory,
        make: impl Fn() -> Box<dyn HandoverPolicy + Send>,
        base_seed: u64,
        reps: u64,
    ) -> Vec<SimResult> {
        (0..reps).map(|k| sim.run(t, make().as_mut(), base_seed + k)).collect()
    }

    fn on_caller(
        make: impl Fn() -> Box<dyn HandoverPolicy + Send> + Sync,
        base_seed: u64,
        reps: usize,
    ) -> Vec<SimResult> {
        try_run_repetitions_parallel(&noisy_sim(), &crossing_walk(), make, base_seed, reps, 1)
            .expect("runs")
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let sim = noisy_sim();
        let t = crossing_walk();
        let seq = sequential(&sim, &t, fuzzy, 77, 6);
        for threads in [1, 3] {
            let par = try_run_repetitions_parallel(&sim, &t, fuzzy, 77, 6, threads).expect("runs");
            assert_eq!(seq, par, "bit-identical results regardless of threading");
        }
    }

    #[test]
    fn parallel_with_more_threads_than_reps() {
        let sim = noisy_sim();
        let t = crossing_walk();
        let par = try_run_repetitions_parallel(&sim, &t, fuzzy, 5, 2, 16).expect("runs");
        assert_eq!(par.len(), 2);
    }

    /// A fuzzy controller that reports, on its first decision, the
    /// thread its factory ran on and the serving RSS it saw. Every seed
    /// draws different noise, so that RSS names the repetition.
    struct FirstDecision {
        inner: Box<dyn HandoverPolicy + Send>,
        built_on: ThreadId,
        report: Option<Sender<(ThreadId, u64)>>,
    }

    impl HandoverPolicy for FirstDecision {
        fn decide(&mut self, report: &MeasurementReport) -> Decision {
            if let Some(tx) = self.report.take() {
                tx.send((self.built_on, report.serving_rss_dbm.to_bits())).expect("receiver");
            }
            self.inner.decide(report)
        }

        fn notify_handover(&mut self, new_serving: Axial) {
            self.inner.notify_handover(new_serving);
        }

        fn name(&self) -> &'static str {
            "first-decision"
        }
    }

    /// Run `reps` repetitions on `threads` workers and return, per
    /// repetition, the thread its policy factory ran on.
    fn factory_threads(reps: usize, threads: usize) -> Vec<ThreadId> {
        let (tx, rx) = channel();
        let make = || -> Box<dyn HandoverPolicy + Send> {
            let built_on = thread::current().id();
            Box::new(FirstDecision { inner: fuzzy(), built_on, report: Some(tx.clone()) })
        };
        let sim = noisy_sim();
        let results = try_run_repetitions_parallel(&sim, &crossing_walk(), make, 41, reps, threads)
            .expect("runs");
        drop(tx);
        let seen: Vec<(ThreadId, u64)> = rx.iter().collect();
        assert_eq!(seen.len(), reps, "one factory call per repetition");
        results
            .iter()
            .map(|r| {
                let rss = r.steps[0].serving_rss_dbm.to_bits();
                let mut hits = seen.iter().filter(|&&(_, bits)| bits == rss);
                let (thread, _) = hits.next().expect("repetition recorded");
                assert!(hits.next().is_none(), "first RSS names one repetition");
                *thread
            })
            .collect()
    }

    /// Worker 0 is the calling thread: one thread runs every repetition
    /// there, three threads run repetitions 0 and 3 there and the rest
    /// on two other threads.
    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        assert!(factory_threads(4, 1).iter().all(|&t| t == caller));
        let threads = factory_threads(6, 3);
        for (k, &t) in threads.iter().enumerate() {
            assert_eq!(t == caller, k % 3 == 0, "repetition {k} ran on {t:?}");
        }
        assert_eq!((threads[1], threads[2]), (threads[4], threads[5]));
        assert_ne!(threads[1], threads[2]);
    }

    #[test]
    fn repetitions_differ_by_seed() {
        let runs = on_caller(fuzzy, 1, 3);
        // With fading and noise on, different seeds yield different RSS
        // traces.
        assert_ne!(runs[0].steps[5].serving_rss_dbm, runs[1].steps[5].serving_rss_dbm);
    }

    #[test]
    fn summary_statistics() {
        let s = summarize(&on_caller(fuzzy, 9, 10), 12);
        assert_eq!(s.runs, 10);
        assert!(s.mean_handovers >= 1.0, "crossing walk hands over: {s:?}");
        assert!(s.std_handovers >= 0.0);
        assert!((0.0..=1.0).contains(&s.mean_outage));
        let hd = s.mean_hd.expect("fuzzy policy exposes HD values");
        assert!(hd.is_finite());
        assert!((0.0..=1.0).contains(&hd));
    }

    #[test]
    fn mean_hd_is_none_without_flc_data_and_round_trips() {
        // A threshold that never fires: no handovers, no HD stream.
        let make = || -> Box<dyn HandoverPolicy + Send> {
            Box::new(handover_core::baselines::ThresholdPolicy::new(-500.0))
        };
        let s = summarize(&on_caller(make, 3, 4), 12);
        assert_eq!(s.mean_hd, None, "no FLC data is None, never NaN");
        // The summary serializes without NaN and deserializes back —
        // exactly what the old NaN representation broke.
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("NaN"), "{json}");
        let back: McSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn summary_with_flc_data_round_trips() {
        let s = summarize(&on_caller(fuzzy, 9, 3), 12);
        let back: McSummary = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn fallible_parallel_agrees_and_surfaces_typed_errors() {
        let sim = noisy_sim();
        let t = crossing_walk();
        // Clean runs: identical to the sequential reference.
        let ok = try_run_repetitions_parallel(&sim, &t, fuzzy, 77, 6, 3)
            .expect("clean repetitions succeed");
        assert_eq!(ok, sequential(&sim, &t, fuzzy, 77, 6));
        // Zero repetitions: a typed config error, not an assert.
        let err = try_run_repetitions_parallel(&sim, &t, fuzzy, 77, 0, 3)
            .expect_err("zero reps rejected");
        assert!(matches!(err, FleetError::InvalidConfig(_)), "{err:?}");

        // A panicking policy factory: the panic is caught and reported,
        // identically for every thread count.
        let exploding = || -> Box<dyn HandoverPolicy + Send> {
            panic!("policy factory exploded on purpose");
        };
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err_a = try_run_repetitions_parallel(&sim, &t, exploding, 77, 4, 1)
            .expect_err("exploding factory fails");
        let err_b = try_run_repetitions_parallel(&sim, &t, exploding, 77, 4, 4)
            .expect_err("exploding factory fails");
        std::panic::set_hook(prev_hook);
        match &err_a {
            FleetError::WorkerPanic(msg) => {
                assert!(msg.contains("exploded on purpose"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(err_a, err_b, "first-repetition error is thread-count invariant");
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_summary_rejected() {
        let _ = summarize(&[], 12);
    }
}
