//! Monte-Carlo repetition: the paper "carried out 10 times simulations and
//! calculated the average values". Repetitions differ only in the RNG
//! stream (shadowing + measurement noise); they can run sequentially or on
//! a crossbeam thread pool.
//!
//! `make_policy` builds one fresh policy per repetition; fuzzy policies
//! built through [`FuzzyHandoverController::new`] all borrow the
//! process-wide compiled plan ([`handover_core::paper_flc_plan`]), so
//! spawning a policy per repetition costs a scratch buffer, not a rule
//! base.
//!
//! [`FuzzyHandoverController::new`]: handover_core::FuzzyHandoverController::new

use crate::engine::{SimResult, Simulation};
use crate::fleet::{panic_message, FleetError};
use crate::resilience::ConfigError;
use handover_core::HandoverPolicy;
use mobility::Trajectory;
use parking_lot::Mutex;
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

/// Run `reps` repetitions sequentially. `make_policy` builds a fresh
/// policy per run; run `k` uses seed `base_seed + k`.
pub fn run_repetitions(
    sim: &Simulation,
    trajectory: &Trajectory,
    make_policy: impl Fn() -> Box<dyn HandoverPolicy + Send>,
    base_seed: u64,
    reps: usize,
) -> Vec<SimResult> {
    assert!(reps >= 1, "need at least one repetition");
    (0..reps)
        .map(|k| {
            let mut policy = make_policy();
            sim.run(trajectory, policy.as_mut(), base_seed + k as u64)
        })
        .collect()
}

/// Run `reps` repetitions on `threads` crossbeam-scoped workers. Results
/// are returned in repetition order and are bit-identical to the
/// sequential [`run_repetitions`] (each repetition owns its seed). A
/// panicking policy or engine surfaces as the
/// [`FleetError::WorkerPanic`] of the *first failing repetition*
/// (lowest repetition index — the same error for every thread count),
/// and `reps == 0` comes back as [`FleetError::InvalidConfig`] instead
/// of an assert.
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
    let threads = threads.clamp(1, reps);
    let results: Mutex<Vec<(usize, Result<SimResult, FleetError>)>> =
        Mutex::new(Vec::with_capacity(reps));
    crossbeam::scope(|scope| {
        for t in 0..threads {
            let results = &results;
            let make_policy = &make_policy;
            scope.spawn(move |_| {
                // Static round-robin split keeps the partition independent
                // of thread scheduling.
                let mut k = t;
                while k < reps {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let mut policy = make_policy();
                        sim.run(trajectory, policy.as_mut(), base_seed + k as u64)
                    }))
                    .map_err(|payload| FleetError::WorkerPanic(panic_message(payload.as_ref())));
                    results.lock().push((k, r));
                    k += threads;
                }
            });
        }
    })
    // invariant: repetition panics are caught by the catch_unwind above,
    // so a worker thread itself can never unwind.
    .expect("monte-carlo workers do not panic");
    let mut out = results.into_inner();
    out.sort_by_key(|(k, _)| *k);
    let mut runs = Vec::with_capacity(out.len());
    for (_, r) in out {
        runs.push(r?);
    }
    Ok(runs)
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
    use cellgeom::Vec2;
    use handover_core::{ControllerConfig, FuzzyHandoverController};
    use radiolink::{MeasurementNoise, ShadowingConfig};

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

    #[test]
    fn sequential_and_parallel_agree() {
        let sim = noisy_sim();
        let t = crossing_walk();
        let seq = run_repetitions(&sim, &t, fuzzy, 77, 6);
        let par = try_run_repetitions_parallel(&sim, &t, fuzzy, 77, 6, 3).expect("runs");
        assert_eq!(seq, par, "bit-identical results regardless of threading");
    }

    #[test]
    fn parallel_with_more_threads_than_reps() {
        let sim = noisy_sim();
        let t = crossing_walk();
        let par = try_run_repetitions_parallel(&sim, &t, fuzzy, 5, 2, 16).expect("runs");
        assert_eq!(par.len(), 2);
    }

    #[test]
    fn repetitions_differ_by_seed() {
        let sim = noisy_sim();
        let t = crossing_walk();
        let runs = run_repetitions(&sim, &t, fuzzy, 1, 3);
        // With fading and noise on, different seeds yield different RSS
        // traces.
        assert_ne!(runs[0].steps[5].serving_rss_dbm, runs[1].steps[5].serving_rss_dbm);
    }

    #[test]
    fn summary_statistics() {
        let sim = noisy_sim();
        let t = crossing_walk();
        let runs = run_repetitions(&sim, &t, fuzzy, 9, 10);
        let s = summarize(&runs, 12);
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
        let sim = noisy_sim();
        let t = crossing_walk();
        let make = || -> Box<dyn HandoverPolicy + Send> {
            Box::new(handover_core::baselines::ThresholdPolicy::new(-500.0))
        };
        let runs = run_repetitions(&sim, &t, make, 3, 4);
        let s = summarize(&runs, 12);
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
        let sim = noisy_sim();
        let t = crossing_walk();
        let s = summarize(&run_repetitions(&sim, &t, fuzzy, 9, 3), 12);
        let back: McSummary = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn fallible_parallel_agrees_and_surfaces_typed_errors() {
        let sim = noisy_sim();
        let t = crossing_walk();
        // Clean runs: identical to the panicking form.
        let ok = try_run_repetitions_parallel(&sim, &t, fuzzy, 77, 6, 3)
            .expect("clean repetitions succeed");
        assert_eq!(ok, run_repetitions(&sim, &t, fuzzy, 77, 6));

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
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_rejected() {
        let sim = noisy_sim();
        let t = crossing_walk();
        let _ = run_repetitions(&sim, &t, fuzzy, 0, 0);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn empty_summary_rejected() {
        let _ = summarize(&[], 12);
    }
}
