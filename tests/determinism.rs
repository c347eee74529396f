//! Determinism smoke tests: the simulation must be a pure function of
//! (scenario, config, seed). Future parallel Monte-Carlo work must not
//! break bit-identical reruns — these tests are the guard.

use fuzzy_handover::core::{ControllerConfig, FuzzyHandoverController};
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{
    FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::monte_carlo::{run_repetitions, run_repetitions_parallel};
use fuzzy_handover::sim::{Scenario, SimConfig, Simulation, SCENARIO_A_SEED, SCENARIO_B_SEED};

/// The UE ids `0..n`.
fn ue_ids(n: u64) -> Vec<u64> {
    (0..n).collect()
}

fn paper_policy() -> FuzzyHandoverController {
    let cell_radius = SimConfig::paper_default().layout.cell_radius_km();
    FuzzyHandoverController::new(ControllerConfig::paper_default(cell_radius))
}

/// Same scenario + same seed, run twice → bit-identical `SimResult`.
fn assert_rerun_identical(scenario: Scenario, label: &str) {
    let sim = Simulation::new(SimConfig::paper_default());
    let walk = scenario.trajectory();
    let mut policy_one = paper_policy();
    let mut policy_two = paper_policy();
    let first = sim.run(&walk, &mut policy_one, scenario.seed);
    let second = sim.run(&walk, &mut policy_two, scenario.seed);
    assert_eq!(first, second, "scenario {label} rerun diverged");
    assert!(!first.steps.is_empty(), "scenario {label} produced no steps");
}

#[test]
fn scenario_a_is_deterministic() {
    assert_eq!(Scenario::a().seed, SCENARIO_A_SEED);
    assert_rerun_identical(Scenario::a(), "A");
}

#[test]
fn scenario_b_is_deterministic() {
    assert_eq!(Scenario::b().seed, SCENARIO_B_SEED);
    assert_rerun_identical(Scenario::b(), "B");
}

/// Trajectory generation itself is a pure function of the seed.
#[test]
fn trajectories_are_reproducible() {
    for scenario in [Scenario::a(), Scenario::b()] {
        let first = scenario.trajectory();
        let second = scenario.trajectory();
        assert_eq!(first.waypoints(), second.waypoints());
    }
}

/// Parallel Monte-Carlo must match the sequential reference bit for bit,
/// regardless of worker count — each repetition owns its seed.
#[test]
fn parallel_monte_carlo_matches_sequential() {
    let sim = Simulation::new(SimConfig::paper_default());
    let walk = Scenario::b().trajectory();
    let make = || -> Box<dyn fuzzy_handover::core::HandoverPolicy + Send> {
        Box::new(paper_policy())
    };
    let sequential = run_repetitions(&sim, &walk, make, SCENARIO_B_SEED, 8);
    for threads in [1, 2, 4, 8, 16] {
        let parallel = run_repetitions_parallel(&sim, &walk, make, SCENARIO_B_SEED, 8, threads);
        assert_eq!(sequential, parallel, "diverged with {threads} threads");
    }
}

fn fleet_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg.sample_spacing_km = 0.2;
    cfg
}

fn fleet_spec() -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 31,
        cell_radius_km: 2.0,
    }
}

/// The fleet engine is a pure function of (spec, config, base seed).
#[test]
fn fleet_reruns_are_bit_identical() {
    let fleet = FleetSimulation::new(fleet_config()).with_workers(4);
    let first = fleet
        .try_run_ids(&fleet_spec(), &ue_ids(64), 12)
        .expect("fleet run");
    let second = fleet
        .try_run_ids(&fleet_spec(), &ue_ids(64), 12)
        .expect("fleet run");
    assert_eq!(first, second, "fleet rerun diverged");
    assert_eq!(first.summary.ues, 64);
    assert!(first.summary.steps > 0);
}

/// Sharded parallel fleet stepping must match the single-worker
/// reference bit for bit for any worker count and chunk size — the
/// same contract the parallel Monte-Carlo established.
#[test]
fn parallel_fleet_matches_single_worker() {
    let reference = FleetSimulation::new(fleet_config())
        .try_run_ids(&fleet_spec(), &ue_ids(48), 99)
        .expect("fleet run");
    for workers in [2, 3, 5, 8, 16] {
        for chunk in [1, 16, 256] {
            let sharded = FleetSimulation::new(fleet_config())
                .with_workers(workers)
                .with_chunk_size(chunk)
                .try_run_ids(&fleet_spec(), &ue_ids(48), 99)
                .expect("fleet run");
            assert_eq!(
                reference, sharded,
                "fleet diverged with {workers} workers, chunk {chunk}"
            );
        }
    }
}
