//! Property tests for the dynamic-workload plane's determinism
//! contracts:
//!
//! 1. a fully dynamic run (churn + tide + failures + services, with a
//!    traffic plane attached) is invariant under worker count and chunk
//!    size;
//! 2. it is invariant under UE submission order;
//! 3. an `advance` snapshot taken mid-run — including mid-failure
//!    window — resumes bit-identically to the uninterrupted run, under
//!    arbitrary snapshot/resume sharding shapes;
//! 4. the streaming aggregation path reproduces the dense run's summary
//!    and serving-load histogram bit for bit with engine-side dynamics
//!    (churn + failures) enabled.

use fuzzy_handover::geometry::Axial;
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::{
    CellOutage, ChurnConfig, DynamicsConfig, ServiceMix, ServiceParams, SimConfig, TidalWave,
    TrafficConfig,
};
use proptest::prelude::*;

/// The UE ids `0..n`.
fn ue_ids(n: u64) -> Vec<u64> {
    (0..n).collect()
}

fn config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg.sample_spacing_km = 0.2;
    cfg
}

fn spec(policy: PolicyKind, trajectory_seed: u64) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
        policy,
        trajectory_seed,
        cell_radius_km: 2.0,
    }
}

fn traffic() -> TrafficConfig {
    TrafficConfig {
        channels_per_cell: 2,
        guard_channels: 1,
        mean_idle_steps: 4.0,
        mean_holding_steps: 5.0,
        load_feedback: false,
    }
}

/// Every dynamic feature live at once.
fn city_dynamics() -> DynamicsConfig {
    DynamicsConfig {
        churn: Some(ChurnConfig { initial_ues: 6, horizon_steps: 12, mean_lifetime_steps: 10.0 }),
        tide: Some(TidalWave { period_steps: 8, amplitude: 0.7, phase_per_q: 0.25 }),
        failures: vec![
            CellOutage { cell: Axial::new(0, 0), from_step: 3, until_step: 8 },
            CellOutage { cell: Axial::new(1, -1), from_step: 6, until_step: 11 },
        ],
        services: Some(ServiceMix {
            voice_share: 0.6,
            voice: ServiceParams {
                mean_idle_steps: 3.0,
                mean_holding_steps: 4.0,
                extra_guard_channels: 0,
            },
            data: ServiceParams {
                mean_idle_steps: 5.0,
                mean_holding_steps: 8.0,
                extra_guard_channels: 1,
            },
        }),
    }
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Fuzzy),
        Just(PolicyKind::FuzzyLut),
        Just(PolicyKind::Hysteresis { margin_db: 2.0 }),
        Just(PolicyKind::Threshold { threshold_dbm: -95.0 }),
        Just(PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 8.0 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1: worker count and chunk size never change a fully
    /// dynamic result — outcomes, summary, histogram, traffic report
    /// and dynamic report included.
    #[test]
    fn dynamic_fleet_invariant_under_workers_and_chunks(
        seed in 0u64..u64::MAX,
        n_ues in 8u64..28,
        workers in 1usize..7,
        chunk in 1usize..33,
        policy in policy_strategy(),
        mode in prop_oneof![Just(CandidateMode::All), Just(CandidateMode::Nearest(7))],
    ) {
        let ue_spec = spec(policy, seed ^ 0xD17A);
        let reference = FleetSimulation::new(config())
            .with_candidate_mode(mode)
            .with_traffic(traffic())
            .with_dynamics(city_dynamics())
            .try_run_ids(&ue_spec, &ue_ids(n_ues), seed).expect("fleet run");
        let sharded = FleetSimulation::new(config())
            .with_candidate_mode(mode)
            .with_workers(workers)
            .with_chunk_size(chunk)
            .with_traffic(traffic())
            .with_dynamics(city_dynamics())
            .try_run_ids(&ue_spec, &ue_ids(n_ues), seed).expect("fleet run");
        prop_assert_eq!(&reference, &sharded);
        for (a, b) in reference.outcomes.iter().zip(&sharded.outcomes) {
            prop_assert_eq!(a.hd_sum.to_bits(), b.hd_sum.to_bits());
        }
        prop_assert!(reference.dynamics.is_some());
    }

    /// Contract 2: any permutation of the UE id list produces the same
    /// fully dynamic `FleetResult` (churn windows key off the UE id, not
    /// the submission slot).
    #[test]
    fn dynamic_fleet_invariant_under_submission_order(
        seed in 0u64..u64::MAX,
        n_ues in 8u64..24,
        rotation in 0usize..24,
        swap_a in 0usize..24,
        swap_b in 0usize..24,
    ) {
        let ue_spec = spec(PolicyKind::Fuzzy, seed.wrapping_add(29));
        let fleet = FleetSimulation::new(config())
            .with_workers(3)
            .with_chunk_size(4)
            .with_traffic(traffic())
            .with_dynamics(city_dynamics());
        let forward: Vec<u64> = (0..n_ues).collect();
        let mut permuted = forward.clone();
        let len = permuted.len();
        permuted.rotate_left(rotation % len);
        permuted.swap(swap_a % len, swap_b % len);
        permuted.reverse();
        prop_assert_eq!(
            fleet.try_run_ids(&ue_spec, &forward, seed).expect("fleet run"),
            fleet.try_run_ids(&ue_spec, &permuted, seed).expect("fleet run")
        );
    }

    /// Contract 3: freeze at an arbitrary step — the `3..9` range spans
    /// the first failure window, so snapshots land before, inside and
    /// after an outage — and resume under a different sharding shape;
    /// the reassembled result is bit-identical to the uninterrupted run.
    #[test]
    fn dynamic_snapshot_resume_is_bit_identical(
        seed in 0u64..u64::MAX,
        n_ues in 8u64..20,
        snap_step in 0u64..14,
        workers_a in 1usize..5,
        chunk_a in 1usize..17,
        workers_b in 1usize..5,
        chunk_b in 1usize..17,
        policy in policy_strategy(),
    ) {
        let ue_spec = spec(policy, seed ^ 0xC1FF);
        let ids: Vec<u64> = (0..n_ues).collect();
        let full = FleetSimulation::new(config())
            .with_traffic(traffic())
            .with_dynamics(city_dynamics())
            .try_run_ids(&ue_spec, &ids, seed).expect("fleet run");
        let cp = FleetSimulation::new(config())
            .with_workers(workers_a)
            .with_chunk_size(chunk_a)
            .with_traffic(traffic())
            .with_dynamics(city_dynamics())
            .advance(&ue_spec, None, &ids, seed, snap_step)
            .unwrap();
        let resumed = FleetSimulation::new(config())
            .with_workers(workers_b)
            .with_chunk_size(chunk_b)
            .with_traffic(traffic())
            .with_dynamics(city_dynamics())
            .try_resume(&ue_spec, &cp)
            .unwrap();
        prop_assert_eq!(&full, &resumed);
        for (a, b) in full.outcomes.iter().zip(&resumed.outcomes) {
            prop_assert_eq!(a.hd_sum.to_bits(), b.hd_sum.to_bits());
            prop_assert_eq!(a.travelled_km.to_bits(), b.travelled_km.to_bits());
        }
    }

    /// Contract 4: the streaming aggregator reproduces the dense run's
    /// summary and serving-load histogram bit for bit with the
    /// engine-side dynamic features (churn + failures) enabled.
    #[test]
    fn dynamic_streamed_summary_equals_dense_run(
        seed in 0u64..u64::MAX,
        n_ues in 8u64..28,
        workers in 1usize..6,
        chunk in 1usize..33,
        policy in policy_strategy(),
    ) {
        let engine_side = DynamicsConfig {
            services: None,
            tide: None,
            ..city_dynamics()
        };
        let ue_spec = spec(policy, seed ^ 0x57E4);
        let dense = FleetSimulation::new(config())
            .with_dynamics(engine_side.clone())
            .try_run_ids(&ue_spec, &ue_ids(n_ues), seed).expect("fleet run");
        let streamed = FleetSimulation::new(config())
            .with_workers(workers)
            .with_chunk_size(chunk)
            .with_dynamics(engine_side)
            .run_streamed(&ue_spec, n_ues, seed)
            .unwrap();
        prop_assert_eq!(&dense.summary, &streamed.summary);
        prop_assert_eq!(dense.summary.hd_sum.to_bits(), streamed.summary.hd_sum.to_bits());
        prop_assert_eq!(&dense.cell_load, &streamed.cell_load);
    }
}
