//! Property tests for the fleet engine's determinism contracts:
//!
//! 1. a 1-UE fleet is bit-identical to `Simulation::run` for arbitrary
//!    seeds and configurations;
//! 2. fleet results are invariant under worker count and chunk size;
//! 3. fleet results are invariant under UE submission order;
//! 4. the neighbour-pruned candidate mode with `k ≥ layout.len()` is
//!    bit-identical to the dense mode, and below that bound it is itself
//!    invariant under worker count and chunk size;
//! 5. the scenario matrix reports identical cells, in identical sweep
//!    order, for every `matrix_workers` value;
//! 6. an `advance` snapshot at an arbitrary step, taken and resumed
//!    under arbitrary worker/chunk shapes, reproduces the uninterrupted
//!    run bit for bit;
//! 7. the streaming aggregation path reproduces the dense run's summary
//!    and load histogram bit for bit;
//! 8. `EdgeSet` with an infinite margin is bit-identical to `Nearest`
//!    with the same `k`, and finite margins stay shard-invariant.

use fuzzy_handover::core::HandoverPolicy;
use fuzzy_handover::mobility::{MobilityModel, RandomWalk};
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind, SingleUe,
    UeOutcome,
};
use fuzzy_handover::sim::matrix::ScenarioMatrix;
use fuzzy_handover::sim::{SimConfig, Simulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The UE ids `0..n`.
fn ue_ids(n: u64) -> Vec<u64> {
    (0..n).collect()
}

fn config(shadow_sigma: f64, noise_sigma: f64, spacing: f64, speed: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: shadow_sigma, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(noise_sigma);
    cfg.sample_spacing_km = spacing;
    cfg.speed_kmh = speed;
    cfg
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Fuzzy),
        Just(PolicyKind::FuzzyLut),
        Just(PolicyKind::Hysteresis { margin_db: 2.0 }),
        Just(PolicyKind::Threshold { threshold_dbm: -95.0 }),
        Just(PolicyKind::HysteresisThreshold { threshold_dbm: -90.0, margin_db: 3.0 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 1: with UE 0 seeded exactly like a single run, the
    /// reduced fleet outcome equals the reduced `Simulation::run` result
    /// field by field — including the bit pattern of the `f64` HD
    /// checksum.
    #[test]
    fn one_ue_fleet_equals_single_run(
        seed in 0u64..u64::MAX,
        traj_seed in 0u64..u64::MAX,
        shadow_sigma in 0.0f64..8.0,
        noise_sigma in 0.0f64..4.0,
        spacing in 0.1f64..0.8,
        speed in 0.0f64..80.0,
        policy in policy_strategy(),
    ) {
        let cfg = config(shadow_sigma, noise_sigma, spacing, speed);
        let walk = RandomWalk::paper_default(6)
            .generate(&mut StdRng::seed_from_u64(traj_seed));
        let spec = SingleUe {
            trajectory: walk.clone(),
            make_policy: move || -> Box<dyn HandoverPolicy + Send> { policy.build(2.0) },
        };

        let fleet_outcome = FleetSimulation::new(cfg.clone())
            .try_run_ids(&spec, &ue_ids(1), seed)
            .expect("fleet run");
        let mut reference_policy = policy.build(2.0);
        let reference = Simulation::new(cfg.clone())
            .run(&walk, reference_policy.as_mut(), seed);
        let expected =
            UeOutcome::from_sim_result(0, &reference, cfg.pingpong_window_steps);

        prop_assert_eq!(fleet_outcome.outcomes.len(), 1);
        prop_assert_eq!(fleet_outcome.outcomes[0], expected);
        prop_assert_eq!(
            fleet_outcome.outcomes[0].hd_sum.to_bits(),
            expected.hd_sum.to_bits()
        );
        prop_assert_eq!(
            fleet_outcome.outcomes[0].travelled_km.to_bits(),
            expected.travelled_km.to_bits()
        );
    }

    /// Contract 2: worker count and chunk size never change the result.
    #[test]
    fn fleet_invariant_under_workers_and_chunks(
        seed in 0u64..u64::MAX,
        n_ues in 1u64..32,
        workers in 1usize..9,
        chunk in 1usize..65,
        shadow_sigma in 0.0f64..6.0,
        policy in policy_strategy(),
    ) {
        let cfg = config(shadow_sigma, 1.0, 0.3, 0.0);
        let spec = HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(5)),
            policy,
            trajectory_seed: seed ^ 0xABCD,
            cell_radius_km: 2.0,
        };
        let reference = FleetSimulation::new(cfg.clone())
            .try_run_ids(&spec, &ue_ids(n_ues), seed)
            .expect("fleet run");
        let sharded = FleetSimulation::new(cfg)
            .with_workers(workers)
            .with_chunk_size(chunk)
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        prop_assert_eq!(reference, sharded);
    }

    /// Contract 3: any permutation of the UE id list produces the same
    /// `FleetResult`.
    #[test]
    fn fleet_invariant_under_submission_order(
        seed in 0u64..u64::MAX,
        n_ues in 2u64..24,
        rotation in 0usize..24,
        swap_a in 0usize..24,
        swap_b in 0usize..24,
    ) {
        let cfg = config(3.0, 1.0, 0.3, 0.0);
        let spec = HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(5)),
            policy: PolicyKind::Fuzzy,
            trajectory_seed: seed.wrapping_add(17),
            cell_radius_km: 2.0,
        };
        let fleet = FleetSimulation::new(cfg).with_workers(3).with_chunk_size(4);

        let forward: Vec<u64> = (0..n_ues).collect();
        let mut permuted = forward.clone();
        let len = permuted.len();
        permuted.rotate_left(rotation % len);
        let (a, b) = (swap_a % len, swap_b % len);
        permuted.swap(a, b);
        permuted.reverse();

        prop_assert_eq!(
            fleet.try_run_ids(&spec, &forward, seed).expect("fleet run"),
            fleet.try_run_ids(&spec, &permuted, seed).expect("fleet run")
        );
    }

    /// Contract 4: `Nearest(k)` with `k` covering the layout takes the
    /// dense path (bit-identical to `All`); a genuinely pruned `k` is
    /// still invariant under sharding.
    #[test]
    fn pruned_mode_equivalence_and_sharding_invariance(
        seed in 0u64..u64::MAX,
        n_ues in 1u64..20,
        k_extra in 0usize..4,
        pruned_k in 7usize..12,
        workers in 1usize..6,
        chunk in 1usize..33,
        policy in policy_strategy(),
    ) {
        let cfg = config(4.0, 1.0, 0.3, 0.0);
        let n_cells = cfg.layout.len();
        let spec = HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(5)),
            policy,
            trajectory_seed: seed ^ 0x5EED,
            cell_radius_km: 2.0,
        };
        // k ≥ layout.len() ⇒ the dense path, bit for bit.
        let dense = FleetSimulation::new(cfg.clone())
            .try_run_ids(&spec, &ue_ids(n_ues), seed)
            .expect("fleet run");
        let covering = FleetSimulation::new(cfg.clone())
            .with_candidate_mode(CandidateMode::Nearest(n_cells + k_extra))
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        prop_assert_eq!(&dense, &covering);
        // A real pruned k: deterministic and shard-invariant.
        let pruned_ref = FleetSimulation::new(cfg.clone())
            .with_candidate_mode(CandidateMode::Nearest(pruned_k))
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        let pruned_sharded = FleetSimulation::new(cfg)
            .with_candidate_mode(CandidateMode::Nearest(pruned_k))
            .with_workers(workers)
            .with_chunk_size(chunk)
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        prop_assert_eq!(&pruned_ref, &pruned_sharded);
        // Every UE still steps its full walk under pruning.
        prop_assert_eq!(pruned_ref.summary.steps, dense.summary.steps);
    }

    /// Contract 5: the scenario-matrix report (cells *and* their sweep
    /// order) is independent of `matrix_workers`.
    #[test]
    fn matrix_report_order_is_invariant_under_matrix_workers(
        seed in 0u64..u64::MAX,
        matrix_workers in 2usize..9,
        candidate_mode in prop_oneof![
            Just(CandidateMode::All),
            Just(CandidateMode::Nearest(7)),
        ],
    ) {
        let mut base = SimConfig::paper_default();
        base.shadowing = ShadowingConfig { sigma_db: 3.0, decorrelation_km: 0.05 };
        base.noise = MeasurementNoise::new(1.0);
        let matrix = ScenarioMatrix {
            base,
            ue_counts: vec![4],
            mobilities: FleetMobility::standard_four(4),
            speeds_kmh: vec![0.0, 40.0],
            policies: vec![PolicyKind::Fuzzy, PolicyKind::Hysteresis { margin_db: 4.0 }],
            traffics: vec![None],
            dynamics: vec![None],
            base_seed: seed,
            workers: 1,
            matrix_workers: 1,
            candidate_mode,
        };
        let sequential = matrix.try_run().expect("sequential sweep");
        let parallel =
            ScenarioMatrix { matrix_workers, ..matrix }.try_run().expect("parallel sweep");
        prop_assert_eq!(&sequential, &parallel);
        let labels: Vec<String> = sequential.cells.iter().map(|c| c.label()).collect();
        prop_assert_eq!(labels.len(), 16);
        prop_assert!(labels[0].contains("random-walk"));
        prop_assert!(labels[0].contains("fuzzy"));
        prop_assert!(labels[1].contains("hysteresis"));
    }

    /// Contract 6: freeze at an arbitrary step under one worker/chunk
    /// shape, resume under another — the reassembled result is
    /// bit-identical to the uninterrupted run.
    #[test]
    fn snapshot_resume_is_bit_identical(
        seed in 0u64..u64::MAX,
        n_ues in 1u64..20,
        snap_step in 0u64..48,
        workers_a in 1usize..6,
        chunk_a in 1usize..33,
        workers_b in 1usize..6,
        chunk_b in 1usize..33,
        policy in policy_strategy(),
    ) {
        let cfg = config(4.0, 1.0, 0.3, 0.0);
        let spec = HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(5)),
            policy,
            trajectory_seed: seed ^ 0xCAFE,
            cell_radius_km: 2.0,
        };
        let ids: Vec<u64> = (0..n_ues).collect();
        let full = FleetSimulation::new(cfg.clone())
            .try_run_ids(&spec, &ids, seed)
            .expect("fleet run");
        let cp = FleetSimulation::new(cfg.clone())
            .with_workers(workers_a)
            .with_chunk_size(chunk_a)
            .advance(&spec, None, &ids, seed, snap_step)
            .unwrap();
        let resumed = FleetSimulation::new(cfg)
            .with_workers(workers_b)
            .with_chunk_size(chunk_b)
            .try_resume(&spec, &cp)
            .unwrap();
        prop_assert_eq!(&full, &resumed);
        for (a, b) in full.outcomes.iter().zip(&resumed.outcomes) {
            prop_assert_eq!(a.hd_sum.to_bits(), b.hd_sum.to_bits());
            prop_assert_eq!(a.travelled_km.to_bits(), b.travelled_km.to_bits());
        }
    }

    /// Contract 7: the streaming aggregator — which never materialises
    /// the per-UE outcome vector — reproduces the dense run's summary
    /// and serving-load histogram bit for bit under any sharding.
    #[test]
    fn streamed_summary_equals_dense_run(
        seed in 0u64..u64::MAX,
        n_ues in 1u64..32,
        workers in 1usize..6,
        chunk in 1usize..33,
        policy in policy_strategy(),
    ) {
        let cfg = config(3.0, 1.0, 0.3, 0.0);
        let spec = HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(5)),
            policy,
            trajectory_seed: seed ^ 0xF00D,
            cell_radius_km: 2.0,
        };
        let dense = FleetSimulation::new(cfg.clone())
            .try_run_ids(&spec, &ue_ids(n_ues), seed)
            .expect("fleet run");
        let streamed = FleetSimulation::new(cfg)
            .with_workers(workers)
            .with_chunk_size(chunk)
            .run_streamed(&spec, n_ues, seed)
            .unwrap();
        prop_assert_eq!(&dense.summary, &streamed.summary);
        prop_assert_eq!(
            dense.summary.hd_sum.to_bits(),
            streamed.summary.hd_sum.to_bits()
        );
        prop_assert_eq!(&dense.cell_load, &streamed.cell_load);
    }

    /// Contract 8: an infinite edge margin disables the interior fast
    /// path, so `EdgeSet { k, ∞ }` equals `Nearest(k)` bit for bit; a
    /// finite margin remains invariant under sharding.
    #[test]
    fn edge_set_refines_nearest(
        seed in 0u64..u64::MAX,
        n_ues in 1u64..16,
        k in 7usize..12,
        margin_db in 1.0f64..10.0,
        workers in 1usize..6,
        chunk in 1usize..33,
        policy in policy_strategy(),
    ) {
        let cfg = config(4.0, 1.0, 0.3, 0.0);
        let spec = HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(5)),
            policy,
            trajectory_seed: seed ^ 0xED6E,
            cell_radius_km: 2.0,
        };
        let nearest = FleetSimulation::new(cfg.clone())
            .with_candidate_mode(CandidateMode::Nearest(k))
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        let unbounded = FleetSimulation::new(cfg.clone())
            .with_candidate_mode(CandidateMode::EdgeSet { k, margin_db: f64::INFINITY })
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        prop_assert_eq!(&nearest, &unbounded);
        let finite_ref = FleetSimulation::new(cfg.clone())
            .with_candidate_mode(CandidateMode::EdgeSet { k, margin_db })
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        let finite_sharded = FleetSimulation::new(cfg)
            .with_candidate_mode(CandidateMode::EdgeSet { k, margin_db })
            .with_workers(workers)
            .with_chunk_size(chunk)
            .try_run_ids(&spec, &ue_ids(n_ues), seed).expect("fleet run");
        prop_assert_eq!(&finite_ref, &finite_sharded);
        prop_assert_eq!(finite_ref.summary.steps, nearest.summary.steps);
    }
}
