//! Property tests for the fault-tolerance plane (PR 9):
//!
//! 1. **The headline recovery property**: a supervised run under an
//!    arbitrary recoverable fault schedule — worker panics, forced
//!    allocation failures, over-deadline stalls, at chaos-drawn steps —
//!    is bit-identical to the clean, unsupervised run, for any
//!    worker/chunk shape and any checkpoint cadence. Including the
//!    `f64` bit pattern of the HD checksum.
//! 2. Flipping *any single byte* of a sealed checkpoint yields a typed
//!    [`CheckpointError`] from `try_unseal` — never a silently wrong
//!    restore ("wrong-but-green").
//! 3. Arbitrary invalid configurations (non-finite sigmas, negative
//!    spacings, zero capacities, inverted outage windows, unknown outage
//!    cells, saturated loads, invalid flat tides) surface as
//!    [`FleetError::InvalidConfig`] from every run entry — never a
//!    builder or worker panic or a NaN-poisoned result.
//! 4. Chaining `advance → advance → … → try_resume` at an
//!    arbitrary cadence reproduces the uninterrupted run bit for bit
//!    (the supervisor's segment primitive).
//! 5. A supervisor resumed from a checkpoint restores that checkpoint,
//!    not step 0, when a segment fails before a newer snapshot exists.

use std::sync::Arc;

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::checkpoint::{CheckpointError, FleetCheckpoint};
use fuzzy_handover::sim::fleet::{
    FleetError, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::resilience::{Fault, FaultPlan, RetryPolicy, Supervisor};
use fuzzy_handover::sim::SimConfig;
use proptest::prelude::*;

fn noisy_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn fleet_spec(seed: u64, cell_radius_km: f64) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::standard_four(6)[0],
        policy: PolicyKind::Fuzzy,
        trajectory_seed: seed,
        cell_radius_km,
    }
}

/// A generous policy for chaos runs: every scripted fault may consume a
/// retry, so the budget must exceed the fault count.
fn chaos_policy(cadence: u64) -> RetryPolicy {
    RetryPolicy { checkpoint_cadence: cadence, max_retries: 32, ..RetryPolicy::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1 — the headline: supervised-with-faults ≡ clean, bit
    /// for bit, over arbitrary chaos schedules × worker/chunk shapes ×
    /// cadences.
    #[test]
    fn supervised_run_with_chaos_faults_is_bit_identical_to_clean(
        seed in 0u64..1_000,
        chaos_seed in 0u64..1_000,
        n_faults in 0usize..5,
        workers in 1usize..5,
        chunk in 1usize..7,
        cadence in 1u64..25,
    ) {
        let cfg = noisy_config();
        let spec = fleet_spec(seed, cfg.layout.cell_radius_km());
        let ids: Vec<u64> = (0..10).collect();

        let clean = FleetSimulation::new(cfg.clone())
            .with_workers(workers)
            .with_chunk_size(chunk)
            .try_run_ids(&spec, &ids, seed).expect("fleet run");

        // Horizon 16: these small fleets' walks end around step 17, so a
        // tight horizon keeps most chaos faults *live* rather than
        // scheduled past the end of the run.
        let plan = FaultPlan::chaos(chaos_seed, 16, n_faults);
        let supervised = FleetSimulation::new(cfg)
            .with_workers(workers)
            .with_chunk_size(chunk)
            .with_fault_injection(Arc::new(plan.injector()))
            .run_supervised(&spec, &ids, seed, &chaos_policy(cadence))
            .expect("every chaos fault is recoverable");

        prop_assert_eq!(&clean, &supervised.result);
        prop_assert_eq!(
            clean.summary.hd_sum.to_bits(),
            supervised.result.summary.hd_sum.to_bits(),
            "even the HD checksum's f64 bit pattern survives recovery"
        );
    }

    /// Property 2: every single-byte flip of a sealed checkpoint is
    /// detected as a typed error — wrong-but-green restores are
    /// impossible.
    #[test]
    fn any_flipped_byte_of_a_sealed_checkpoint_is_detected(
        seed in 0u64..1_000,
        cut_step in 1u64..30,
        byte_selector in 0u64..u64::MAX,
    ) {
        let cfg = noisy_config();
        let spec = fleet_spec(seed, cfg.layout.cell_radius_km());
        let ids: Vec<u64> = (0..6).collect();
        let fleet = FleetSimulation::new(cfg).with_workers(2);
        let cp = fleet.advance(&spec, None, &ids, seed, cut_step).expect("partial run");
        let sealed = cp.seal();

        let mut tampered = sealed.clone();
        let idx = (byte_selector % tampered.len() as u64) as usize;
        tampered[idx] ^= 0xFF;
        prop_assert!(
            FleetCheckpoint::try_unseal(&tampered).is_err(),
            "flip at byte {} went undetected", idx
        );
        // The untampered seal still restores.
        prop_assert!(FleetCheckpoint::try_unseal(&sealed).is_ok());
    }

    /// Property 3a: non-finite / non-positive physical quantities are
    /// rejected as typed [`FleetError::InvalidConfig`] values.
    #[test]
    fn invalid_engine_configs_surface_typed_errors(
        bad in prop_oneof![
            Just(f64::NAN), Just(f64::INFINITY), Just(-1.0), Just(0.0)
        ],
        field in 0usize..3,
    ) {
        use fuzzy_handover::sim::matrix::ScenarioMatrix;
        let mut m = ScenarioMatrix::small_default();
        m.ue_counts = vec![2];
        m.mobilities.truncate(1);
        m.speeds_kmh = vec![0.0];
        m.policies.truncate(1);
        match field {
            0 => m.base.sample_spacing_km = bad,
            // sigma 0.0 is legitimately "shadowing off": substitute a
            // negative to keep every generated case invalid.
            1 => m.base.shadowing.sigma_db = if bad == 0.0 { -1.0 } else { bad },
            _ => m.base.radio.tx_power_w = bad,
        }
        prop_assert!(m.base.validated().is_err(), "field {} with {:?}", field, bad);
        // The fallible sweep rejects it as a value, before any worker
        // or engine constructor can panic.
        let err = m.try_run().expect_err("invalid sweep must not run");
        prop_assert!(matches!(err, FleetError::InvalidConfig(_)), "{:?}", err);
    }

    /// Property 3b: invalid traffic and dynamics planes attached
    /// through the (non-panicking) builders are rejected by every run
    /// entry as [`FleetError::InvalidConfig`] (or the session's typed
    /// equivalent) before any worker starts: an inverted outage window,
    /// an outage cell outside the layout, a per-UE load of 1 Erlang, and
    /// an invalid tide that is flat, which normalization must not drop.
    #[test]
    fn invalid_plane_configs_surface_typed_errors(
        from in 0u64..20,
        span in 0u64..3,
        case in 0usize..4,
        with_traffic in prop_oneof![Just(false), Just(true)],
    ) {
        use fuzzy_handover::geometry::Axial;
        use fuzzy_handover::server::{Session, SessionConfig, SessionError};
        use fuzzy_handover::sim::dynamics::{CellOutage, TidalWave};
        use fuzzy_handover::sim::matrix::ScenarioMatrix;
        use fuzzy_handover::sim::{DynamicsConfig, TrafficConfig};

        let outage = |cell, from_step, until_step| DynamicsConfig {
            failures: vec![CellOutage { cell, from_step, until_step }],
            ..DynamicsConfig::none()
        };
        let valid_traffic = with_traffic.then(|| TrafficConfig::erlang(8, 1, 0.2, 10.0));
        let (traffic, dynamics) = match case {
            // Inverted (or empty) window on purpose.
            0 => (valid_traffic, Some(outage(Axial::ORIGIN, from + span, from))),
            1 => (valid_traffic, Some(outage(Axial::new(40, -3), from, from + span + 1))),
            2 => (Some(TrafficConfig::erlang(8, 1, 1.0, 10.0)), None),
            _ => (
                valid_traffic,
                Some(DynamicsConfig {
                    tide: Some(TidalWave { period_steps: 0, amplitude: 0.0, phase_per_q: 0.0 }),
                    ..DynamicsConfig::none()
                }),
            ),
        };

        let cfg = noisy_config();
        let spec = fleet_spec(from, cfg.layout.cell_radius_km());
        let ids: Vec<u64> = (0..4).collect();
        let mut engine = FleetSimulation::new(cfg.clone());
        if let Some(traffic) = traffic {
            engine = engine.with_traffic(traffic);
        }
        if let Some(dynamics) = dynamics.clone() {
            engine = engine.with_dynamics(dynamics);
        }
        let mut m = ScenarioMatrix::small_default();
        m.base = cfg.clone();
        m.ue_counts = vec![2];
        m.mobilities.truncate(1);
        m.speeds_kmh = vec![0.0];
        m.policies.truncate(1);
        m.traffics = vec![traffic];
        m.dynamics = vec![dynamics.clone()];
        for (entry, err) in [
            ("try_run_ids", engine.try_run_ids(&spec, &ids, from).err()),
            ("advance", engine.advance(&spec, None, &ids, from, 3).err()),
            ("run_streamed", engine.run_streamed(&spec, 4, from).err()),
            ("run_supervised", engine.run_supervised(&spec, &ids, from, &chaos_policy(2)).err()),
            ("ScenarioMatrix::try_run", m.try_run().err()),
        ] {
            prop_assert!(matches!(err, Some(FleetError::InvalidConfig(_))), "{}: {:?}", entry, err);
        }

        let session = SessionConfig {
            traffic,
            dynamics,
            ..SessionConfig::new(cfg, spec.mobility, spec.policy, 4, from)
        };
        let err = Session::spawn(session, 1).err();
        prop_assert!(matches!(err, Some(SessionError::InvalidConfig(_))), "spawn: {:?}", err);
    }

    /// Property 4: the supervisor's segment primitive — chained
    /// `advance → advance* → try_resume` at an arbitrary
    /// cadence — reproduces the uninterrupted run bit for bit.
    #[test]
    fn partial_chain_reproduces_the_uninterrupted_run(
        seed in 0u64..1_000,
        cadence in 1u64..20,
        workers in 1usize..4,
    ) {
        let cfg = noisy_config();
        let spec = fleet_spec(seed, cfg.layout.cell_radius_km());
        let ids: Vec<u64> = (0..8).collect();
        let fleet = FleetSimulation::new(cfg).with_workers(workers);

        let reference = fleet.try_run_ids(&spec, &ids, seed).expect("fleet run");

        let mut cp = fleet.advance(&spec, None, &ids, seed, cadence).expect("first segment");
        let mut guard = 0;
        while !cp.live.is_empty() {
            cp = fleet
                .advance(&spec, Some(&cp), &ids, seed, cp.step + cadence)
                .expect("chained segment");
            guard += 1;
            prop_assert!(guard < 10_000, "chain did not converge");
        }
        let chained = fleet.try_resume(&spec, &cp).expect("final assembly");
        prop_assert_eq!(&reference, &chained);
    }
}

/// Truncations (and trailing garbage) are typed, never green.
#[test]
fn truncated_seals_yield_typed_errors() {
    let cfg = noisy_config();
    let spec = fleet_spec(3, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..4).collect();
    let cp = FleetSimulation::new(cfg)
        .advance(&spec, None, &ids, 3, 7)
        .expect("partial");
    let sealed = cp.seal();
    for cut in [0, 1, 12, sealed.len() / 2, sealed.len() - 1] {
        let err = FleetCheckpoint::try_unseal(&sealed[..cut]).expect_err("truncation detected");
        assert!(
            matches!(err, CheckpointError::Truncated { .. } | CheckpointError::BadMagic),
            "cut at {cut}: {err:?}"
        );
    }
    let mut padded = sealed;
    padded.push(0);
    assert!(matches!(
        FleetCheckpoint::try_unseal(&padded),
        Err(CheckpointError::Truncated { .. })
    ));
}

/// More scripted panics than the retry budget: the supervisor gives up
/// with a typed, audit-carrying [`FleetError::RetriesExhausted`].
#[test]
fn retries_exhausted_is_typed_and_deterministic() {
    let cfg = noisy_config();
    let spec = fleet_spec(11, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..6).collect();
    let plan = FaultPlan::scripted(
        (0..6).map(|s| Fault::WorkerPanic { at_step: s }).collect(),
    );
    let policy = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
    let run = |()| {
        FleetSimulation::new(noisy_config())
            .with_workers(2)
            .with_fault_injection(Arc::new(plan.injector()))
            .run_supervised(&spec, &ids, 11, &policy)
    };
    let err = run(()).expect_err("budget exceeded");
    match &err {
        FleetError::RetriesExhausted { attempts, last } => {
            assert_eq!(*attempts, 3, "max_retries + 1 attempts consumed");
            assert!(matches!(**last, FleetError::WorkerPanic(_)), "{last:?}");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(run(()).expect_err("same budget, same outcome"), err);
}

/// Two over-deadline stalls: the supervisor halves the workers
/// (graceful degradation) and the result is still bit-identical —
/// worker-count invariance makes degradation safe.
#[test]
fn repeated_stalls_degrade_workers_without_changing_the_result() {
    let cfg = noisy_config();
    let spec = fleet_spec(5, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..8).collect();
    let clean = FleetSimulation::new(cfg.clone())
        .with_workers(4)
        .try_run_ids(&spec, &ids, 5)
        .expect("fleet run");

    let plan = FaultPlan::scripted(vec![
        Fault::StallWorker { at_step: 1, delay_steps: 500 },
        Fault::StallWorker { at_step: 9, delay_steps: 500 },
    ]);
    let policy = RetryPolicy {
        checkpoint_cadence: 4,
        stall_deadline_steps: 64,
        degrade_after_stalls: 2,
        ..RetryPolicy::default()
    };
    let supervised = FleetSimulation::new(cfg)
        .with_workers(4)
        .with_fault_injection(Arc::new(plan.injector()))
        .run_supervised(&spec, &ids, 5, &policy)
        .expect("stalls are recoverable");

    assert_eq!(supervised.report.stalls, 2);
    assert_eq!(supervised.report.degradations, 1);
    assert_eq!(supervised.report.final_workers, 2, "4 workers halved once");
    assert!(supervised.report.virtual_backoff_steps > 0);
    assert_eq!(clean, supervised.result);
}

/// Scripted snapshot corruption is detected at seal time (write-verify)
/// and the run still finishes bit-identically — a corrupted snapshot is
/// quarantined, never resumed.
#[test]
fn corrupted_snapshots_are_quarantined_and_recovery_still_succeeds() {
    let cfg = noisy_config();
    let spec = fleet_spec(21, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..8).collect();
    let clean = FleetSimulation::new(cfg.clone())
        .with_workers(2)
        .try_run_ids(&spec, &ids, 21)
        .expect("fleet run");

    let plan = FaultPlan::scripted(vec![
        Fault::CorruptCheckpoint { at_snapshot: 0, byte_offset: 45 },
        Fault::WorkerPanic { at_step: 9 },
    ]);
    let policy = RetryPolicy { checkpoint_cadence: 4, ..RetryPolicy::default() };
    let supervised = FleetSimulation::new(cfg)
        .with_workers(2)
        .with_fault_injection(Arc::new(plan.injector()))
        .run_supervised(&spec, &ids, 21, &policy)
        .expect("corruption plus a panic is still recoverable");

    assert!(supervised.report.corrupt_snapshots_detected >= 1);
    assert_eq!(supervised.report.worker_panics, 1);
    assert_eq!(clean, supervised.result);
}

/// The traffic plane (with its load-feedback second pass) recovers too:
/// a panic that fires during the feedback rerun retries the final
/// assembly, which is a pure function of the traces.
#[test]
fn supervised_recovery_with_traffic_feedback_plane() {
    use fuzzy_handover::sim::TrafficConfig;
    let traffic = TrafficConfig {
        channels_per_cell: 2,
        guard_channels: 0,
        mean_idle_steps: 4.0,
        mean_holding_steps: 6.0,
        load_feedback: true,
    };
    let cfg = noisy_config();
    let spec = fleet_spec(33, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..8).collect();
    let clean = FleetSimulation::new(cfg.clone())
        .with_workers(2)
        .with_traffic(traffic)
        .try_run_ids(&spec, &ids, 33)
        .expect("fleet run");

    let plan = FaultPlan::chaos(99, 16, 3);
    let supervised = FleetSimulation::new(cfg)
        .with_workers(2)
        .with_traffic(traffic)
        .with_fault_injection(Arc::new(plan.injector()))
        .run_supervised(&spec, &ids, 33, &chaos_policy(8))
        .expect("traffic-plane chaos is recoverable");

    assert_eq!(clean, supervised.result);
    assert_eq!(
        clean.traffic, supervised.result.traffic,
        "the traffic report survives recovery byte for byte"
    );
}

/// A supervisor resumed from a checkpoint falls back to that checkpoint
/// — not to step 0 — when its first segment fails before any newer
/// snapshot exists, so a policy swapped in at the checkpoint survives
/// the failure: the result equals `advance(A) → try_resume(B)`.
#[test]
fn resumed_supervisor_restores_its_starting_snapshot_after_a_failure() {
    let cfg = noisy_config();
    let fuzzy = fleet_spec(17, cfg.layout.cell_radius_km());
    let hysteresis =
        HomogeneousFleet { policy: PolicyKind::Hysteresis { margin_db: 4.0 }, ..fuzzy };
    let ids: Vec<u64> = (0..40).collect();
    let engine = FleetSimulation::new(cfg).with_workers(2);
    let cp = engine.advance(&fuzzy, None, &ids, 17, 10).expect("partial run");
    let swapped = engine.try_resume(&hysteresis, &cp).expect("resume under the new policy");
    let all_hysteresis = engine.try_run_ids(&hysteresis, &ids, 17).expect("fleet run");
    assert_ne!(swapped, all_hysteresis, "the swap must be visible in the result");

    let plan = FaultPlan::scripted(vec![Fault::WorkerPanic { at_step: 12 }]);
    let faulty = engine.with_fault_injection(Arc::new(plan.injector()));
    let mut supervisor =
        Supervisor::from_checkpoint(faulty, RetryPolicy::default(), cp).expect("valid snapshot");
    let result = supervisor.finish(&hysteresis, &ids, 17).expect("one panic is recoverable");
    assert_eq!(supervisor.report().worker_panics, 1, "the scripted panic fired");
    assert_eq!(result, swapped);
}
