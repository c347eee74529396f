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
//!    cells, saturated loads, invalid flat tides, layouts with fewer
//!    than two cells, a repeated cell or a non-positive radius, runaway
//!    or zero-width smoothers) surface as
//!    [`FleetError::InvalidConfig`] from every run entry — never a
//!    builder or worker panic or a NaN-poisoned result. So do population
//!    defects (negative margins, zero walks, empty waypoint boxes, walks
//!    that could reach past `MAX_MOBILITY_EXTENT_KM`) in a scenario-matrix
//!    cell and at `Session::spawn`.
//! 4. Chaining `advance → advance → … → try_resume` at an
//!    arbitrary cadence reproduces the uninterrupted run bit for bit
//!    (the supervisor's segment primitive).
//! 5. A supervisor resumed from a checkpoint restores that checkpoint,
//!    not step 0, when a segment fails before a newer snapshot exists,
//!    and the restore counts.
//! 6. After a run gives up, the supervisor holds the newest snapshot
//!    that still verifies, and finishing it reproduces the clean run.
//! 7. Each supervisor call has its own retry budget: failures spread
//!    over more calls than one budget allows still recover.
//! 8. Write-verify (header and checksum only) catches every header
//!    byte flip and payload flips at both ends and in the middle, and a
//!    restore from a seal goes through the full decode.

use std::sync::Arc;

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::checkpoint::{CheckpointError, FleetCheckpoint};
use fuzzy_handover::core::HandoverPolicy;
use fuzzy_handover::mobility::Trajectory;
use fuzzy_handover::sim::fleet::{
    FleetError, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind, UeSpec,
};
use fuzzy_handover::sim::resilience::{
    validate_planes, ConfigError, Fault, FaultPlan, RetryPolicy, Supervisor, SupervisorReport,
};
use fuzzy_handover::sim::{DynamicsConfig, SimConfig, TrafficConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// Measurement-plane defects a config file or a wire peer can supply
/// past the builders, each with the error `validate_planes` reports:
/// layouts deserialized around `CellLayout::from_cells` (no cell, one
/// cell, a cell listed twice, a zero or negative radius), an EWMA whose
/// filter overflows to infinity, and a window that never drops a
/// sample.
fn invalid_sim_configs() -> Vec<(SimConfig, ConfigError)> {
    use fuzzy_handover::geometry::{Axial, CellLayout};
    use fuzzy_handover::radio::RssiSmoother;
    use std::collections::VecDeque;

    let layout = |radius: f64, cells: &[(i32, i32)]| -> CellLayout {
        let cells: Vec<String> =
            cells.iter().map(|(q, r)| format!(r#"{{"q":{q},"r":{r}}}"#)).collect();
        let json =
            format!(r#"{{"grid":{{"circumradius":{radius:?}}},"cells":[{}]}}"#, cells.join(","));
        serde_json::from_str(&json).expect("layout JSON")
    };
    let three = [(0, 0), (1, 0), (0, 1)];
    // The helper builds exactly the layout the checked builder would.
    let valid = CellLayout::from_cells(2.0, three.map(|(q, r)| Axial::new(q, r)));
    assert_eq!(layout(2.0, &three), valid);
    let too_few = |got| ConfigError::TooSmall { field: "layout cell count", minimum: 2, got };
    let radius = |value| ConfigError::NonPositive { field: "cell radius", value };
    let layouts = [
        (layout(2.0, &[]), too_few(0)),
        (layout(2.0, &[(0, 0)]), too_few(1)),
        (
            layout(2.0, &[(0, 0), (1, 0), (0, 0)]),
            ConfigError::DuplicateCell { cell: Axial::ORIGIN },
        ),
        (layout(0.0, &three), radius(0.0)),
        (layout(-1.0, &three), radius(-1.0)),
    ];
    let alpha = 1e300;
    let smoothers = [
        (
            RssiSmoother::Ewma { alpha, state: None },
            ConfigError::OutOfRange { field: "EWMA alpha", value: alpha, lo: 0.0, hi: 1.0 },
        ),
        (
            RssiSmoother::Window { capacity: 0, buf: VecDeque::new() },
            ConfigError::TooSmall { field: "smoothing window capacity", minimum: 1, got: 0 },
        ),
    ];
    let layouts =
        layouts.into_iter().map(|(layout, err)| (SimConfig { layout, ..noisy_config() }, err));
    let smoothers = smoothers
        .into_iter()
        .map(|(smoothing, err)| (SimConfig { smoothing, ..noisy_config() }, err));
    layouts.chain(smoothers).collect()
}

/// `validate_planes` names each defect of [`invalid_sim_configs`].
#[test]
fn invalid_sim_configs_name_their_defect() {
    for (cfg, expected) in invalid_sim_configs() {
        assert_eq!(validate_planes(&cfg, None, None), Err(expected));
    }
}

/// Population defects a config file or a wire peer can supply, each with
/// the error [`HomogeneousFleet::validated`] reports. Unchecked, each
/// one panics inside a fleet worker.
fn invalid_populations() -> Vec<(FleetMobility, PolicyKind, ConfigError)> {
    use fuzzy_handover::geometry::Vec2;
    use fuzzy_handover::mobility::{GaussMarkov, ManhattanGrid, RandomWalk, RandomWaypoint};
    use fuzzy_handover::sim::fleet::MAX_MOBILITY_EXTENT_KM;

    let walk = FleetMobility::standard_four(6)[0];
    let hysteresis = PolicyKind::Hysteresis { margin_db: -1.0 };
    let load = PolicyKind::LoadHysteresis { margin_db: 1.0, load_bias_db: -1.0 };
    let mut empty_box = RandomWaypoint::centered(2.0, 6);
    empty_box.max.x = empty_box.min.x;
    let gauss_markov = GaussMarkov { alpha: f64::NAN, ..GaussMarkov::vehicular(6) };
    let negative = |field, value| ConfigError::Negative { field, value };
    // Finite but huge parameters: each model's worst-case extent passes
    // MAX_MOBILITY_EXTENT_KM (the first three overflow to non-finite
    // waypoints unchecked).
    let too_far = |value| ConfigError::OutOfRange {
        field: "mobility worst-case extent (km)",
        value,
        lo: 0.0,
        hi: MAX_MOBILITY_EXTENT_KM,
    };
    let huge_walk =
        RandomWalk { step_mean_km: 1e308, step_std_km: 0.0, ..RandomWalk::paper_default(10) };
    let huge_gm =
        GaussMarkov { mean_step_km: 1e300, step_std_km: 0.0, ..GaussMarkov::vehicular(6) };
    let huge_grid = ManhattanGrid { block_km: 1e300, ..ManhattanGrid::downtown(6) };
    let mut huge_box = RandomWaypoint::centered(2.0, 6);
    huge_box.max.x = 3e6;
    vec![
        (walk, hysteresis, negative("hysteresis margin", -1.0)),
        (walk, load, negative("load bias", -1.0)),
        (
            FleetMobility::RandomWalk(RandomWalk::paper_default(0)),
            PolicyKind::Fuzzy,
            ConfigError::TooSmall { field: "random-walk walk count", minimum: 1, got: 0 },
        ),
        (
            FleetMobility::Waypoint(empty_box),
            PolicyKind::Fuzzy,
            ConfigError::NonPositive { field: "waypoint box width", value: 0.0 },
        ),
        (
            FleetMobility::GaussMarkov(gauss_markov),
            PolicyKind::Fuzzy,
            ConfigError::OutOfRange {
                field: "Gauss-Markov alpha",
                value: f64::NAN,
                lo: 0.0,
                hi: 1.0,
            },
        ),
        (FleetMobility::RandomWalk(huge_walk), PolicyKind::Fuzzy, too_far(f64::INFINITY)),
        (FleetMobility::GaussMarkov(huge_gm), PolicyKind::Fuzzy, too_far(6.0 * 1e300)),
        (FleetMobility::Manhattan(huge_grid), PolicyKind::Fuzzy, too_far(6.0 * 1e300)),
        (FleetMobility::Waypoint(huge_box), PolicyKind::Fuzzy, too_far(Vec2::new(3e6, 2.0).norm())),
    ]
}

/// A scenario-matrix cell and `Session::spawn` refuse each population
/// defect as a typed config error, where the unchecked population
/// panicked in a worker.
#[test]
fn matrix_cells_refuse_invalid_populations() {
    use fuzzy_handover::server::{Session, SessionConfig, SessionError};
    use fuzzy_handover::sim::matrix::ScenarioMatrix;

    for (mobility, policy, expected) in invalid_populations() {
        let spec = HomogeneousFleet { mobility, policy, ..fleet_spec(1, 2.0) };
        // Debug-compare: a NaN payload is not equal to itself.
        assert_eq!(format!("{:?}", spec.validated()), format!("{:?}", Err::<(), _>(&expected)));
        let mut m = ScenarioMatrix::small_default();
        m.ue_counts = vec![2];
        m.mobilities = vec![mobility];
        m.speeds_kmh = vec![0.0];
        m.policies = vec![policy];
        match m.try_run() {
            Err(FleetError::InvalidConfig(err)) => {
                assert_eq!(format!("{err:?}"), format!("{expected:?}"));
            }
            other => panic!("{mobility:?} / {policy:?}: expected a config error, got {other:?}"),
        }
        match Session::spawn(SessionConfig::new(noisy_config(), mobility, policy, 2, 1), 1) {
            Err(SessionError::InvalidConfig(err)) => {
                assert_eq!(format!("{err:?}"), format!("{expected:?}"));
            }
            other => panic!("{mobility:?} / {policy:?}: spawn gave {:?}", other.err()),
        }
    }
}

/// Every fleet run entry, a scenario-matrix cell and `Session::spawn`
/// reject `cfg` with these planes as a typed config error before any
/// worker starts.
fn every_entry_rejects(
    cfg: &SimConfig,
    traffic: Option<TrafficConfig>,
    dynamics: Option<DynamicsConfig>,
    seed: u64,
) -> Result<(), TestCaseError> {
    use fuzzy_handover::server::{Session, SessionConfig, SessionError};
    use fuzzy_handover::sim::matrix::ScenarioMatrix;

    let spec = fleet_spec(seed, cfg.layout.cell_radius_km());
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
        ("try_run_ids", engine.try_run_ids(&spec, &ids, seed).err()),
        ("advance", engine.advance(&spec, None, &ids, seed, 3).err()),
        ("run_streamed", engine.run_streamed(&spec, 4, seed).err()),
        ("run_supervised", engine.run_supervised(&spec, &ids, seed, &chaos_policy(2)).err()),
        ("ScenarioMatrix::try_run", m.try_run().err()),
    ] {
        prop_assert!(matches!(err, Some(FleetError::InvalidConfig(_))), "{}: {:?}", entry, err);
    }

    let session = SessionConfig {
        traffic,
        dynamics,
        ..SessionConfig::new(cfg.clone(), spec.mobility, spec.policy, 4, seed)
    };
    let err = Session::spawn(session, 1).err();
    prop_assert!(matches!(err, Some(SessionError::InvalidConfig(_))), "spawn: {:?}", err);
    Ok(())
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
    /// rejected as typed [`FleetError::InvalidConfig`] values — by a
    /// sweep, and by every run entry of an engine built directly with
    /// `FleetSimulation::new`, which takes any `SimConfig` without a
    /// panic.
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
        every_entry_rejects(&m.base, None, None, field as u64)?;
    }

    /// Property 3b: invalid traffic and dynamics planes attached
    /// through the (non-panicking) builders are rejected by every run
    /// entry as [`FleetError::InvalidConfig`] (or the session's typed
    /// equivalent) before any worker starts: an inverted outage window,
    /// an outage cell outside the layout, a per-UE load of 1 Erlang, and
    /// an invalid tide that is flat, which normalization must not drop.
    /// So are the measurement-plane defects of [`invalid_sim_configs`].
    #[test]
    fn invalid_plane_configs_surface_typed_errors(
        from in 0u64..20,
        span in 0u64..3,
        case in 0usize..4,
        with_traffic in prop_oneof![Just(false), Just(true)],
    ) {
        use fuzzy_handover::geometry::Axial;
        use fuzzy_handover::sim::dynamics::{CellOutage, TidalWave};

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
        every_entry_rejects(&noisy_config(), traffic, dynamics, from)?;
        for (cfg, _) in invalid_sim_configs() {
            every_entry_rejects(&cfg, valid_traffic, None, from)?;
        }
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
            let bound = cp.step + cadence;
            cp = fleet.advance(&spec, Some(cp), &ids, seed, bound).expect("chained segment");
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
/// with a typed, audit-carrying [`FleetError::RetriesExhausted`]. Each
/// attempt's two workers race for two one-shot panics and finish in
/// either order; the engine reports the one at the lower lockstep step, so
/// the error names step 4 on every run.
#[test]
fn retries_exhausted_is_typed_and_deterministic() {
    let cfg = noisy_config();
    let spec = fleet_spec(11, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..6).collect();
    let plan = FaultPlan::scripted(
        (0..6).map(|s| Fault::WorkerPanic { at_step: s }).collect(),
    );
    let policy = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
    let run = || {
        FleetSimulation::new(noisy_config())
            .with_workers(2)
            .with_fault_injection(Arc::new(plan.injector()))
            .run_supervised(&spec, &ids, 11, &policy)
    };
    let err = run().expect_err("budget exceeded");
    match &err {
        FleetError::RetriesExhausted { attempts, last } => {
            assert_eq!(*attempts, 3, "max_retries + 1 attempts consumed");
            assert_eq!(
                **last,
                FleetError::WorkerPanic("injected fault: worker panic at step 4".into())
            );
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    for rerun in 0..20 {
        assert_eq!(run().expect_err("same budget, same outcome"), err, "rerun {rerun}");
    }
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
/// the failure: the result equals `advance(A) → try_resume(B)`. The
/// restore counts, and the failed segment hands the starting snapshot
/// back unchanged.
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

    let panic_at_12 = || {
        let plan = FaultPlan::scripted(vec![Fault::WorkerPanic { at_step: 12 }]);
        engine.clone().with_fault_injection(Arc::new(plan.injector()))
    };
    let resume = |policy| {
        let report = SupervisorReport::default();
        Supervisor::resume(panic_at_12(), policy, Some(cp.clone()), report)
            .expect("valid snapshot")
    };
    let mut supervisor = resume(RetryPolicy::default());
    let result = supervisor.finish(&hysteresis, &ids, 17).expect("one panic is recoverable");
    assert_eq!(supervisor.report().worker_panics, 1, "the scripted panic fired");
    assert_eq!(supervisor.report().restores, 1, "the retry resumed from a snapshot");
    assert_eq!(result, swapped);

    // Stop right after the failed first segment: no snapshot was taken,
    // so the one the supervisor holds is its starting snapshot.
    let mut supervisor = resume(RetryPolicy { max_retries: 0, ..RetryPolicy::default() });
    let err = supervisor.finish(&hysteresis, &ids, 17).expect_err("no retry budget");
    assert!(matches!(err, FleetError::RetriesExhausted { attempts: 1, .. }), "{err:?}");
    assert_eq!(supervisor.report().snapshots_taken, 0);
    let held = supervisor.checkpoint().expect("the starting snapshot is restored");
    assert_eq!(held.seal(), cp.seal());
}

/// A run that gives up leaves the supervisor on the newest snapshot
/// that still verifies — after a plain `RetriesExhausted`, and after a
/// corrupted seal that quarantined the newest snapshot first — and
/// finishing that snapshot reproduces the clean run.
#[test]
fn exhausted_supervisor_holds_the_newest_verified_snapshot() {
    let cfg = noisy_config();
    let spec = fleet_spec(23, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..10).collect();
    // One worker: a panic ends the attempt before a later step runs.
    let clean = FleetSimulation::new(cfg.clone());
    let reference = clean.try_run_ids(&spec, &ids, 23).expect("fleet run");
    let at_4 = clean.advance(&spec, None, &ids, 23, 4).expect("segment to 4");
    let at_8 = clean.advance(&spec, Some(at_4.clone()), &ids, 23, 8).expect("segment to 8");
    assert!(!at_8.live.is_empty(), "the walks outlast the failing segment");
    // Segments end at steps 4, 8 and 12. With one retry, the segment
    // to 8 panics once and retries from step 4, then the segment to 12
    // panics at step 9 and the run gives up on step 8. With none, and
    // the step-8 seal corrupted, the segment to 12 panics at step 9
    // and the run gives up on step 4, the newest seal that verifies.
    let panic_8 = Fault::WorkerPanic { at_step: 8 };
    let panic_9 = Fault::WorkerPanic { at_step: 9 };
    let corrupt_8 = Fault::CorruptCheckpoint { at_snapshot: 1, byte_offset: 40 };
    for (faults, max_retries, newest, restores, corrupt) in [
        (vec![panic_8, panic_9], 1, &at_8, 1, 0),
        (vec![corrupt_8, panic_9], 0, &at_4, 0, 1),
    ] {
        let plan = FaultPlan::scripted(faults.clone());
        let faulty = clean.clone().with_fault_injection(Arc::new(plan.injector()));
        let policy = RetryPolicy { checkpoint_cadence: 4, max_retries, ..RetryPolicy::default() };
        let mut supervisor = Supervisor::new(faulty, policy).expect("valid policy");
        let err = supervisor.finish(&spec, &ids, 23).expect_err("the retry budget runs out");
        let attempts = max_retries + 1;
        assert!(
            matches!(err, FleetError::RetriesExhausted { attempts: a, .. } if a == attempts),
            "{faults:?}: {err:?}"
        );
        assert_eq!(supervisor.report().restores, restores, "{faults:?}");
        assert_eq!(supervisor.report().corrupt_snapshots_detected, corrupt, "{faults:?}");
        let held = supervisor.checkpoint().expect("a verified snapshot is held");
        assert_eq!(held.seal(), newest.seal(), "{faults:?}");
        assert_eq!(clean.try_resume(&spec, held).expect("finish"), reference, "{faults:?}");
    }
}

/// The offsets a detection sweep flips in a sealed container of
/// `sealed_len` bytes: every header byte (magic, version, length,
/// checksum), then the first, middle and last payload byte.
fn sweep_offsets(sealed_len: usize) -> Vec<u64> {
    const HEADER: u64 = 28;
    let len = sealed_len as u64;
    assert!(len > HEADER + 2, "a snapshot has a payload");
    (0..HEADER).chain([HEADER, HEADER + (len - HEADER) / 2, len - 1]).collect()
}

/// Write-verify reads only the header and the checksum, yet it detects
/// every header byte flip and payload flips at both ends and in the
/// middle. Segments end at steps 4, 8 and 12 and a panic fires at step
/// 9. With snapshot 0 (step 4) corrupted, the run quarantines it,
/// recovers from the step-8 snapshot and finishes on the clean result.
/// With snapshot 1 (step 8) corrupted at the same offset and no retry
/// budget, the failure restores the step-4 seal through the full decode
/// (`FleetCheckpoint::try_unseal`), so the supervisor is left holding
/// exactly that snapshot, and finishing it gives the clean result.
#[test]
fn write_verify_detects_header_and_payload_flips_and_restores_by_full_decode() {
    let cfg = noisy_config();
    let spec = fleet_spec(23, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..10).collect();
    let clean = FleetSimulation::new(cfg);
    let reference = clean.try_run_ids(&spec, &ids, 23).expect("fleet run");
    let at_4 = clean.advance(&spec, None, &ids, 23, 4).expect("segment to 4");
    let at_8 = clean.advance(&spec, Some(at_4.clone()), &ids, 23, 8).expect("segment to 8");
    assert!(!at_8.live.is_empty(), "the walks outlast the panic");
    let supervise = |faults: Vec<Fault>, max_retries: u32| {
        let plan = FaultPlan::scripted(faults);
        let faulty = clean.clone().with_fault_injection(Arc::new(plan.injector()));
        let policy = RetryPolicy { checkpoint_cadence: 4, max_retries, ..RetryPolicy::default() };
        Supervisor::new(faulty, policy).expect("valid policy")
    };
    let panic_9 = Fault::WorkerPanic { at_step: 9 };
    for byte_offset in sweep_offsets(at_4.seal().len()) {
        let corrupt = Fault::CorruptCheckpoint { at_snapshot: 0, byte_offset };
        let mut supervisor = supervise(vec![corrupt, panic_9], 1);
        let result = supervisor.finish(&spec, &ids, 23).expect("one panic recovers");
        let report = supervisor.report();
        assert_eq!(report.corrupt_snapshots_detected, 1, "snapshot 0, byte {byte_offset}");
        assert_eq!((report.worker_panics, report.restores), (1, 1), "byte {byte_offset}");
        assert_eq!(result, reference, "snapshot 0, byte {byte_offset}");
    }
    for byte_offset in sweep_offsets(at_8.seal().len()) {
        let corrupt = Fault::CorruptCheckpoint { at_snapshot: 1, byte_offset };
        let mut supervisor = supervise(vec![corrupt, panic_9], 0);
        let err = supervisor.finish(&spec, &ids, 23).expect_err("no retry budget");
        assert!(matches!(err, FleetError::RetriesExhausted { attempts: 1, .. }), "{err:?}");
        assert_eq!(supervisor.report().corrupt_snapshots_detected, 1, "byte {byte_offset}");
        let held = supervisor.checkpoint().expect("the step-4 seal is restored");
        assert_eq!(held.seal(), at_4.seal(), "snapshot 1, byte {byte_offset}");
        let resumed = clean.try_resume(&spec, held).expect("finish");
        assert_eq!(resumed, reference, "snapshot 1, byte {byte_offset}");
    }
}

/// Property 7 — one recoverable panic in each of four supervisor calls
/// (three `advance_to`, then `finish`), with a budget of one retry per
/// call, still finishes on the clean result.
#[test]
fn each_supervisor_call_has_its_own_retry_budget() {
    let cfg = noisy_config();
    let spec = fleet_spec(23, cfg.layout.cell_radius_km());
    let ids: Vec<u64> = (0..10).collect();
    let clean = FleetSimulation::new(cfg);
    let reference = clean.try_run_ids(&spec, &ids, 23).expect("fleet run");
    let faults = [1, 3, 5, 7].map(|at_step| Fault::WorkerPanic { at_step });
    let plan = FaultPlan::scripted(faults.to_vec());
    let faulty = clean.clone().with_fault_injection(Arc::new(plan.injector()));
    let policy = RetryPolicy { checkpoint_cadence: 2, max_retries: 1, ..RetryPolicy::default() };
    let mut supervisor = Supervisor::new(faulty, policy).expect("valid policy");
    for target in [2, 4, 6] {
        let cp = supervisor.advance_to(&spec, &ids, 23, target).expect("one panic recovers");
        assert!(!cp.live.is_empty(), "the walks outlast the last panic");
        assert_eq!(supervisor.report().retries as u64, target / 2, "the panic fired");
    }
    let result = supervisor.finish(&spec, &ids, 23).expect("one panic per call recovers");
    assert_eq!(supervisor.report().worker_panics, 4);
    assert_eq!(result, reference);
}

/// A population that records the thread each trajectory is built on,
/// which is the thread stepping that UE's shard.
struct ThreadRecorder {
    inner: HomogeneousFleet,
    threads: std::sync::Mutex<Vec<(u64, std::thread::ThreadId)>>,
}

impl ThreadRecorder {
    fn new(inner: HomogeneousFleet) -> Self {
        ThreadRecorder { inner, threads: std::sync::Mutex::new(Vec::new()) }
    }

    /// The recorded `(ue_id, thread)` pairs, emptied.
    fn take(&self) -> Vec<(u64, std::thread::ThreadId)> {
        std::mem::take(&mut *self.threads.lock().expect("recorder lock"))
    }
}

impl UeSpec for ThreadRecorder {
    fn trajectory(&self, ue_id: u64) -> Trajectory {
        let id = std::thread::current().id();
        self.threads.lock().expect("recorder lock").push((ue_id, id));
        self.inner.trajectory(ue_id)
    }

    fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        self.inner.policy(ue_id)
    }
}

/// Worker 0 of a fleet pass is the calling thread: a one-worker pass
/// steps every UE there, a two-worker pass steps shard 0 (even ids)
/// there and shard 1 elsewhere. A scripted panic on the calling thread
/// still surfaces as a typed `WorkerPanic`, and the supervisor recovers
/// from it to the clean result.
#[test]
fn worker_zero_runs_on_the_calling_thread() {
    let cfg = noisy_config();
    let spec = ThreadRecorder::new(fleet_spec(29, cfg.layout.cell_radius_km()));
    let ids: Vec<u64> = (0..8).collect();
    let caller = std::thread::current().id();
    let one = FleetSimulation::new(cfg.clone()).with_chunk_size(3);
    let reference = one.try_run_ids(&spec, &ids, 29).expect("fleet run");
    let calls = spec.take();
    assert_eq!(calls.len(), ids.len());
    assert!(calls.iter().all(|&(_, t)| t == caller), "{calls:?}");

    let two = one.clone().with_workers(2);
    assert_eq!(two.try_run_ids(&spec, &ids, 29).expect("fleet run"), reference);
    let calls = spec.take();
    assert_eq!(calls.len(), ids.len());
    for (ue, thread) in calls {
        assert_eq!(thread == caller, ue % 2 == 0, "UE {ue} stepped on {thread:?}");
    }

    let plan = FaultPlan::scripted(vec![Fault::WorkerPanic { at_step: 3 }]);
    let faulty = || one.clone().with_fault_injection(Arc::new(plan.injector()));
    assert_eq!(
        faulty().try_run_ids(&spec, &ids, 29),
        Err(FleetError::WorkerPanic("injected fault: worker panic at step 3".into()))
    );
    let policy = RetryPolicy { checkpoint_cadence: 2, ..RetryPolicy::default() };
    let run = faulty().run_supervised(&spec, &ids, 29, &policy).expect("one panic recovers");
    assert_eq!(run.report.worker_panics, 1, "the scripted panic fired");
    assert_eq!(run.result, reference);
}
