//! Differential harness for the dynamic-workload plane.
//!
//! The plane's core contract: every feature off is **bitwise identical**
//! to the static engine. Each dynamic feature has a degenerate
//! configuration the static path must reproduce exactly:
//!
//! * an inert [`DynamicsConfig`] (everything `None`/empty) normalizes
//!   away inside the builder — the whole `FleetResult` matches;
//! * a flat tidal wave (amplitude 0) is dropped by normalization;
//! * failure windows that never intersect the timeline leave the engine
//!   *and* the traffic replay untouched (only the dynamic report is
//!   added);
//! * a single-class service mix whose parameters equal the base traffic
//!   config reproduces the static session draws — and therefore the
//!   static [`TrafficReport`] — bit for bit.
//!
//! All identities hold for every [`PolicyKind`], every
//! [`CandidateMode`], and every worker count / chunk size, mirroring
//! `tests/traffic_diff.rs`.

use fuzzy_handover::geometry::Axial;
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::{
    CellOutage, DynamicsConfig, ServiceMix, ServiceParams, SimConfig, TidalWave, TrafficConfig,
};

/// The UE ids `0..n`.
fn ue_ids(n: u64) -> Vec<u64> {
    (0..n).collect()
}

fn noisy_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg.sample_spacing_km = 0.2;
    cfg
}

fn spec(policy: PolicyKind) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
        policy,
        trajectory_seed: 17,
        cell_radius_km: 2.0,
    }
}

fn passive_traffic() -> TrafficConfig {
    TrafficConfig {
        channels_per_cell: 3,
        guard_channels: 1,
        mean_idle_steps: 5.0,
        mean_holding_steps: 4.0,
        load_feedback: false,
    }
}

/// Failure windows far past any trajectory's step count.
fn far_failures() -> DynamicsConfig {
    DynamicsConfig {
        churn: None,
        tide: None,
        failures: vec![CellOutage {
            cell: Axial::new(1, 0),
            from_step: 1_000_000,
            until_step: 1_000_100,
        }],
        services: None,
    }
}

const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Fuzzy,
    PolicyKind::FuzzyLut,
    PolicyKind::Hysteresis { margin_db: 4.0 },
    PolicyKind::Threshold { threshold_dbm: -95.0 },
    PolicyKind::HysteresisThreshold { threshold_dbm: -90.0, margin_db: 3.0 },
    PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 8.0 },
];

const MODES: [CandidateMode; 2] = [CandidateMode::All, CandidateMode::Nearest(7)];

/// The tentpole differential: an inert dynamics spec normalizes away
/// and the whole `FleetResult` — outcomes, summary, histogram, absent
/// reports — matches the plain run bitwise, across the whole policy ×
/// candidate-mode × sharding grid.
#[test]
fn inert_dynamics_is_bitwise_invisible_to_the_fleet() {
    for policy in ALL_POLICIES {
        for mode in MODES {
            for (workers, chunk) in [(1, 128), (3, 7)] {
                let ue_spec = spec(policy);
                let bare = FleetSimulation::new(noisy_config())
                    .with_candidate_mode(mode)
                    .with_workers(workers)
                    .with_chunk_size(chunk)
                    .try_run_ids(&ue_spec, &ue_ids(24), 91)
                    .expect("fleet run");
                let dynamic = FleetSimulation::new(noisy_config())
                    .with_candidate_mode(mode)
                    .with_workers(workers)
                    .with_chunk_size(chunk)
                    .with_dynamics(DynamicsConfig::none())
                    .try_run_ids(&ue_spec, &ue_ids(24), 91)
                    .expect("fleet run");
                let ctx = format!(
                    "policy={} mode={} workers={workers} chunk={chunk}",
                    policy.label(),
                    mode.label()
                );
                assert_eq!(bare, dynamic, "{ctx}");
                assert_eq!(bare.dynamics, None, "{ctx}");
            }
        }
    }
}

/// A zero-amplitude tidal wave is inert by construction: alone it
/// normalizes the whole plane away; alongside a live feature it is
/// dropped from the normalized config, leaving that feature's run
/// bit-identical.
#[test]
fn flat_tide_normalizes_away() {
    let ue_spec = spec(PolicyKind::Fuzzy);
    let flat = TidalWave { period_steps: 96, amplitude: 0.0, phase_per_q: 0.25 };
    let bare = FleetSimulation::new(noisy_config())
        .try_run_ids(&ue_spec, &ue_ids(20), 33)
        .expect("fleet run");
    let tide_only = FleetSimulation::new(noisy_config())
        .with_dynamics(DynamicsConfig { tide: Some(flat), ..DynamicsConfig::none() })
        .try_run_ids(&ue_spec, &ue_ids(20), 33)
        .expect("fleet run");
    assert_eq!(bare, tide_only, "a flat tide alone is the static engine");

    let with_failures = FleetSimulation::new(noisy_config())
        .with_dynamics(far_failures())
        .try_run_ids(&ue_spec, &ue_ids(20), 33)
        .expect("fleet run");
    let with_failures_and_flat_tide = FleetSimulation::new(noisy_config())
        .with_dynamics(DynamicsConfig { tide: Some(flat), ..far_failures() })
        .try_run_ids(&ue_spec, &ue_ids(20), 33)
        .expect("fleet run");
    assert_eq!(with_failures, with_failures_and_flat_tide);
}

/// Failure windows that never intersect the timeline leave every
/// engine-side artifact bitwise identical — the run only gains the
/// dynamic report. With a traffic plane attached, the `TrafficReport`
/// (now produced by the dynamic replay) matches the static replay bit
/// for bit and the failure columns stay zero.
#[test]
fn out_of_horizon_failures_are_engine_invisible() {
    for policy in ALL_POLICIES {
        for mode in MODES {
            let ue_spec = spec(policy);
            let bare = FleetSimulation::new(noisy_config())
                .with_candidate_mode(mode)
                .with_traffic(passive_traffic())
                .try_run_ids(&ue_spec, &ue_ids(24), 91)
                .expect("fleet run");
            let dynamic = FleetSimulation::new(noisy_config())
                .with_candidate_mode(mode)
                .with_traffic(passive_traffic())
                .with_dynamics(far_failures())
                .try_run_ids(&ue_spec, &ue_ids(24), 91)
                .expect("fleet run");
            let ctx = format!("policy={} mode={}", policy.label(), mode.label());
            assert_eq!(bare.outcomes, dynamic.outcomes, "{ctx}");
            assert_eq!(bare.summary, dynamic.summary, "{ctx}");
            assert_eq!(bare.cell_load, dynamic.cell_load, "{ctx}");
            assert_eq!(bare.traffic, dynamic.traffic, "{ctx}");
            for (b, d) in bare.outcomes.iter().zip(&dynamic.outcomes) {
                assert_eq!(b.hd_sum.to_bits(), d.hd_sum.to_bits(), "{ctx} ue={}", b.ue_id);
            }
            let report = dynamic.dynamics.as_ref().expect("dynamics plane ran");
            assert_eq!(report.arrivals, 0, "{ctx}: no churn, no arrivals");
            // `departures` counts every trace ending before the global
            // timeline does — heterogeneous walk lengths land there even
            // without churn, so it is not asserted to be zero here.
            let stats = report.traffic.as_ref().expect("traffic plane ran");
            assert_eq!(stats.failure_evicted_calls, 0, "{ctx}");
            assert_eq!(stats.failure_dropped_calls, 0, "{ctx}");
            assert_eq!(stats.failure_erlangs.to_bits(), 0.0f64.to_bits(), "{ctx}");
        }
    }
}

/// A single-class service mix whose class parameters equal the base
/// traffic config reproduces the static session draws — the class draw
/// runs on its own domain-separated stream, so consuming it never
/// shifts the session stream. Both the all-voice and the all-data
/// degenerate mixes must hit the identity.
#[test]
fn single_class_mix_reproduces_the_static_traffic_report() {
    let cfg = passive_traffic();
    let matching = ServiceParams {
        mean_idle_steps: cfg.mean_idle_steps,
        mean_holding_steps: cfg.mean_holding_steps,
        extra_guard_channels: 0,
    };
    let other = ServiceParams {
        mean_idle_steps: 2.0,
        mean_holding_steps: 11.0,
        extra_guard_channels: 2,
    };
    for (share, voice, data, name) in
        [(1.0, matching, other, "all-voice"), (0.0, other, matching, "all-data")]
    {
        let ue_spec = spec(PolicyKind::Fuzzy);
        let bare = FleetSimulation::new(noisy_config())
            .with_traffic(cfg)
            .try_run_ids(&ue_spec, &ue_ids(24), 91)
            .expect("fleet run");
        let mixed = FleetSimulation::new(noisy_config())
            .with_traffic(cfg)
            .with_dynamics(DynamicsConfig {
                services: Some(ServiceMix { voice_share: share, voice, data }),
                ..DynamicsConfig::none()
            })
            .try_run_ids(&ue_spec, &ue_ids(24), 91)
            .expect("fleet run");
        assert_eq!(bare.outcomes, mixed.outcomes, "{name}");
        assert_eq!(bare.summary, mixed.summary, "{name}");
        assert_eq!(bare.cell_load, mixed.cell_load, "{name}");
        assert_eq!(bare.traffic, mixed.traffic, "{name}");
        // The per-class breakdown exists and puts everything in the one
        // live class.
        let stats = mixed
            .dynamics
            .as_ref()
            .and_then(|d| d.traffic.as_ref())
            .expect("dynamic traffic stats");
        assert_eq!(stats.per_class.len(), 2, "{name}");
        let report = bare.traffic.as_ref().expect("traffic ran");
        let (live, dead) = if share == 1.0 {
            (&stats.per_class[0], &stats.per_class[1])
        } else {
            (&stats.per_class[1], &stats.per_class[0])
        };
        assert_eq!(live.offered_calls, report.offered_calls, "{name}");
        assert_eq!(live.blocked_calls, report.blocked_calls, "{name}");
        assert_eq!(live.dropped_calls, report.dropped_calls, "{name}");
        assert_eq!(dead.offered_calls, 0, "{name}");
        assert_eq!(dead.carried_calls, 0, "{name}");
    }
}

/// The fully dynamic run (churn + tide + failures + services + traffic)
/// differs from the static run — the differential must actually bite
/// when the features are live, otherwise the identities above would be
/// vacuous.
#[test]
fn live_dynamics_actually_change_the_run() {
    let ue_spec = spec(PolicyKind::Fuzzy);
    let live = DynamicsConfig {
        churn: Some(fuzzy_handover::sim::ChurnConfig {
            initial_ues: 8,
            horizon_steps: 10,
            mean_lifetime_steps: 12.0,
        }),
        tide: Some(TidalWave { period_steps: 8, amplitude: 0.6, phase_per_q: 0.25 }),
        failures: vec![CellOutage { cell: Axial::new(0, 0), from_step: 4, until_step: 9 }],
        services: Some(ServiceMix {
            voice_share: 0.5,
            voice: ServiceParams {
                mean_idle_steps: 4.0,
                mean_holding_steps: 3.0,
                extra_guard_channels: 0,
            },
            data: ServiceParams {
                mean_idle_steps: 6.0,
                mean_holding_steps: 9.0,
                extra_guard_channels: 1,
            },
        }),
    };
    let bare = FleetSimulation::new(noisy_config())
        .with_traffic(passive_traffic())
        .try_run_ids(&ue_spec, &ue_ids(24), 91)
        .expect("fleet run");
    let dynamic = FleetSimulation::new(noisy_config())
        .with_traffic(passive_traffic())
        .with_dynamics(live)
        .try_run_ids(&ue_spec, &ue_ids(24), 91)
        .expect("fleet run");
    assert_ne!(bare.summary, dynamic.summary, "churn truncates lifetimes");
    assert_ne!(bare.traffic, dynamic.traffic, "tide + services shift sessions");
    let report = dynamic.dynamics.as_ref().expect("dynamic report attached");
    assert!(report.departures > 0, "short lifetimes must retire some UEs");
}
