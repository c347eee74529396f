//! Statistical and property tests for the traffic plane.
//!
//! * The session generator's empirical arrival rate and holding time
//!   must match the configured Erlang load within confidence bounds.
//! * Per-UE session streams are deterministic and domain-separated.
//! * The [`TrafficReport`] of a fleet run is invariant to worker count,
//!   chunk size and UE submission order (property-tested).
//! * The acceptance anchor: a single-cell M/M/c configuration offered
//!   A = 15 E on c = 20 channels by a 10 000-UE fleet reproduces the
//!   Erlang-B blocking probability within two percentage points.

use fuzzy_handover::core::erlang_b;
use fuzzy_handover::geometry::Axial;
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{ue_seed, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind};
use fuzzy_handover::sim::traffic::{
    generate_sessions, replay_traffic, TrafficConfig, UeTrace, TRAFFIC_STREAM,
};
use fuzzy_handover::sim::SimConfig;
use proptest::prelude::*;

/// The UE ids `0..n`.
fn ue_ids(n: u64) -> Vec<u64> {
    (0..n).collect()
}

fn base_traffic() -> TrafficConfig {
    TrafficConfig {
        channels_per_cell: 4,
        guard_channels: 1,
        mean_idle_steps: 12.0,
        mean_holding_steps: 8.0,
        load_feedback: false,
    }
}

#[test]
fn session_streams_are_deterministic_and_domain_separated() {
    let cfg = base_traffic();
    for ue in [0u64, 1, 17, 9999] {
        let seed = ue_seed(42 ^ TRAFFIC_STREAM, ue);
        assert_eq!(
            generate_sessions(&cfg, seed, 3000),
            generate_sessions(&cfg, seed, 3000),
            "ue {ue} stream reruns identically"
        );
    }
    // Distinct UEs draw distinct streams.
    let a = generate_sessions(&cfg, ue_seed(42 ^ TRAFFIC_STREAM, 0), 3000);
    let b = generate_sessions(&cfg, ue_seed(42 ^ TRAFFIC_STREAM, 1), 3000);
    assert_ne!(a, b);
    // And the traffic stream never aliases the measurement stream: the
    // masked seed differs from the raw fleet seed for UE 0.
    assert_ne!(ue_seed(42 ^ TRAFFIC_STREAM, 0), ue_seed(42, 0));
}

/// Empirical arrival rate and holding time across a large source
/// population stay within ~4 standard errors of the configured values
/// (deterministic seeds, so this never flakes).
#[test]
fn empirical_session_statistics_match_the_configuration() {
    let cfg = base_traffic();
    let horizon = 2_000usize;
    let n_ues = 2_000u64;
    let mut n_sessions = 0u64;
    let mut holding_sum = 0.0f64;
    let mut call_time_in_horizon = 0.0f64;
    for ue in 0..n_ues {
        let sessions = generate_sessions(&cfg, ue_seed(7 ^ TRAFFIC_STREAM, ue), horizon);
        for s in &sessions {
            n_sessions += 1;
            holding_sum += s.duration;
            call_time_in_horizon += (s.start + s.duration).min(horizon as f64) - s.start;
        }
    }
    assert!(n_sessions > 100_000, "enough samples for tight bounds: {n_sessions}");

    // Holding time: mean of n exponential(h) draws, σ = h/√n.
    let mean_holding = holding_sum / n_sessions as f64;
    let se_holding = cfg.mean_holding_steps / (n_sessions as f64).sqrt();
    assert!(
        (mean_holding - cfg.mean_holding_steps).abs() < 4.0 * se_holding,
        "mean holding {mean_holding} vs configured {} (se {se_holding})",
        cfg.mean_holding_steps
    );

    // Session count: one renewal per (idle + holding) cycle, so the
    // expected count over the horizon is n_ues · horizon / (i + h)
    // (edge effects at the horizon are O(1/cycles) and covered by the
    // 4σ slack, σ ≈ √count for a renewal count).
    let cycle = cfg.mean_idle_steps + cfg.mean_holding_steps;
    let expected_sessions = n_ues as f64 * horizon as f64 / cycle;
    assert!(
        (n_sessions as f64 - expected_sessions).abs() < 4.0 * expected_sessions.sqrt(),
        "{n_sessions} sessions vs expected {expected_sessions}"
    );

    // Offered load: call time per UE-step ≈ h / (i + h).
    let offered = call_time_in_horizon / (n_ues as f64 * horizon as f64);
    let expected_load = cfg.offered_erlangs_per_ue();
    assert!(
        (offered - expected_load).abs() < 0.01,
        "empirical offered load {offered} vs configured {expected_load}"
    );
}

/// A trace set pinning `n_ues` stationary UEs to cell 0 for `steps`
/// steps — the M/M/c single-cell configuration.
fn pinned_traces(n_ues: u64, steps: u64) -> Vec<UeTrace> {
    (0..n_ues).map(|ue_id| UeTrace::pinned(ue_id, steps, 0)).collect()
}

fn erlang_cell() -> Vec<Axial> {
    vec![Axial::ORIGIN, Axial::new(1, 0)]
}

/// The acceptance anchor: 10 000 sources offering A = 15 E in one cell
/// with c = 20 channels and no guard. The replay's empirical blocking
/// probability must land within two percentage points of
/// Erlang-B(15, 20) ≈ 0.0456. Release-only: the full-size run walks a
/// 10k × 6k-step timeline (the debug build runs the scaled-down variant
/// below instead).
#[cfg(not(debug_assertions))]
#[test]
fn single_cell_blocking_matches_erlang_b_at_10k_ues() {
    let n_ues = 10_000u64;
    let steps = 6_000u64;
    let channels = 20u32;
    let offered_erlangs = 15.0f64;
    let holding = 20.0f64;
    // Per-UE load a = A / N; idle mean follows from a = h/(i+h).
    let cfg = TrafficConfig::erlang(channels, 0, offered_erlangs / n_ues as f64, holding);
    let (report, _) = replay_traffic(&cfg, &erlang_cell(), &pinned_traces(n_ues, steps), 0xE71A);

    let analytic = erlang_b(offered_erlangs, channels);
    let empirical = report.blocking_probability();
    assert!(
        report.offered_calls > 3_000,
        "enough arrivals for a stable estimate: {}",
        report.offered_calls
    );
    assert!(
        (empirical - analytic).abs() < 0.02,
        "blocking {empirical:.4} vs Erlang-B {analytic:.4} \
         ({} blocked of {} offered)",
        report.blocked_calls,
        report.offered_calls
    );
    // The carried load cross-checks: A · (1 − B), within a few percent.
    let expected_carried = offered_erlangs * (1.0 - analytic);
    assert!(
        (report.carried_erlangs - expected_carried).abs() < 0.08 * expected_carried,
        "carried {:.2} E vs expected {:.2} E",
        report.carried_erlangs,
        expected_carried
    );
    // Pinned UEs never hand over, so nothing can be dropped.
    assert_eq!(report.handover_attempts, 0);
    assert_eq!(report.dropped_calls, 0);
    assert!(report.per_cell[0].peak_occupancy() <= channels, "capacity is a hard ceiling");
}

/// The same anchor scaled down for the debug build (1 000 sources,
/// looser statistics, same analytic target).
#[test]
fn single_cell_blocking_tracks_erlang_b_at_1k_ues() {
    let n_ues = 1_000u64;
    let steps = 3_000u64;
    let channels = 10u32;
    let offered_erlangs = 7.0f64;
    let cfg = TrafficConfig::erlang(channels, 0, offered_erlangs / n_ues as f64, 15.0);
    let (report, _) = replay_traffic(&cfg, &erlang_cell(), &pinned_traces(n_ues, steps), 0xE71B);
    let analytic = erlang_b(offered_erlangs, channels);
    let empirical = report.blocking_probability();
    assert!(report.offered_calls > 800, "{}", report.offered_calls);
    assert!(
        (empirical - analytic).abs() < 0.03,
        "blocking {empirical:.4} vs Erlang-B {analytic:.4}"
    );
}

/// Guard channels trade blocking for dropping in the expected
/// direction on a mobile, congested fleet.
#[test]
fn guard_channels_protect_handover_calls() {
    // Two cells, UEs oscillating between them mid-call.
    let mk_traces = || -> Vec<UeTrace> {
        (0..60)
            .map(|ue_id| {
                let serving: Vec<u32> =
                    (0..600).map(|s| ((s / 30 + ue_id as usize) % 2) as u32).collect();
                UeTrace::from_serving(ue_id, &serving)
            })
            .collect()
    };
    let hot = TrafficConfig {
        channels_per_cell: 5,
        guard_channels: 0,
        mean_idle_steps: 6.0,
        mean_holding_steps: 25.0,
        load_feedback: false,
    };
    let guarded = TrafficConfig { guard_channels: 2, ..hot };
    let (plain, _) = replay_traffic(&hot, &erlang_cell(), &mk_traces(), 3);
    let (with_guard, _) = replay_traffic(&guarded, &erlang_cell(), &mk_traces(), 3);
    assert!(plain.handover_attempts > 100);
    assert!(with_guard.blocking_probability() > plain.blocking_probability());
    assert!(with_guard.dropping_probability() < plain.dropping_probability());
}

fn noisy_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg.sample_spacing_km = 0.2;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Session streams are pure functions of (seed, ue, horizon):
    /// rerunning any stream reproduces it bit for bit, and a longer
    /// horizon only appends (the prefix is stable).
    #[test]
    fn session_streams_are_pure_and_prefix_stable(
        seed in 0u64..u64::MAX,
        ue in 0u64..10_000,
        horizon in 1usize..800,
    ) {
        let cfg = base_traffic();
        let s = ue_seed(seed ^ TRAFFIC_STREAM, ue);
        let short = generate_sessions(&cfg, s, horizon);
        let long = generate_sessions(&cfg, s, horizon + 500);
        prop_assert_eq!(&short[..], &long[..short.len()], "prefix stability");
        for w in short.windows(2) {
            prop_assert!(w[1].start >= w[0].start + w[0].duration);
        }
    }

    /// The fleet-level TrafficReport is invariant to worker count and
    /// chunk size for arbitrary seeds and loads.
    #[test]
    fn traffic_report_invariant_to_sharding(
        seed in 0u64..u64::MAX,
        traj_seed in 0u64..u64::MAX,
        workers in 1usize..6,
        chunk in 1usize..40,
        holding in 2.0f64..20.0,
        idle in 2.0f64..20.0,
    ) {
        let traffic = TrafficConfig {
            channels_per_cell: 3,
            guard_channels: 1,
            mean_idle_steps: idle,
            mean_holding_steps: holding,
            load_feedback: false,
        };
        let spec = HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(5)),
            policy: PolicyKind::Hysteresis { margin_db: 4.0 },
            trajectory_seed: traj_seed,
            cell_radius_km: 2.0,
        };
        let reference = FleetSimulation::new(noisy_config())
            .with_traffic(traffic)
            .try_run_ids(&spec, &ue_ids(20), seed).expect("fleet run");
        let sharded = FleetSimulation::new(noisy_config())
            .with_traffic(traffic)
            .with_workers(workers)
            .with_chunk_size(chunk)
            .try_run_ids(&spec, &ue_ids(20), seed).expect("fleet run");
        prop_assert_eq!(reference, sharded);
    }
}
