//! Differential harness for the cell-load traffic plane.
//!
//! The plane's core contract: without load feedback it is purely
//! *observational*. Attaching it to a fleet must leave every per-UE
//! outcome, the fleet summary and the serving-load histogram
//! **bitwise identical** to the traffic-free run — for every
//! [`PolicyKind`], every [`CandidateMode`], and every worker count /
//! chunk size — while the added [`TrafficReport`] itself must be
//! invariant to how the fleet was sharded.

use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::{SimConfig, TrafficConfig};
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};

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

const ALL_POLICIES: [PolicyKind; 6] = [
    PolicyKind::Fuzzy,
    PolicyKind::FuzzyLut,
    PolicyKind::Hysteresis { margin_db: 4.0 },
    PolicyKind::Threshold { threshold_dbm: -95.0 },
    PolicyKind::HysteresisThreshold { threshold_dbm: -90.0, margin_db: 3.0 },
    PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 8.0 },
];

const MODES: [CandidateMode; 2] = [CandidateMode::All, CandidateMode::Nearest(7)];

/// The tentpole differential: traffic plane attached (passive) ≡ traffic
/// plane absent, bitwise, across the whole policy × candidate-mode ×
/// sharding grid.
#[test]
fn passive_traffic_is_bitwise_invisible_to_the_fleet() {
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
                let traffic = FleetSimulation::new(noisy_config())
                    .with_candidate_mode(mode)
                    .with_workers(workers)
                    .with_chunk_size(chunk)
                    .with_traffic(passive_traffic())
                    .try_run_ids(&ue_spec, &ue_ids(24), 91)
                    .expect("fleet run");
                let ctx = format!(
                    "policy={} mode={} workers={workers} chunk={chunk}",
                    policy.label(),
                    mode.label()
                );
                assert_eq!(bare.outcomes, traffic.outcomes, "{ctx}");
                assert_eq!(bare.summary, traffic.summary, "{ctx}");
                assert_eq!(bare.cell_load, traffic.cell_load, "{ctx}");
                assert_eq!(bare.traffic, None, "{ctx}");
                assert!(traffic.traffic.is_some(), "{ctx}");
                // The HD checksums are the bit-sensitive part: compare
                // their exact bit patterns too.
                for (b, t) in bare.outcomes.iter().zip(&traffic.outcomes) {
                    assert_eq!(b.hd_sum.to_bits(), t.hd_sum.to_bits(), "{ctx} ue={}", b.ue_id);
                }
            }
        }
    }
}

/// The traffic report itself is a pure function of `(spec, seed)`:
/// identical for every worker count and chunk size, under both candidate
/// modes and for every policy kind.
#[test]
fn traffic_report_is_sharding_invariant_for_every_policy() {
    for policy in ALL_POLICIES {
        for mode in MODES {
            let ue_spec = spec(policy);
            let reference = FleetSimulation::new(noisy_config())
                .with_candidate_mode(mode)
                .with_traffic(passive_traffic())
                .try_run_ids(&ue_spec, &ue_ids(24), 13)
                .expect("fleet run");
            let reference_report = reference.traffic.as_ref().expect("traffic ran");
            for (workers, chunk) in [(2, 1), (3, 7), (8, 64)] {
                let got = FleetSimulation::new(noisy_config())
                    .with_candidate_mode(mode)
                    .with_workers(workers)
                    .with_chunk_size(chunk)
                    .with_traffic(passive_traffic())
                    .try_run_ids(&ue_spec, &ue_ids(24), 13)
                    .expect("fleet run");
                assert_eq!(
                    Some(reference_report),
                    got.traffic.as_ref(),
                    "policy={} mode={} workers={workers} chunk={chunk}",
                    policy.label(),
                    mode.label()
                );
            }
        }
    }
}

/// UE submission order must not leak into the traffic report either (the
/// replay sorts traces by UE id before walking the timeline).
#[test]
fn traffic_report_is_submission_order_invariant() {
    let ue_spec = spec(PolicyKind::Fuzzy);
    let fleet = FleetSimulation::new(noisy_config())
        .with_workers(2)
        .with_chunk_size(4)
        .with_traffic(passive_traffic());
    let forward: Vec<u64> = (0..30).collect();
    let mut shuffled = forward.clone();
    shuffled.reverse();
    shuffled.swap(3, 17);
    shuffled.rotate_left(11);
    assert_eq!(
        fleet.try_run_ids(&ue_spec, &forward, 4).expect("fleet run"),
        fleet
            .try_run_ids(&ue_spec, &shuffled, 4)
            .expect("fleet run")
    );
}

/// The feedback pass is also sharding-invariant: decisions read a frozen
/// field from pass 1, so pass 2 keeps the same per-UE purity.
#[test]
fn feedback_pass_is_sharding_invariant() {
    let congested = TrafficConfig {
        channels_per_cell: 2,
        guard_channels: 0,
        mean_idle_steps: 3.0,
        mean_holding_steps: 9.0,
        load_feedback: true,
    };
    let ue_spec = spec(PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 10.0 });
    let reference = FleetSimulation::new(noisy_config())
        .with_traffic(congested)
        .try_run_ids(&ue_spec, &ue_ids(30), 8)
        .expect("fleet run");
    for (workers, chunk) in [(2, 1), (5, 16)] {
        let got = FleetSimulation::new(noisy_config())
            .with_traffic(congested)
            .with_workers(workers)
            .with_chunk_size(chunk)
            .try_run_ids(&ue_spec, &ue_ids(30), 8)
            .expect("fleet run");
        assert_eq!(reference, got, "workers={workers} chunk={chunk}");
    }
}
