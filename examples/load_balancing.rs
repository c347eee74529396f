//! Drive the cell-load traffic plane end to end.
//!
//! 1. **Erlang-B sanity sweep** — stationary single-cell fleets at three
//!    offered loads, replayed against the admission tracker; the
//!    empirical blocking probability is printed next to the analytic
//!    Erlang-B value it must reproduce.
//! 2. **Guard channels** — the same congested mobile fleet with 0, 1
//!    and 2 channels reserved for handover calls: blocking rises,
//!    dropping falls.
//! 3. **Load-aware handover** — a congested fleet under plain
//!    hysteresis vs the load-aware variant fed by the occupancy
//!    timeline (`TrafficConfig::load_feedback`): the biased margin
//!    steers UEs toward idle neighbours, carrying measurably more
//!    traffic at lower new-call blocking (the printed trade-off: more
//!    mid-call relocations, so handover dropping rises).
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use fuzzy_handover::core::erlang_b;
use fuzzy_handover::geometry::Axial;
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{
    ue_seed, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::traffic::{replay_traffic, TrafficConfig, UeTrace, TRAFFIC_STREAM};
use fuzzy_handover::sim::SimConfig;

fn main() {
    erlang_sanity_sweep();
    guard_channel_sweep();
    load_aware_handover();
}

/// Part 1: the M/M/c anchor. 2 000 stationary sources share one
/// 10-channel cell; the replayed blocking probability tracks Erlang-B.
fn erlang_sanity_sweep() {
    println!("Erlang-B sanity sweep (2 000 sources, 10 channels, 4 000-step timeline)");
    println!("{:>10}  {:>10}  {:>10}  {:>8}", "offered E", "Erlang-B", "measured", "calls");
    let cells = vec![Axial::ORIGIN, Axial::new(1, 0)];
    let traces: Vec<UeTrace> =
        (0..2_000).map(|ue_id| UeTrace::pinned(ue_id, 4_000, 0)).collect();
    for offered in [4.0, 7.0, 9.5] {
        let cfg = TrafficConfig::erlang(10, 0, offered / 2_000.0, 15.0);
        let (report, _) = replay_traffic(&cfg, &cells, &traces, 0xE71A);
        println!(
            "{offered:>10.1}  {:>10.4}  {:>10.4}  {:>8}",
            erlang_b(offered, 10),
            report.blocking_probability(),
            report.offered_calls
        );
    }
    println!();
}

fn congested_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn walkers(policy: PolicyKind) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(8)),
        policy,
        trajectory_seed: 1,
        cell_radius_km: 2.0,
    }
}

/// Part 2: guard channels trade new-call blocking for handover-drop
/// protection on a mobile fleet.
fn guard_channel_sweep() {
    println!("Guard-channel sweep (800 UEs, 3 channels/cell, hysteresis walkers)");
    let ids: Vec<u64> = (0..800).collect();
    println!("{:>6}  {:>9}  {:>9}  {:>8}  {:>8}", "guard", "P(block)", "P(drop)", "blocked", "dropped");
    for guard in [0u32, 1, 2] {
        let traffic = TrafficConfig {
            channels_per_cell: 3,
            guard_channels: guard,
            mean_idle_steps: 4.0,
            mean_holding_steps: 8.0,
            load_feedback: false,
        };
        let result = FleetSimulation::new(congested_config())
            .with_workers(4)
            .with_traffic(traffic)
            .try_run_ids(
                &walkers(PolicyKind::Hysteresis { margin_db: 4.0 }),
                &ids,
                42,
            )
            .expect("guard-channel run");
        let report = result.traffic.expect("traffic plane ran");
        println!(
            "{guard:>6}  {:>9.4}  {:>9.4}  {:>8}  {:>8}",
            report.blocking_probability(),
            report.dropping_probability(),
            report.blocked_calls,
            report.dropped_calls
        );
    }
    println!();
}

/// Part 3: the load-aware margin steers UEs toward idle neighbours —
/// more carried Erlangs, less new-call blocking, at the cost of more
/// mid-call relocations.
fn load_aware_handover() {
    println!("Load-aware handover (800 UEs, 2 channels/cell, feedback on)");
    let ids: Vec<u64> = (0..800).collect();
    let traffic = TrafficConfig {
        channels_per_cell: 2,
        guard_channels: 0,
        mean_idle_steps: 4.0,
        mean_holding_steps: 8.0,
        load_feedback: true,
    };
    let fleet = FleetSimulation::new(congested_config()).with_workers(4).with_traffic(traffic);
    for (name, policy) in [
        ("hysteresis 4 dB (load-blind)", PolicyKind::Hysteresis { margin_db: 4.0 }),
        (
            "load-hysteresis 4 dB ± 8 dB/util",
            PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 8.0 },
        ),
    ] {
        let result = fleet
            .try_run_ids(&walkers(policy), &ids, 42)
            .expect("load-aware run");
        let report = result.traffic.expect("traffic plane ran");
        let (peak_cell, peak_erlangs) = report.peak_cell().expect("cells exist");
        println!("  {name}");
        println!(
            "    P(block) {:.4}   P(drop) {:.4}   carried {:.1} E   peak cell ({}, {}) at {:.2} E   HO/UE {:.2}",
            report.blocking_probability(),
            report.dropping_probability(),
            report.carried_erlangs,
            peak_cell.q,
            peak_cell.r,
            peak_erlangs,
            result.summary.handovers_per_ue(),
        );
    }
    // The session streams are domain-separated from the measurement
    // streams: UE 0's call pattern never depends on its fading draws.
    debug_assert_ne!(ue_seed(42 ^ TRAFFIC_STREAM, 0), ue_seed(42, 0));
}
