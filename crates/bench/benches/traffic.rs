//! Traffic-plane throughput: session generation, the sequential
//! admission replay at Erlang scale, and the end-to-end overhead the
//! plane adds to a fleet run (trace recording + replay, and the
//! two-pass load-feedback mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use handover_core::erlang_b;
use handover_sim::fleet::{ue_seed, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind};
use handover_sim::traffic::{
    generate_sessions, replay_traffic, TrafficConfig, UeTrace, TRAFFIC_STREAM,
};
use handover_sim::SimConfig;
use mobility::RandomWalk;
use radiolink::{MeasurementNoise, ShadowingConfig};
use std::hint::black_box;

fn fleet_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn walk_spec(policy: PolicyKind) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
        policy,
        trajectory_seed: 21,
        cell_radius_km: 2.0,
    }
}

fn demo_traffic() -> TrafficConfig {
    TrafficConfig {
        channels_per_cell: 4,
        guard_channels: 1,
        mean_idle_steps: 6.0,
        mean_holding_steps: 4.0,
        load_feedback: false,
    }
}

/// Per-UE session-stream generation at fleet scale.
fn bench_session_generation(c: &mut Criterion) {
    let cfg = demo_traffic();
    let mut g = c.benchmark_group("traffic/session_generation");
    for n_ues in [1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::new("ues", n_ues), &n_ues, |b, &n| {
            b.iter(|| {
                let mut total = 0usize;
                for ue in 0..n {
                    total += generate_sessions(
                        &cfg,
                        ue_seed(7 ^ TRAFFIC_STREAM, ue),
                        black_box(300),
                    )
                    .len();
                }
                black_box(total)
            })
        });
    }
    g.finish();
}

/// The sequential admission replay on the Erlang acceptance
/// configuration: 10k stationary sources offering 15 E to one
/// 20-channel cell over a 6k-step timeline. The analytic sanity check
/// runs once on the first iteration's report.
fn bench_erlang_replay_10k(c: &mut Criterion) {
    let n_ues = 10_000u64;
    let steps = 6_000u64;
    let cfg = TrafficConfig::erlang(20, 0, 15.0 / n_ues as f64, 20.0);
    let traces: Vec<UeTrace> =
        (0..n_ues).map(|ue_id| UeTrace::pinned(ue_id, steps, 0)).collect();
    let cells = vec![cellgeom::Axial::ORIGIN, cellgeom::Axial::new(1, 0)];
    let checked = std::cell::Cell::new(false);

    let mut g = c.benchmark_group("traffic/erlang_replay_10k_x6k");
    g.sample_size(10);
    g.bench_function("replay", |b| {
        b.iter(|| {
            let (report, field) = replay_traffic(&cfg, &cells, &traces, 0xE71A);
            if !checked.replace(true) {
                let analytic = erlang_b(15.0, 20);
                let empirical = report.blocking_probability();
                assert!(
                    (empirical - analytic).abs() < 0.02,
                    "blocking {empirical:.4} vs Erlang-B {analytic:.4}"
                );
            }
            black_box((report, field))
        })
    });
    g.finish();
    assert!(checked.get(), "the acceptance check executed");
}

/// End-to-end overhead: the same 2k-UE fleet bare, with the passive
/// plane (trace recording + one replay), and with the two-pass
/// load-feedback mode driving a load-aware policy.
fn bench_fleet_overhead(c: &mut Criterion) {
    const UES: u64 = 2_000;
    let ids: Vec<u64> = (0..UES).collect();
    let mut g = c.benchmark_group("traffic/fleet_2k_overhead");
    g.sample_size(10);

    let bare = FleetSimulation::new(fleet_config()).with_workers(4);
    let spec = walk_spec(PolicyKind::Fuzzy);
    g.bench_function("bare", |b| {
        b.iter(|| black_box(bare.try_run_ids(&spec, &ids, 7).expect("fleet run")))
    });

    let passive = FleetSimulation::new(fleet_config())
        .with_workers(4)
        .with_traffic(demo_traffic());
    g.bench_function("passive_traffic", |b| {
        b.iter(|| black_box(passive.try_run_ids(&spec, &ids, 7).expect("fleet run")))
    });

    let feedback = FleetSimulation::new(fleet_config())
        .with_workers(4)
        .with_traffic(demo_traffic().with_load_feedback());
    let aware = walk_spec(PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 8.0 });
    g.bench_function("load_feedback", |b| {
        b.iter(|| black_box(feedback.try_run_ids(&aware, &ids, 7).expect("fleet run")))
    });

    g.finish();
}

criterion_group!(
    benches,
    bench_session_generation,
    bench_erlang_replay_10k,
    bench_fleet_overhead
);
criterion_main!(benches);
