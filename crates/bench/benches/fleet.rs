//! Fleet-engine throughput: chunked multi-UE stepping, worker scaling,
//! the scenario-matrix acceptance run (10k UEs × the four standard
//! mobility models, per-cell load histograms in the output tables),
//! the memory-bounded streaming and edge-set paths, the
//! checkpoint freeze/resume cycle, and the dynamic-workload plane
//! (churn + tide + failures + service classes) against its static
//! baseline.

use cellgeom::Axial;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use handover_sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use handover_sim::matrix::ScenarioMatrix;
use handover_sim::{
    CellOutage, ChurnConfig, DynamicsConfig, ServiceMix, ServiceParams, SimConfig, TidalWave,
    TrafficConfig,
};
use mobility::RandomWalk;
use radiolink::{MeasurementNoise, ShadowingConfig};
use std::hint::black_box;

fn fleet_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn walk_spec() -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 21,
        cell_radius_km: 2.0,
    }
}

fn bench_fleet_sizes(c: &mut Criterion) {
    let spec = walk_spec();
    let mut g = c.benchmark_group("fleet/random_walk_fuzzy");
    g.sample_size(10);
    for n_ues in [100u64, 1_000] {
        let fleet = FleetSimulation::new(fleet_config());
        let ids: Vec<u64> = (0..n_ues).collect();
        g.bench_with_input(BenchmarkId::new("ues", n_ues), &ids, |b, ids| {
            b.iter(|| black_box(fleet.try_run_ids(&spec, ids, 7).expect("fleet run")))
        });
    }
    g.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let spec = walk_spec();
    const UES: u64 = 2_000;
    let ids: Vec<u64> = (0..UES).collect();
    let mut g = c.benchmark_group("fleet/worker_scaling_2k_ues");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let fleet = FleetSimulation::new(fleet_config()).with_workers(workers);
        g.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| black_box(fleet.try_run_ids(&spec, &ids, 7).expect("fleet run")))
        });
    }
    g.finish();
}

/// The acceptance run: a 10k-UE × 4-mobility-model scenario matrix. The
/// acceptance assertions (per-cell load histograms present in the output
/// tables) run once, on the first timed iteration's result — validating
/// asserts cost microseconds against a multi-second run, and this avoids
/// executing the heaviest workload twice per invocation.
fn bench_scenario_matrix_10k(c: &mut Criterion) {
    let matrix = ScenarioMatrix {
        base: fleet_config(),
        ue_counts: vec![10_000],
        mobilities: FleetMobility::standard_four(6),
        speeds_kmh: vec![30.0],
        policies: vec![PolicyKind::Fuzzy],
        traffics: vec![None],
        dynamics: vec![None],
        base_seed: 0xF1EE7,
        workers: 8,
        matrix_workers: 1,
        candidate_mode: CandidateMode::All,
    };
    let checked = std::cell::Cell::new(false);

    let mut g = c.benchmark_group("fleet/scenario_matrix_10k_x4");
    g.sample_size(10);
    g.bench_function("run", |b| {
        b.iter(|| {
            let result = matrix.try_run().expect("scenario matrix");
            if !checked.replace(true) {
                assert_eq!(result.cells.len(), 4, "10k UEs × 4 mobility models");
                for cell in &result.cells {
                    assert_eq!(cell.summary.ues, 10_000);
                    assert!(cell.summary.steps > 0);
                    assert_eq!(cell.cell_load.total(), cell.summary.steps);
                }
                let report = result.render();
                assert!(
                    report.contains("Per-cell load"),
                    "load histogram in the output tables"
                );
                assert!(report.contains("fleet metrics"));
            }
            black_box(result)
        })
    });
    g.finish();
    // `checked` stays false only when a CLI filter skipped this group —
    // asserting on it here would make every filtered invocation panic.
}

/// The 10×-scale lanes on the same 2k-UE walk: dense baseline, the
/// streaming aggregator (no per-UE outcome vector), and the edge-set
/// refinement of `Nearest(k)`. The
/// streamed/edge acceptance assertions run once against the dense
/// baseline.
fn bench_scaled_paths(c: &mut Criterion) {
    const UES: u64 = 2_000;
    let spec = walk_spec();
    let ids: Vec<u64> = (0..UES).collect();
    let mut g = c.benchmark_group("fleet/scaled_paths_2k_ues");
    g.sample_size(10);

    let dense = FleetSimulation::new(fleet_config()).with_workers(4);
    let baseline = dense.try_run_ids(&spec, &ids, 7).expect("dense run");
    g.bench_function("dense", |b| {
        b.iter(|| black_box(dense.try_run_ids(&spec, &ids, 7).expect("dense run")))
    });

    let streamed = dense.clone();
    let stream_summary = streamed.run_streamed(&spec, UES, 7).expect("streamed run");
    assert_eq!(stream_summary.summary, baseline.summary, "streamed ≡ dense");
    g.bench_function("streamed", |b| {
        b.iter(|| black_box(streamed.run_streamed(&spec, UES, 7).expect("streamed run")))
    });

    let edge = FleetSimulation::new(fleet_config())
        .with_workers(4)
        .with_candidate_mode(CandidateMode::EdgeSet { k: 7, margin_db: 6.0 });
    let edge_run = edge.try_run_ids(&spec, &ids, 7).expect("edge-set run");
    assert_eq!(edge_run.summary.steps, baseline.summary.steps);
    g.bench_function("edge_set_k7_m6", |b| {
        b.iter(|| black_box(edge.try_run_ids(&spec, &ids, 7).expect("edge-set run")))
    });

    g.finish();
}

/// Checkpoint cost: freezing a 2k-UE fleet mid-run (`advance`),
/// serializing the snapshot, and resuming it to completion. The
/// bit-identity acceptance assertion runs once.
fn bench_checkpoint_cycle(c: &mut Criterion) {
    const UES: u64 = 2_000;
    const SNAP_STEP: u64 = 5; // mid-run: the walk spec takes ~10 steps/UE
    let spec = walk_spec();
    let fleet = FleetSimulation::new(fleet_config()).with_workers(4);
    let ids: Vec<u64> = (0..UES).collect();

    let cp = fleet
        .advance(&spec, None, &ids, 7, SNAP_STEP)
        .expect("partial run");
    assert_eq!(
        fleet.try_resume(&spec, &cp).expect("resume"),
        fleet.try_run_ids(&spec, &ids, 7).expect("fleet run"),
        "resume ≡ uninterrupted"
    );

    let mut g = c.benchmark_group("fleet/checkpoint_2k_ues");
    g.sample_size(10);
    g.bench_function("freeze", |b| {
        b.iter(|| {
            black_box(
                fleet
                    .advance(&spec, None, &ids, 7, SNAP_STEP)
                    .expect("partial run"),
            )
        })
    });
    g.bench_function("serialize", |b| {
        b.iter(|| black_box(serde_json::to_string(&cp).expect("serialize")))
    });
    g.bench_function("resume", |b| {
        b.iter(|| black_box(fleet.try_resume(&spec, &cp).expect("resume")))
    });
    g.finish();
}

/// Supervision overhead: the same 2k-UE fleet through `run_supervised`
/// with no faults attached — once at the default checkpoint cadence
/// (seal + write-verify every 16 steps) and once with the cadence
/// pushed past the run horizon (no snapshot ever taken), against the
/// plain `try_run_ids` baseline. The bit-identity acceptance assertion runs
/// once.
fn bench_supervised_overhead(c: &mut Criterion) {
    use handover_sim::resilience::RetryPolicy;
    const UES: u64 = 2_000;
    let spec = walk_spec();
    let fleet = FleetSimulation::new(fleet_config()).with_workers(4);
    let ids: Vec<u64> = (0..UES).collect();

    let clean = fleet.try_run_ids(&spec, &ids, 7).expect("fleet run");
    let cadence_on = RetryPolicy { checkpoint_cadence: 4, ..RetryPolicy::default() };
    let cadence_off = RetryPolicy { checkpoint_cadence: 1_000_000, ..RetryPolicy::default() };
    let supervised = fleet.run_supervised(&spec, &ids, 7, &cadence_on).expect("supervised");
    assert_eq!(clean, supervised.result, "supervised ≡ clean, bit for bit");
    assert!(supervised.report.snapshots_taken > 0, "cadence 4 must snapshot");

    let mut g = c.benchmark_group("fleet/supervised_2k_ues");
    g.sample_size(10);
    g.bench_function("unsupervised", |b| {
        b.iter(|| black_box(fleet.try_run_ids(&spec, &ids, 7).expect("fleet run")))
    });
    g.bench_function("supervised_cadence4", |b| {
        b.iter(|| black_box(fleet.run_supervised(&spec, &ids, 7, &cadence_on).expect("ok")))
    });
    g.bench_function("supervised_no_snapshots", |b| {
        b.iter(|| black_box(fleet.run_supervised(&spec, &ids, 7, &cadence_off).expect("ok")))
    });
    g.finish();
}

/// The dynamic-workload plane on the 2k-UE walk: the static+traffic
/// baseline, engine-side dynamics only (churn + failure mask), and the
/// full city workload (churn + tide + failures + service classes over
/// the traffic replay). The acceptance assertions — dynamic report
/// attached, population churned, histogram conserved — run once.
fn bench_dynamic_fleet(c: &mut Criterion) {
    const UES: u64 = 2_000;
    let spec = walk_spec();
    let traffic = TrafficConfig {
        channels_per_cell: 8,
        guard_channels: 1,
        mean_idle_steps: 6.0,
        mean_holding_steps: 4.0,
        load_feedback: false,
    };
    let dynamics = DynamicsConfig {
        churn: Some(ChurnConfig {
            initial_ues: 1_200,
            horizon_steps: 10,
            mean_lifetime_steps: 8.0,
        }),
        tide: Some(TidalWave { period_steps: 8, amplitude: 0.6, phase_per_q: 0.25 }),
        failures: vec![CellOutage { cell: Axial::new(0, 0), from_step: 4, until_step: 8 }],
        services: Some(ServiceMix {
            voice_share: 0.6,
            voice: ServiceParams {
                mean_idle_steps: 5.0,
                mean_holding_steps: 3.0,
                extra_guard_channels: 0,
            },
            data: ServiceParams {
                mean_idle_steps: 7.0,
                mean_holding_steps: 8.0,
                extra_guard_channels: 1,
            },
        }),
    };

    let ids: Vec<u64> = (0..UES).collect();
    let mut g = c.benchmark_group("fleet/dynamic_2k_ues");
    g.sample_size(10);

    let baseline = FleetSimulation::new(fleet_config()).with_workers(4).with_traffic(traffic);
    g.bench_function("static_traffic", |b| {
        b.iter(|| black_box(baseline.try_run_ids(&spec, &ids, 7).expect("fleet run")))
    });

    let engine_side = DynamicsConfig { tide: None, services: None, ..dynamics.clone() };
    let churned = FleetSimulation::new(fleet_config())
        .with_workers(4)
        .with_dynamics(engine_side);
    let result = churned.try_run_ids(&spec, &ids, 7).expect("fleet run");
    let report = result.dynamics.as_ref().expect("dynamic report attached");
    assert!(report.departures > 0, "churn must retire UEs");
    assert_eq!(result.cell_load.total(), result.summary.steps, "histogram conserved");
    g.bench_function("churn_failures", |b| {
        b.iter(|| black_box(churned.try_run_ids(&spec, &ids, 7).expect("fleet run")))
    });

    let city = FleetSimulation::new(fleet_config())
        .with_workers(4)
        .with_traffic(traffic)
        .with_dynamics(dynamics);
    let result = city.try_run_ids(&spec, &ids, 7).expect("fleet run");
    assert!(
        result.dynamics.as_ref().and_then(|d| d.traffic.as_ref()).is_some(),
        "full city workload carries the dropped-Erlang breakdown"
    );
    g.bench_function("full_city", |b| {
        b.iter(|| black_box(city.try_run_ids(&spec, &ids, 7).expect("fleet run")))
    });

    g.finish();
}

criterion_group!(
    benches,
    bench_fleet_sizes,
    bench_worker_scaling,
    bench_scenario_matrix_10k,
    bench_scaled_paths,
    bench_checkpoint_cycle,
    bench_supervised_overhead,
    bench_dynamic_fleet
);
criterion_main!(benches);
