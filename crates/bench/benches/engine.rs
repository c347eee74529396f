//! Simulation-engine throughput: scenario runs and Monte-Carlo scaling
//! (one thread, the caller, vs 2/4/8 workers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use handover_bench::paper_controller;
use handover_core::HandoverPolicy;
use handover_sim::monte_carlo::try_run_repetitions_parallel;
use handover_sim::{Scenario, SimConfig, Simulation};
use radiolink::{MeasurementNoise, ShadowingConfig};
use std::hint::black_box;

fn bench_scenario_runs(c: &mut Criterion) {
    let sim = Simulation::new(SimConfig::paper_default());
    let walk_a = Scenario::a().trajectory();
    let walk_b = Scenario::b().trajectory();
    c.bench_function("engine/scenario_a_run", |b| {
        b.iter(|| {
            let mut policy = paper_controller();
            black_box(sim.run(&walk_a, &mut policy, 0))
        })
    });
    c.bench_function("engine/scenario_b_run", |b| {
        b.iter(|| {
            let mut policy = paper_controller();
            black_box(sim.run(&walk_b, &mut policy, 0))
        })
    });
}

fn bench_fading_run(c: &mut Criterion) {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    cfg.sample_spacing_km = 0.1;
    let sim = Simulation::new(cfg);
    let walk = Scenario::b().trajectory();
    c.bench_function("engine/fading_run_100m_sampling", |b| {
        b.iter(|| {
            let mut policy = paper_controller();
            black_box(sim.run(&walk, &mut policy, 1))
        })
    });
}

fn bench_monte_carlo_scaling(c: &mut Criterion) {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    let sim = Simulation::new(cfg);
    let walk = Scenario::b().trajectory();
    let factory = || -> Box<dyn HandoverPolicy + Send> { Box::new(paper_controller()) };
    const REPS: usize = 16;

    let mut g = c.benchmark_group("engine/monte_carlo_16_reps");
    g.sample_size(20);
    let run = |threads| {
        try_run_repetitions_parallel(&sim, &walk, factory, 9, REPS, threads)
            .expect("repetitions run")
    };
    g.bench_function("sequential", |b| b.iter(|| black_box(run(1))));
    for threads in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &threads| {
            b.iter(|| black_box(run(threads)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scenario_runs, bench_fading_run, bench_monte_carlo_scaling);
criterion_main!(benches);
