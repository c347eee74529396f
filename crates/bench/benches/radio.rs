//! The compiled radio measurement plane: scalar vs lane vs pruned.
//!
//! This is the bench that backs the radio-plane acceptance numbers — run
//! `cargo bench -p handover-bench --bench radio` and compare:
//!
//! * `radio/shadowing_19` — per-BS `ShadowingProcess` loop vs the SoA
//!   `ShadowingLane` (bit-identical) vs the pruned 7-slot subset update;
//! * `radio/budget_19x128` — the compiled link budget over one
//!   (cells × chunk) sweep;
//! * `radio/noise_2432` — scalar noise loop vs the batched slice sampler;
//! * `radio/matrix_10k_x4` — the 10k-UE × 4-mobility-model scenario
//!   matrix under the dense (`all`, golden-pinned semantics) and the
//!   neighbour-pruned (`nearest7`) candidate modes. The `nearest7`
//!   timing is the headline ≥1.5× acceptance number over the PR 3
//!   baseline; `BENCH_radio.json` records the trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use handover_sim::fleet::{CandidateMode, FleetMobility, PolicyKind};
use handover_sim::matrix::ScenarioMatrix;
use handover_sim::SimConfig;
use radiolink::{
    standard_normal, standard_normal_fill, BsRadio, MeasurementNoise, ShadowingConfig,
    ShadowingLane, ShadowingProcess,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;

const CELLS: usize = 19;
const CHUNK: usize = 128;

fn bench_shadowing(c: &mut Criterion) {
    let cfg = ShadowingConfig::moderate();
    let mut g = c.benchmark_group("radio/shadowing_19");
    g.bench_function("scalar_process_loop", |b| {
        let mut processes: Vec<ShadowingProcess> =
            (0..CELLS).map(|_| ShadowingProcess::new(cfg)).collect();
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            for p in &mut processes {
                black_box(p.advance(0.05, &mut rng));
            }
        })
    });
    g.bench_function("lane_advance_all", |b| {
        let mut lane = ShadowingLane::new(cfg, CELLS);
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            lane.advance_all(0.05, &mut rng);
            black_box(lane.values());
        })
    });
    g.bench_function("lane_pruned_subset7", |b| {
        let mut lane = ShadowingLane::new(cfg, CELLS);
        let subset: Vec<u32> = (0..7).collect();
        let mut last = vec![0.0f64; CELLS];
        let mut now = 0.0;
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            now += 0.05;
            lane.advance_subset(&subset, now, &mut last, &mut rng);
            black_box(lane.values());
        })
    });
    g.finish();
}

fn bench_budget(c: &mut Criterion) {
    let compiled = BsRadio::paper_default().compiled();
    let bs_positions: Vec<cellgeom::Vec2> = (0..CELLS)
        .map(|k| cellgeom::Vec2::from_polar(2.0 * (k / 6) as f64, k as f64))
        .collect();
    let ms_positions: Vec<cellgeom::Vec2> = (0..CHUNK)
        .map(|k| cellgeom::Vec2::from_polar(0.1 + 0.05 * k as f64, 0.7 * k as f64))
        .collect();
    let mut out = vec![0.0f64; CHUNK];

    let mut g = c.benchmark_group("radio/budget_19x128");
    g.bench_function("compiled_batch", |b| {
        b.iter(|| {
            for &bs in &bs_positions {
                compiled.received_power_dbm_batch(bs, &ms_positions, &mut out);
            }
            black_box(&out);
        })
    });
    g.finish();
}

/// The bulk-RNG kernels in isolation: one chunk-step's worth of raw
/// u64 draws (2 per gaussian × 2432 noise samples) and of gaussians,
/// scalar loop vs bulk fill. These are the micro rows behind the
/// batched shadowing/noise/fading numbers in `BENCH_radio.json`.
fn bench_rng_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("radio/rng_4864_u64");
    let mut words = vec![0u64; 2 * CELLS * CHUNK];
    g.bench_function("next_u64_loop", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            for slot in words.iter_mut() {
                *slot = rng.next_u64();
            }
            black_box(&words);
        })
    });
    g.bench_function("fill_u64_slice", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            rng.fill_u64_slice(&mut words);
            black_box(&words);
        })
    });
    g.finish();

    let mut g = c.benchmark_group("radio/normal_2432");
    let mut normals = vec![0.0f64; CELLS * CHUNK];
    g.bench_function("scalar_loop", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            for slot in normals.iter_mut() {
                *slot = standard_normal(&mut rng);
            }
            black_box(&normals);
        })
    });
    g.bench_function("standard_normal_fill", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            standard_normal_fill(&mut normals, &mut rng);
            black_box(&normals);
        })
    });
    g.finish();
}

/// Smallest wall-clock time of `reps` runs of `work` — the minimum is
/// the least contended run, which is the honest per-iteration cost on a
/// noisy shared box.
fn min_time<F: FnMut()>(reps: usize, mut work: F) -> std::time::Duration {
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            work();
            t0.elapsed()
        })
        .min()
        .expect("at least one rep")
}

fn bench_noise(c: &mut Criterion) {
    let noise = MeasurementNoise::new(1.0);
    let clean: Vec<f64> = (0..CELLS * CHUNK).map(|k| -110.0 + 0.01 * k as f64).collect();
    let mut buf = clean.clone();

    // Throughput regression guard: the batched sampler must actually be
    // batched. PR 4's "batched" apply_slice was secretly scalar — it
    // timed 107.9 µs against the scalar loop's 107.6 µs, a speedup of
    // none — and nothing failed. The bulk-ChaCha12 + tiled Box–Muller
    // kernels measure ≥ 1.3× here, so demanding a 1.15× min-of-9 edge
    // trips on any regression to per-draw sampling while riding out
    // container noise. Guarded on AVX2 because the wide-block RNG edge
    // (and hence the margin) assumes the 8-lane kernel is in play.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        const GUARD_ITERS: usize = 48;
        let scalar_min = min_time(9, || {
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..GUARD_ITERS {
                for (slot, &c) in buf.iter_mut().zip(&clean) {
                    *slot = noise.apply(c, &mut rng);
                }
                black_box(&buf);
            }
        });
        let batched_min = min_time(9, || {
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..GUARD_ITERS {
                buf.copy_from_slice(&clean);
                noise.apply_slice(&mut buf, &mut rng);
                black_box(&buf);
            }
        });
        assert!(
            batched_min.as_secs_f64() * 1.15 <= scalar_min.as_secs_f64(),
            "apply_slice must beat the scalar loop by ≥ 1.15× \
             (scalar {scalar_min:?}, batched {batched_min:?}) — \
             a smaller edge means the batched path went scalar again"
        );
    }

    let mut g = c.benchmark_group("radio/noise_2432");
    g.bench_function("scalar_loop", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            for (slot, &c) in buf.iter_mut().zip(&clean) {
                *slot = noise.apply(c, &mut rng);
            }
            black_box(&buf);
        })
    });
    g.bench_function("apply_slice", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            buf.copy_from_slice(&clean);
            noise.apply_slice(&mut buf, &mut rng);
            black_box(&buf);
        })
    });
    g.finish();
}

/// The acceptance run: the 10k-UE × 4-model scenario matrix, dense vs
/// neighbour-pruned. Consistency assertions run once, on the first timed
/// iteration of each mode.
fn bench_scenario_matrix_modes(c: &mut Criterion) {
    let mut base = SimConfig::paper_default();
    base.shadowing = ShadowingConfig::moderate();
    base.noise = MeasurementNoise::new(1.0);
    let matrix = ScenarioMatrix {
        base,
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

    let mut g = c.benchmark_group("radio/matrix_10k_x4");
    g.sample_size(10);
    for mode in [CandidateMode::All, CandidateMode::Nearest(7)] {
        let spec = ScenarioMatrix { candidate_mode: mode, ..matrix.clone() };
        let checked = std::cell::Cell::new(false);
        g.bench_function(mode.label(), |b| {
            b.iter(|| {
                let result = spec.try_run().expect("scenario matrix");
                if !checked.replace(true) {
                    assert_eq!(result.cells.len(), 4, "10k UEs × 4 mobility models");
                    for cell in &result.cells {
                        assert_eq!(cell.summary.ues, 10_000);
                        assert!(cell.summary.steps > 0);
                        assert_eq!(cell.cell_load.total(), cell.summary.steps);
                    }
                }
                black_box(result)
            })
        });
        // The sentinel only fires in `--test` mode (the CI smoke run,
        // which executes every bench once) — a local filtered run that
        // skips this group shouldn't panic.
        if std::env::args().any(|a| a == "--test") {
            assert!(checked.get(), "the {} acceptance run executed", mode.label());
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_shadowing,
    bench_budget,
    bench_rng_kernels,
    bench_noise,
    bench_scenario_matrix_modes
);
criterion_main!(benches);
