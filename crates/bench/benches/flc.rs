//! The compiled decision plane: interpreted `Fis` vs `CompiledFis` vs the
//! trilinear `Lut3d`, single-decision and batched. This is the bench that
//! backs the "zero-alloc compiled plan" acceptance numbers — run
//! `cargo bench -p handover-bench --bench flc` and compare the
//! `flc/single/*` and `flc/batch_1024/*` groups.

use criterion::{criterion_group, criterion_main, Criterion};
use fuzzylogic::EvalScratch;
use handover_bench::FLC_INPUTS;
use handover_core::flc::{
    build_paper_flc, paper_flc_lut, paper_flc_plan, CSSP_RANGE, DMB_RANGE, SSN_RANGE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_single(c: &mut Criterion) {
    let fis = build_paper_flc();
    let plan = paper_flc_plan();
    let lut = paper_flc_lut();
    let mut scratch = plan.scratch();

    let mut g = c.benchmark_group("flc/single");
    g.bench_function("interpreted", |b| {
        b.iter(|| {
            for x in FLC_INPUTS {
                black_box(fis.evaluate(&x).unwrap());
            }
        })
    });
    g.bench_function("compiled", |b| {
        b.iter(|| {
            for x in FLC_INPUTS {
                black_box(plan.evaluate_one(&x, &mut scratch).unwrap());
            }
        })
    });
    g.bench_function("lut", |b| {
        b.iter(|| {
            for x in FLC_INPUTS {
                black_box(lut.evaluate(x));
            }
        })
    });
    g.finish();
}

/// Smallest wall-clock time of `reps` runs of `work` — the minimum is
/// the least contended run, which is the honest per-iteration cost on a
/// noisy shared box.
fn min_time(reps: usize, mut work: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            work();
            t0.elapsed()
        })
        .min()
        .expect("at least one rep")
}

fn bench_batch(c: &mut Criterion) {
    // A fleet-chunk-sized batch: 1024 decisions drawn uniformly over the
    // three universes, so the rows fire every rule of the base and their
    // union supports differ from row to row, as a fleet chunk's do.
    const ROWS: usize = 1024;
    let mut rng = StdRng::seed_from_u64(18);
    let inputs: Vec<f64> = (0..ROWS)
        .flat_map(|_| {
            [
                rng.gen_range(CSSP_RANGE.0..=CSSP_RANGE.1),
                rng.gen_range(SSN_RANGE.0..=SSN_RANGE.1),
                rng.gen_range(DMB_RANGE.0..=DMB_RANGE.1),
            ]
        })
        .collect();
    let fis = build_paper_flc();
    let plan = paper_flc_plan();
    let lut = paper_flc_lut();
    let mut scratch = plan.scratch();
    let mut hds = vec![0.0f64; ROWS];

    // Throughput regression guard: the batch must run the row lanes. A
    // batch that silently falls back to one scalar evaluation per row
    // times the same as the per-row loop and nothing else would fail. The
    // lanes measure 2.6-3.0x the per-row loop here, so demanding 1.5x
    // (min of 9) trips on a fallback while riding out container noise.
    // Guarded on AVX2 because the margin assumes the 8-lane kernel.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let per_row_min = min_time(9, || {
            for (row, slot) in inputs.chunks_exact(3).zip(&mut hds) {
                *slot = plan.evaluate_one(row, &mut scratch).unwrap();
            }
            black_box(&hds);
        });
        let batch_min = min_time(9, || {
            plan.evaluate_batch(&inputs, &mut hds, &mut scratch)
                .unwrap();
            black_box(&hds);
        });
        assert!(
            batch_min.as_secs_f64() * 1.5 <= per_row_min.as_secs_f64(),
            "evaluate_batch must beat per-row evaluate_one by >= 1.5x \
             (per-row {per_row_min:?}, batch {batch_min:?}); a smaller edge \
             means the batch fell back to the scalar path"
        );
    }

    let mut g = c.benchmark_group("flc/batch_1024");
    g.sample_size(20);
    g.bench_function("interpreted_loop", |b| {
        b.iter(|| {
            for row in inputs.chunks_exact(3) {
                black_box(fis.evaluate(row).unwrap());
            }
        })
    });
    g.bench_function("compiled_per_row", |b| {
        b.iter(|| {
            for (row, slot) in inputs.chunks_exact(3).zip(&mut hds) {
                *slot = plan.evaluate_one(row, &mut scratch).unwrap();
            }
            black_box(&hds);
        })
    });
    g.bench_function("compiled_batch", |b| {
        b.iter(|| {
            plan.evaluate_batch(&inputs, &mut hds, &mut scratch).unwrap();
            black_box(&hds);
        })
    });
    g.bench_function("lut_loop", |b| {
        b.iter(|| {
            for (row, slot) in inputs.chunks_exact(3).zip(&mut hds) {
                *slot = lut.evaluate([row[0], row[1], row[2]]);
            }
            black_box(&hds);
        })
    });
    g.finish();
}

fn bench_scratch_reuse(c: &mut Criterion) {
    // The cost of forgetting scratch reuse: a fresh EvalScratch per call
    // re-allocates the buffers the compiled plan is designed to keep warm.
    let plan = paper_flc_plan();
    let mut g = c.benchmark_group("flc/scratch");
    g.bench_function("reused", |b| {
        let mut scratch = plan.scratch();
        b.iter(|| black_box(plan.evaluate_one(&FLC_INPUTS[1], &mut scratch).unwrap()))
    });
    g.bench_function("fresh_each_call", |b| {
        b.iter(|| {
            let mut scratch = EvalScratch::new();
            black_box(plan.evaluate_one(&FLC_INPUTS[1], &mut scratch).unwrap())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_single, bench_batch, bench_scratch_reuse);
criterion_main!(benches);
