//! The `fleet_fuzzy_edge` workload: one streamed fleet run per pass.

use crate::adapter;
use crate::layers::{self, Population};
use crate::probe::{median, ms, CpuInstant};
use crate::report::Run;
use crate::traced::TracedSpec;
use crate::workloads::{self as wl, Digest, Sizes};
use fuzzylogic::CompiledFis;
use handover_core::build_paper_flc;
use handover_sim::fleet::FleetSimulation;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions before the first timed pass.
pub const SETUP_FIRST: usize = 11;
/// Set-up repetitions after every timed pass (or tenant).
pub const SETUP_PER_PASS: usize = 5;

/// The per-process set-up every workload pays before its first step:
/// compiling the paper FLC (what the first `paper_flc_plan()` call does).
pub fn compile_flc() {
    black_box(CompiledFis::compile(&build_paper_flc()));
}

/// Set-up timings spread over a run: one batch before the first pass and
/// one after every pass, so their median samples the same machine states
/// the passes do rather than one moment at start-up. Timed on the process
/// CPU clock, like the passes.
pub struct SetupSampler<F: FnMut()> {
    setup: F,
    times: Vec<f64>,
}

impl<F: FnMut()> SetupSampler<F> {
    /// A sampler of `setup` with its first batch taken.
    pub fn new(setup: F) -> Self {
        let mut sampler = SetupSampler {
            setup,
            times: Vec::new(),
        };
        sampler.sample(SETUP_FIRST);
        sampler
    }

    /// Time `n` more repetitions.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = CpuInstant::now();
            (self.setup)();
            self.times.push(t.elapsed().as_secs_f64());
        }
    }

    /// Record `setup_s` (median seconds) and its sample count.
    pub fn record(&self, run: &mut Run) {
        run.metric("setup_s", median(&self.times));
        run.samples("setup_s", self.times.len());
    }
}

/// One pass of the fleet: the digest it produced, its wall time and its
/// process CPU time.
struct Pass {
    digest: Digest,
    elapsed: Duration,
    cpu: Duration,
}

/// Run one untraced pass of the fleet on `workers` fleet workers.
fn pass(sizes: &Sizes, seed: u64, workers: usize) -> Result<Pass, String> {
    let t = Instant::now();
    let cpu = CpuInstant::now();
    let engine = adapter::fleet_engine(&wl::measurement_config(), workers, wl::EDGE_SET);
    let spec = wl::fleet_spec(sizes, seed);
    let summary = adapter::run_streamed(&engine, &spec, sizes.fleet_ues, seed)?;
    let cpu = cpu.elapsed();
    Ok(Pass {
        digest: Digest::of(&summary),
        elapsed: t.elapsed(),
        cpu,
    })
}

/// Output checks of one pass: size, load accounting and ranges.
fn check_digest(run: &mut Run, d: &Digest, ues: u64) {
    let hd_sum = f64::from_bits(d.hd_sum_bits);
    let sane = d.ues == ues
        && d.steps > 0
        && d.handovers > 0
        && d.ping_pongs <= d.handovers
        && d.outage_steps <= d.steps
        && hd_sum.is_finite()
        && hd_sum >= 0.0;
    run.check(sane, || format!("implausible digest {d:?} for {ues} UEs"));
}

/// The untraced run: set-up, a warm-up pass, timed passes, output
/// checks.
pub fn timed(run: &mut Run, sizes: &Sizes, seed: u64, seconds: f64) {
    let mut setup = SetupSampler::new(|| {
        compile_flc();
        black_box(adapter::fleet_engine(
            &wl::measurement_config(),
            1,
            wl::EDGE_SET,
        ));
        black_box(wl::fleet_spec(sizes, seed));
    });

    let start = Instant::now();
    // The first pass warms the allocator and caches up; it is checked
    // like every other pass but not timed.
    let Some(first) = run.op(pass(sizes, seed, 1)) else {
        return;
    };
    check_digest(run, &first.digest, sizes.fleet_ues);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < sizes.min_passes || start.elapsed().as_secs_f64() < seconds {
        let Some(p) = run.op(pass(sizes, seed, 1)) else {
            break;
        };
        run.check(p.digest == first.digest, || {
            format!("pass digests differ: {:?} vs {:?}", p.digest, first.digest)
        });
        passes.push(p);
        setup.sample(SETUP_PER_PASS);
    }
    setup.record(run);
    if passes.is_empty() {
        return;
    }
    if let Some(recorded) = wl::recorded_digest(seed).filter(|_| sizes.recorded) {
        run.check(recorded == first.digest, || {
            format!(
                "digest {:?} differs from the recorded {recorded:?}",
                first.digest
            )
        });
    }
    cross_check_streamed(run, sizes, seed);
    note_digest(run, &first.digest);

    // Every pass does the same work, so throughput is the pass's steps
    // over the median pass CPU time; wall times go to the detail line.
    let pass_ms: Vec<f64> = passes.iter().map(|p| ms(p.cpu)).collect();
    let wall_ms: Vec<f64> = passes.iter().map(|p| ms(p.elapsed)).collect();
    let median_ms = median(&pass_ms);
    run.note("pass_cpu_ms", format!("{pass_ms:.0?}"));
    run.note("pass_wall_ms", format!("{wall_ms:.0?}"));
    run.metric(
        "ue_steps_per_cpu_s",
        first.digest.steps as f64 / median_ms / 1e3,
    );
    run.metric("advance_cpu_p50_ms", median_ms);
    run.samples("ue_steps_per_cpu_s", passes.len());
    run.samples("advance_cpu_p50_ms", passes.len());
}

/// The streamed aggregate of a small prefix of the fleet must equal the
/// one assembled from per-UE outcomes (bit for bit), for any seed.
fn cross_check_streamed(run: &mut Run, sizes: &Sizes, seed: u64) {
    let engine = adapter::fleet_engine(&wl::measurement_config(), 1, wl::EDGE_SET);
    let spec = wl::fleet_spec(sizes, seed);
    let n = sizes.replay_ues.min(sizes.fleet_ues);
    let ids: Vec<u64> = (0..n).collect();
    let streamed = run.op(adapter::run_streamed(&engine, &spec, n, seed));
    let batch = run.op(adapter::run_ids(&engine, &spec, &ids, seed));
    if let (Some(s), Some(b)) = (streamed, batch) {
        run.check(Digest::of(&s) == Digest::of(&b.summary), || {
            format!("streamed {s:?} != per-UE {:?}", b.summary)
        });
    }
}

fn note_digest(run: &mut Run, d: &Digest) {
    run.note(
        "digest",
        format!(
            "ues={} steps={} handovers={} ping_pongs={} outage_steps={} mean_hd={:.6} \
             hd_count={} hd_sum_bits={:#018x}",
            d.ues,
            d.steps,
            d.handovers,
            d.ping_pongs,
            d.outage_steps,
            f64::from_bits(d.hd_sum_bits) / d.hd_count.max(1) as f64,
            d.hd_count,
            d.hd_sum_bits
        ),
    );
}

/// The fleet's population, as the replay sees it.
pub fn population(sizes: &Sizes, seed: u64) -> Population {
    Population {
        cfg: wl::measurement_config(),
        spec: wl::fleet_spec(sizes, seed),
        seed,
        candidate: wl::EDGE_SET,
        chunk_size: FleetSimulation::DEFAULT_CHUNK_SIZE,
        n_ues: sizes.fleet_ues,
    }
}

/// The traced run: untraced pass, the same pass on more workers and
/// through the traced wrappers, then the layer replay.
pub fn traced(run: &mut Run, sizes: &Sizes, seed: u64) {
    let Some(untraced) = run.op(pass(sizes, seed, 1)) else {
        return;
    };
    // Worker scaling: the same pass on more workers, same results.
    if let Some(scaled) = run.op(pass(sizes, seed, wl::SCALING_WORKERS)) {
        run.check(scaled.digest == untraced.digest, || {
            "results depend on the worker count".into()
        });
        run.metric(
            "sim.worker_speedup",
            untraced.elapsed.as_secs_f64() / scaled.elapsed.as_secs_f64(),
        );
    }
    layers::statistics(
        run,
        &handover_core::FleetSummary {
            steps: untraced.digest.steps,
            handovers: untraced.digest.handovers,
            ping_pongs: untraced.digest.ping_pongs,
            ..Default::default()
        },
    );

    // The same work through the traced population wrapper.
    let pop = population(sizes, seed);
    let engine = adapter::fleet_engine(&pop.cfg, wl::TIMED_THREADS, pop.candidate);
    let spec = TracedSpec::new(&pop.spec);
    let t = Instant::now();
    let summary = run.op(adapter::run_streamed(&engine, &spec, pop.n_ues, pop.seed));
    let traced_elapsed = t.elapsed();
    if let Some(s) = summary {
        run.check(Digest::of(&s) == untraced.digest, || {
            format!("traced digest {s:?} != untraced {:?}", untraced.digest)
        });
    }
    run.metric(
        "trace.overhead",
        traced_elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64(),
    );
    layers::callback_metrics(run, spec.spans());

    layers::replay_metrics(run, &[pop], sizes.replay_ues);
}
