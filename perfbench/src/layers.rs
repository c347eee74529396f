//! The traced run's engine half, shared by every workload: the real
//! engine through the traced wrappers, and the layer replay of a fixed
//! UE sample checked for parity against the engine.

use crate::adapter;
use crate::probe::{median, Probe};
use crate::replay::{counter, parity, replay, span, ReplayConfig};
use crate::report::Run;
use crate::traced::CallbackSpans;
use handover_sim::fleet::{CandidateMode, FleetSimulation, HomogeneousFleet};
use handover_sim::SimConfig;
use std::time::Instant;

/// One homogeneous population as the engine runs it.
pub struct Population {
    /// Simulation config.
    pub cfg: SimConfig,
    /// The population.
    pub spec: HomogeneousFleet,
    /// Measurement seed.
    pub seed: u64,
    /// Candidate measurement mode.
    pub candidate: CandidateMode,
    /// Lockstep chunk size.
    pub chunk_size: usize,
    /// UEs `0..n_ues`.
    pub n_ues: u64,
}

impl Population {
    /// A one-worker engine for this population (what the replay
    /// reproduces).
    pub fn engine(&self) -> FleetSimulation {
        adapter::fleet_engine(&self.cfg, 1, self.candidate).with_chunk_size(self.chunk_size)
    }
}

/// Timed rounds per population (engine, untraced replay, traced replay).
const ROUNDS: usize = 5;

/// Replay a sample of every population layer by layer, check parity
/// with the engine, time the engine on the same sample, and record the
/// per-layer metrics.
pub fn replay_metrics(run: &mut Run, pops: &[Population], replay_ues: u64) {
    let mut probe = Probe::calibrated();
    let mut engine_ns = 0.0;
    let mut engine_steps = 0u64;
    let mut traced_ns = 0.0;
    let mut untraced_ns = 0.0;
    for pop in pops {
        let ids = crate::workloads::replay_ids(pop.n_ues, replay_ues);
        let engine = pop.engine();
        let rc = ReplayConfig {
            cfg: &pop.cfg,
            candidate: pop.candidate,
            spec: &pop.spec,
            base_seed: pop.seed,
            chunk_size: pop.chunk_size,
        };
        // Warm-up and parity: the replay must reproduce the engine.
        let Some(reference) = run.op(adapter::run_outcomes(&engine, &pop.spec, &ids, pop.seed))
        else {
            continue;
        };
        let verdict = parity(&replay(&rc, &ids, &mut Probe::off()), &reference);
        run.check(verdict.is_ok(), || {
            format!("replay parity: {}", verdict.unwrap_err())
        });
        let steps: u64 = reference.iter().map(|o| o.steps).sum();

        // Rounds alternate the engine, the untraced replay and the traced
        // replay, so machine drift hits all three alike.
        let (mut engine_t, mut untraced_t) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let t = Instant::now();
            run.op(adapter::run_outcomes(&engine, &pop.spec, &ids, pop.seed));
            engine_t.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            replay(&rc, &ids, &mut Probe::off());
            untraced_t.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            replay(&rc, &ids, &mut probe);
            traced_ns += t.elapsed().as_nanos() as f64;
        }
        engine_ns += median(&engine_t);
        untraced_ns += median(&untraced_t);
        engine_steps += steps;
    }
    run.samples("replay.ue_steps", probe.counter(counter::STEPS) as usize);
    run.note("replay.timer_ns", probe.timer_ns());

    let steps = probe.counter(counter::STEPS).max(1) as f64;
    let sample_steps = engine_steps.max(1) as f64;
    // Fidelity of the replay: its untraced speed against the engine's.
    run.note("replay.untraced_ns_per_step", untraced_ns / sample_steps);
    let per_step = |name: &str| probe.net_ns(name) / steps;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let step_ns = engine_ns / sample_steps;
    let layer_ns: f64 = span::LAYERS.iter().map(|s| per_step(s)).sum();
    // The replayed step's own time between the layer calls (report
    // assembly, commit, tallies): traced wall time minus every raw span.
    let raw_spans: f64 = span::LAYERS.iter().map(|s| probe.raw_ns(s)).sum();

    run.metric(
        "mobility.generate_us_per_ue",
        probe.net_ns(span::GENERATE) / probe.counter(counter::UES).max(1) as f64 / 1e3,
    );
    run.metric("mobility.resample_ns_per_step", per_step(span::RESAMPLE));
    let nearest = probe.counter(counter::NEAREST_CALLS);
    run.metric(
        "geometry.nearest_ns_per_call",
        if nearest == 0 {
            0.0
        } else {
            probe.net_ns(span::NEAREST) / nearest as f64
        },
    );
    run.metric("geometry.nearest_calls_per_step", nearest as f64 / steps);
    let links = probe.counter(counter::LINKS);
    run.metric(
        "radio.budget_ns_per_link",
        if links == 0 {
            0.0
        } else {
            probe.net_ns(span::BUDGET) / links as f64
        },
    );
    run.metric("radio.links_per_step", links as f64 / steps);
    let filled = probe.counter(counter::FILLED);
    run.metric(
        "radio.gaussian_ns",
        if filled == 0 {
            0.0
        } else {
            probe.net_ns(span::GAUSSIAN) / filled as f64
        },
    );
    run.metric(
        "radio.gaussians_per_step",
        probe.counter(counter::GAUSSIANS) as f64 / steps,
    );
    run.metric("radio.shadow_ns_per_step", per_step(span::SHADOW));
    run.metric(
        "radio.edge_step_ratio",
        probe.counter(counter::EDGE_STEPS) as f64 / steps,
    );
    run.metric("core.pregate_ns_per_step", per_step(span::PREGATE));
    run.metric(
        "core.pregate_skip_ratio",
        ratio(
            probe.counter(counter::PREGATE_RESOLVED),
            probe.counter(counter::PREGATE_CALLS),
        ),
    );
    run.metric("core.decide_ns_per_step", per_step(span::DECIDE));
    let rows = probe.counter(counter::FLC_ROWS);
    run.metric("fuzzylogic.evals_per_step", rows as f64 / steps);
    run.metric(
        "fuzzylogic.eval_ns",
        if rows == 0 {
            0.0
        } else {
            probe.net_ns(span::FLC) / rows as f64
        },
    );
    run.metric("fuzzylogic.batch_len", ratio(rows, probe.calls(span::FLC)));
    run.metric(
        "fuzzylogic.step_share",
        if step_ns > 0.0 {
            per_step(span::FLC) / step_ns
        } else {
            0.0
        },
    );
    run.metric("sim.step_ns", step_ns);
    run.metric("sim.self_ns_per_step", (traced_ns - raw_spans) / steps);
    run.metric(
        "trace.coverage",
        if step_ns > 0.0 {
            layer_ns / step_ns
        } else {
            0.0
        },
    );
}

/// Record the traced engine run's callback spans.
pub fn callback_metrics(run: &mut Run, spans: &CallbackSpans) {
    run.metric(
        "engine.trajectory_us_per_ue",
        spans.trajectory.ns_per_call() / 1e3,
    );
    run.metric("engine.policy_ns_per_ue", spans.policy.ns_per_call());
    run.metric("engine.decide_ns_per_call", spans.decide.ns_per_call());
    run.metric("engine.notify_ns_per_call", spans.notify.ns_per_call());
    run.samples("engine.ues", spans.trajectory.calls() as usize);
    run.samples("engine.decide_calls", spans.decide.calls() as usize);
}

/// Record the simulated handover statistics of a summary.
pub fn statistics(run: &mut Run, summary: &handover_core::FleetSummary) {
    let ksteps = summary.steps.max(1) as f64 / 1e3;
    run.metric(
        "core.handovers_per_kstep",
        summary.handovers as f64 / ksteps,
    );
    run.metric(
        "core.ping_pongs_per_kstep",
        summary.ping_pongs as f64 / ksteps,
    );
}
