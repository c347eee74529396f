//! Layer replay: the fleet engine's per-step pipeline rebuilt from the
//! layers' public functions, in engine order, with a span around every
//! call into a layer and a count at every boundary.
//!
//! The replay steps a chunk of UEs in lockstep exactly like the engine's
//! chunk loop: advance every trajectory cursor, compute the mean link
//! budget (dense: one batch per BS; pruned: per UE, with the edge
//! classification and the `NeighborIndex` query), draw the step's
//! gaussians, advance the shadowing lane, build the measurement report,
//! run the policy's pre-gate, evaluate the chunk's pending FLC rows in
//! one batch, then commit every decision. The replay parity test checks
//! that the per-UE outcomes equal the engine's bit for bit, which is
//! what makes the per-layer times a description of the engine's work.
//!
//! Supported engine settings are the ones the workloads use: no
//! dynamics plane, no load feedback, pass-through smoothing.

use crate::probe::Probe;
use cellgeom::{NeighborIndex, Vec2};
use fuzzylogic::{CompiledFis, EvalScratch};
use handover_core::{
    Decision, EventLog, FlcStage, HandoverEvent, HandoverPolicy, MeasurementReport, StayReason,
};
use handover_sim::fleet::{ue_seed, CandidateMode, UeSpec};
use handover_sim::SimConfig;
use mobility::{ResampleIter, TracePoint, Trajectory};
use radiolink::{speed_penalty_db, standard_normal_fill, RssiSmoother, ShadowingLane};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Span names of the replay (`layer.call`).
pub mod span {
    /// `UeSpec::trajectory` (mobility model generation), per UE.
    pub const GENERATE: &str = "mobility.generate";
    /// `ResampleIter::next` over the chunk's live UEs, per lockstep step.
    pub const RESAMPLE: &str = "mobility.resample";
    /// `NeighborIndex::nearest`, per edge-classified UE step.
    pub const NEAREST: &str = "geometry.nearest";
    /// `CompiledBsRadio` mean-RSS evaluation (dense batch or pruned
    /// scalar calls).
    pub const BUDGET: &str = "radio.budget";
    /// `standard_normal_fill`.
    pub const GAUSSIAN: &str = "radio.gaussian";
    /// `ShadowingLane::advance_all_with` / `advance_subset`.
    pub const SHADOW: &str = "radio.shadow";
    /// `FuzzyHandoverController::decide_pre` (POTLC pre-gate + inputs),
    /// per chunk step.
    pub const PREGATE: &str = "core.pregate";
    /// `HandoverPolicy::decide` (baselines) and `decide_with_hd`
    /// (threshold + PRTLC), per chunk step.
    pub const DECIDE: &str = "core.decide";
    /// `CompiledFis::evaluate_batch`, per chunk step with pending rows.
    pub const FLC: &str = "fuzzylogic.eval";

    /// Every layer span, for the coverage sum.
    pub const LAYERS: [&str; 9] = [
        GENERATE, RESAMPLE, NEAREST, BUDGET, GAUSSIAN, SHADOW, PREGATE, DECIDE, FLC,
    ];
}

/// Counter names of the replay.
pub mod counter {
    /// UE-steps replayed.
    pub const STEPS: &str = "steps";
    /// UEs replayed.
    pub const UES: &str = "ues";
    /// (BS, UE) mean link budgets evaluated.
    pub const LINKS: &str = "radio.links";
    /// Gaussians drawn (shadowing innovations plus noise).
    pub const GAUSSIANS: &str = "radio.gaussians";
    /// Gaussians drawn through timed `standard_normal_fill` calls.
    pub const FILLED: &str = "radio.filled";
    /// UE-steps that measured the full candidate set (pruned modes: the
    /// edge-classified ones; dense mode: every step).
    pub const EDGE_STEPS: &str = "radio.edge_steps";
    /// `decide_pre` calls.
    pub const PREGATE_CALLS: &str = "core.pregate_calls";
    /// `NeighborIndex::nearest` calls.
    pub const NEAREST_CALLS: &str = "geometry.nearest_calls";
    /// Pre-gate calls that resolved without the FLC.
    pub const PREGATE_RESOLVED: &str = "core.pregate_resolved";
    /// FLC rows evaluated.
    pub const FLC_ROWS: &str = "fuzzylogic.rows";
}

/// The per-UE result of a replay, field for field the engine's
/// `UeOutcome` subset the parity test compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// The UE id.
    pub ue_id: u64,
    /// Measurement steps taken.
    pub steps: u64,
    /// Executed handovers.
    pub handovers: u64,
    /// Ping-pongs within the configured window.
    pub ping_pongs: u64,
    /// Steps in outage.
    pub outage_steps: u64,
    /// Sum of the HD values observed, in step order.
    pub hd_sum: f64,
    /// Number of HD values observed.
    pub hd_count: u64,
}

/// The engine settings a replay reproduces.
pub struct ReplayConfig<'a> {
    /// Simulation config.
    pub cfg: &'a SimConfig,
    /// Candidate measurement mode.
    pub candidate: CandidateMode,
    /// The population.
    pub spec: &'a dyn UeSpec,
    /// Measurement base seed.
    pub base_seed: u64,
    /// Lockstep chunk size (the engine's default is 128).
    pub chunk_size: usize,
}

#[derive(Clone, Copy)]
enum Plan {
    Dense,
    Pruned {
        k: usize,
        edge_margin_db: Option<f64>,
    },
}

/// Precomputed per-layout tables (what `Simulation::new` compiles).
struct Plane {
    n: usize,
    candidates: Vec<Vec<usize>>,
    compiled: radiolink::CompiledBsRadio,
    bs_positions: Vec<Vec2>,
    index: NeighborIndex,
    plan: Plan,
    penalty_db: f64,
}

impl Plane {
    fn new(rc: &ReplayConfig<'_>) -> Plane {
        let layout = &rc.cfg.layout;
        let cells = layout.cells();
        let n = cells.len();
        let index_of = |cell| {
            cells
                .iter()
                .position(|&c| c == cell)
                .expect("cell in layout")
        };
        let candidates = cells
            .iter()
            .map(|&serving| {
                let neighbors = layout.neighbors_of(serving);
                if neighbors.is_empty() {
                    (0..n).filter(|&k| cells[k] != serving).collect()
                } else {
                    neighbors.into_iter().map(index_of).collect()
                }
            })
            .collect();
        let plan = match rc.candidate {
            CandidateMode::All => Plan::Dense,
            CandidateMode::Nearest(k) if k >= n => Plan::Dense,
            CandidateMode::Nearest(k) => Plan::Pruned {
                k: k.max(1),
                edge_margin_db: None,
            },
            CandidateMode::EdgeSet { k, margin_db } => Plan::Pruned {
                k: k.max(1).min(n),
                edge_margin_db: Some(margin_db),
            },
        };
        Plane {
            n,
            candidates,
            compiled: rc.cfg.radio.compiled(),
            bs_positions: cells.iter().map(|&c| layout.bs_position(c)).collect(),
            index: NeighborIndex::new(layout),
            plan,
            penalty_db: speed_penalty_db(rc.cfg.speed_kmh),
        }
    }
}

/// One replayed UE's dynamic state (the engine's `UeState` plus the
/// fleet tallies).
struct Ue {
    id: u64,
    serving: usize,
    shadow: ShadowingLane,
    rng: StdRng,
    log: EventLog,
    measured: Vec<f64>,
    last_km: Vec<f64>,
    prev_cum: f64,
    steps: u64,
    hd_sum: f64,
    hd_count: u64,
    policy: Box<dyn HandoverPolicy + Send>,
}

enum Pending {
    Decided(Decision),
    AwaitHd(usize),
}

/// Replay `ids` (processed in chunks of `chunk_size`, like one engine
/// worker), recording spans and counts into `probe`. Outcomes come back
/// ascending by UE id.
pub fn replay(rc: &ReplayConfig<'_>, ids: &[u64], probe: &mut Probe) -> Vec<ReplayOutcome> {
    assert!(
        rc.cfg.smoothing == RssiSmoother::None,
        "the replay reproduces pass-through smoothing only"
    );
    let plane = Plane::new(rc);
    let mut scratch = EvalScratch::new();
    let mut out = Vec::with_capacity(ids.len());
    for chunk in ids.chunks(rc.chunk_size.max(1)) {
        replay_chunk(rc, &plane, chunk, probe, &mut scratch, &mut out);
    }
    out.sort_by_key(|o| o.ue_id);
    out
}

fn replay_chunk(
    rc: &ReplayConfig<'_>,
    plane: &Plane,
    ids: &[u64],
    probe: &mut Probe,
    scratch: &mut EvalScratch,
    out: &mut Vec<ReplayOutcome>,
) {
    let cfg = rc.cfg;
    let layout = &cfg.layout;
    let cells = layout.cells();
    let n = plane.n;

    let trajectories: Vec<Trajectory> = probe.time(span::GENERATE, || {
        ids.iter().map(|&id| rc.spec.trajectory(id)).collect()
    });
    let mut cursors: Vec<ResampleIter<'_>> = trajectories
        .iter()
        .map(|t| t.resample_iter(cfg.sample_spacing_km))
        .collect();
    let mut ues: Vec<Option<Ue>> = ids
        .iter()
        .zip(&trajectories)
        .map(|(&id, t)| {
            let start_cell = layout.nearest_cell(t.start());
            Some(Ue {
                id,
                serving: cells
                    .iter()
                    .position(|&c| c == start_cell)
                    .expect("cell in layout"),
                shadow: ShadowingLane::new(cfg.shadowing, n),
                rng: StdRng::seed_from_u64(ue_seed(rc.base_seed, id)),
                log: EventLog::new(),
                measured: Vec::with_capacity(n),
                last_km: Vec::new(),
                prev_cum: 0.0,
                steps: 0,
                hd_sum: 0.0,
                hd_count: 0,
                policy: rc.spec.policy(id),
            })
        })
        .collect();
    probe.count(counter::UES, ids.len() as u64);
    let chunk_plan: Option<Arc<CompiledFis>> = ues.iter_mut().find_map(|u| {
        u.as_mut()
            .and_then(|u| u.policy.as_fuzzy().and_then(|f| f.shared_plan().cloned()))
    });

    let mut active: Vec<usize> = Vec::new();
    let mut points: Vec<TracePoint> = Vec::new();
    let mut positions: Vec<Vec2> = Vec::new();
    // Per active UE: mean RSS row (n), gaussian draws (≤ 2n), subset.
    let mut means: Vec<f64> = Vec::new();
    let mut normals: Vec<f64> = Vec::new();
    let mut subsets: Vec<Vec<u32>> = Vec::new();
    let mut edge: Vec<bool> = Vec::new();
    let mut reports: Vec<MeasurementReport> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut batch_inputs: Vec<f64> = Vec::new();
    let mut batch_prev: Vec<Option<f64>> = Vec::new();
    let mut batch_hd: Vec<f64> = Vec::new();
    let shadow_draws = if cfg.shadowing.sigma_db > 0.0 { n } else { 0 };
    let noise_draws = if cfg.noise.sigma_db > 0.0 { n } else { 0 };

    loop {
        // Advance every live cursor; retire the UEs whose walk ended.
        active.clear();
        points.clear();
        positions.clear();
        probe.time(span::RESAMPLE, || {
            for (i, cursor) in cursors.iter_mut().enumerate() {
                if ues[i].is_none() {
                    continue;
                }
                match cursor.next() {
                    Some(p) => {
                        active.push(i);
                        points.push(p);
                        positions.push(p.pos);
                    }
                    None => {
                        let ue = ues[i].take().expect("UE is live");
                        out.push(finish(cfg, &ue));
                    }
                }
            }
        });
        let a = active.len();
        if a == 0 {
            break;
        }
        probe.count(counter::STEPS, a as u64);
        // Measurement. Every call touches one UE's own state only, so the
        // replay may run each layer across the whole chunk before the
        // next one: per UE, the RNG draws stay in engine order.
        means.resize(n * a, 0.0);
        match plane.plan {
            Plan::Dense => {
                // Layer-major: row k holds BS k's mean at every UE.
                probe.time(span::BUDGET, || {
                    for (k, &bs) in plane.bs_positions.iter().enumerate() {
                        plane.compiled.received_power_dbm_batch(
                            bs,
                            &positions,
                            &mut means[k * a..(k + 1) * a],
                        );
                    }
                });
                probe.count(counter::LINKS, (n * a) as u64);
                probe.count(counter::EDGE_STEPS, a as u64);
                let draws = shadow_draws + noise_draws;
                normals.resize(draws * a, 0.0);
                probe.time(span::GAUSSIAN, || {
                    for (j, &i) in active.iter().enumerate() {
                        let ue = ues[i].as_mut().expect("UE is live");
                        standard_normal_fill(&mut normals[j * draws..(j + 1) * draws], &mut ue.rng);
                    }
                });
                probe.count(counter::GAUSSIANS, (draws * a) as u64);
                probe.count(counter::FILLED, (draws * a) as u64);
                probe.time(span::SHADOW, || {
                    for (j, &i) in active.iter().enumerate() {
                        let ue = ues[i].as_mut().expect("UE is live");
                        let delta = points[j].cum_km - ue.prev_cum;
                        ue.prev_cum = points[j].cum_km;
                        let shadow = &normals[j * draws..j * draws + shadow_draws];
                        ue.shadow.advance_all_with(delta, shadow);
                    }
                });
                let sigma = cfg.noise.sigma_db;
                for (j, &i) in active.iter().enumerate() {
                    let ue = ues[i].as_mut().expect("UE is live");
                    let noise = &normals[j * draws + shadow_draws..(j + 1) * draws];
                    ue.measured.clear();
                    for (k, &s) in ue.shadow.values().iter().enumerate() {
                        let m = means[k * a + j];
                        ue.measured.push(if noise_draws == 0 {
                            m + s
                        } else {
                            (m + s) + sigma * noise[k]
                        });
                    }
                }
            }
            Plan::Pruned { k, edge_margin_db } => {
                subsets.resize_with(a, Vec::new);
                edge.resize(a, false);
                // Exact means of the serving cell and its candidates, and
                // the edge classification (row j holds UE j's means).
                probe.time(span::BUDGET, || {
                    for (j, &i) in active.iter().enumerate() {
                        let serving = ues[i].as_ref().expect("UE is live").serving;
                        let row = &mut means[j * n..(j + 1) * n];
                        let pos = positions[j];
                        row[serving] = plane
                            .compiled
                            .received_power_dbm(plane.bs_positions[serving], pos);
                        let mut best = f64::NEG_INFINITY;
                        for &cand in &plane.candidates[serving] {
                            let m = plane
                                .compiled
                                .received_power_dbm(plane.bs_positions[cand], pos);
                            row[cand] = m;
                            best = best.max(m);
                        }
                        edge[j] = match edge_margin_db {
                            None => true,
                            Some(margin) => row[serving] - best <= margin,
                        };
                    }
                });
                let mut links = 0u64;
                for &i in &active {
                    let serving = ues[i].as_ref().expect("UE is live").serving;
                    links += 1 + plane.candidates[serving].len() as u64;
                }
                let edges = edge.iter().filter(|&&e| e).count();
                probe.count(counter::EDGE_STEPS, edges as u64);
                // Edge UEs: the k index-nearest cells.
                probe.time(span::NEAREST, || {
                    for j in 0..a {
                        subsets[j].clear();
                        if edge[j] {
                            subsets[j].extend_from_slice(plane.index.nearest(positions[j], k));
                        }
                    }
                });
                if edges > 0 {
                    probe.count(counter::NEAREST_CALLS, edges as u64);
                }
                // Complete each subset with the serving cell and its
                // candidate table (draw order: nearest set first).
                for (j, &i) in active.iter().enumerate() {
                    let serving = ues[i].as_ref().expect("UE is live").serving;
                    let subset = &mut subsets[j];
                    for slot in
                        std::iter::once(serving).chain(plane.candidates[serving].iter().copied())
                    {
                        let slot32 = slot as u32;
                        if !subset.contains(&slot32) {
                            subset.push(slot32);
                        }
                    }
                }
                // Edge UEs: the means of the extra nearest cells.
                probe.time(span::BUDGET, || {
                    for (j, &i) in active.iter().enumerate() {
                        if !edge[j] {
                            continue;
                        }
                        let serving = ues[i].as_ref().expect("UE is live").serving;
                        let cands = &plane.candidates[serving];
                        for &slot in &subsets[j] {
                            let slot = slot as usize;
                            if slot != serving && !cands.contains(&slot) {
                                means[j * n + slot] = plane
                                    .compiled
                                    .received_power_dbm(plane.bs_positions[slot], positions[j]);
                                links += 1;
                            }
                        }
                    }
                });
                probe.count(counter::LINKS, links);
                // The lazy shadowing update of each subset (draws its own
                // innovations).
                probe.time(span::SHADOW, || {
                    for (j, &i) in active.iter().enumerate() {
                        let ue = ues[i].as_mut().expect("UE is live");
                        ue.prev_cum = points[j].cum_km;
                        if ue.last_km.is_empty() {
                            ue.last_km.resize(n, 0.0);
                        }
                        ue.shadow.advance_subset(
                            &subsets[j],
                            points[j].cum_km,
                            &mut ue.last_km,
                            &mut ue.rng,
                        );
                    }
                });
                let subset_slots: u64 = subsets.iter().map(|s| s.len() as u64).sum();
                if shadow_draws > 0 {
                    probe.count(counter::GAUSSIANS, subset_slots);
                }
                // The subset's measurement noise, combined into readings.
                probe.time(span::GAUSSIAN, || {
                    for (j, &i) in active.iter().enumerate() {
                        let ue = ues[i].as_mut().expect("UE is live");
                        measure_pruned(cfg, ue, &means[j * n..(j + 1) * n], &subsets[j]);
                    }
                });
                if noise_draws > 0 {
                    probe.count(counter::GAUSSIANS, subset_slots);
                    probe.count(counter::FILLED, subset_slots);
                }
            }
        }
        reports.clear();
        for (j, &i) in active.iter().enumerate() {
            reports.push(report_of(
                cfg,
                plane,
                ues[i].as_ref().expect("UE is live"),
                points[j],
            ));
        }

        // Decision front half: the fuzzy pre-gate, or a baseline's whole
        // decision.
        pending.clear();
        batch_inputs.clear();
        batch_prev.clear();
        let front = if chunk_plan.is_some() {
            span::PREGATE
        } else {
            span::DECIDE
        };
        let mut resolved = 0u64;
        let mut fuzzy_calls = 0u64;
        probe.time(front, || {
            for (j, &i) in active.iter().enumerate() {
                let ue = ues[i].as_mut().expect("UE is live");
                let report = &reports[j];
                let state = match ue.policy.as_fuzzy() {
                    Some(fuzzy) => {
                        fuzzy_calls += 1;
                        match fuzzy.decide_pre(report) {
                            FlcStage::Resolved(decision) => {
                                resolved += 1;
                                Pending::Decided(decision)
                            }
                            FlcStage::NeedsHd {
                                inputs,
                                prev_serving_rss,
                            } => {
                                let batchable = match (&chunk_plan, fuzzy.shared_plan()) {
                                    (Some(chunk), Some(own)) => Arc::ptr_eq(chunk, own),
                                    _ => false,
                                };
                                if batchable {
                                    batch_inputs.extend(inputs.as_array());
                                    batch_prev.push(prev_serving_rss);
                                    Pending::AwaitHd(batch_prev.len() - 1)
                                } else {
                                    // A controller on its own plane
                                    // evaluates by itself.
                                    let hd = fuzzy.evaluate_hd(&inputs);
                                    Pending::Decided(fuzzy.decide_with_hd(
                                        report,
                                        hd,
                                        prev_serving_rss,
                                    ))
                                }
                            }
                        }
                    }
                    None => Pending::Decided(ue.policy.decide(report)),
                };
                pending.push(state);
            }
        });
        probe.count(counter::PREGATE_CALLS, fuzzy_calls);
        probe.count(counter::PREGATE_RESOLVED, resolved);

        // One batched FLC evaluation for the chunk step.
        if !batch_prev.is_empty() {
            let fis = chunk_plan
                .as_ref()
                .expect("batched rows imply a chunk plan");
            batch_hd.clear();
            batch_hd.resize(batch_prev.len(), 0.0);
            probe
                .time(span::FLC, || {
                    fis.evaluate_batch(&batch_inputs, &mut batch_hd, scratch)
                })
                .expect("the paper FLC fires on every input");
            probe.count(counter::FLC_ROWS, batch_prev.len() as u64);
        }

        // Decision back half: the FLC threshold and the PRTLC.
        decisions.clear();
        probe.time(span::DECIDE, || {
            for (j, &i) in active.iter().enumerate() {
                decisions.push(match pending[j] {
                    Pending::Decided(decision) => decision,
                    Pending::AwaitHd(k) => {
                        let ue = ues[i].as_mut().expect("UE is live");
                        let fuzzy = ue.policy.as_fuzzy().expect("pending FLC rows are fuzzy");
                        fuzzy.decide_with_hd(&reports[j], batch_hd[k], batch_prev[k])
                    }
                });
            }
        });

        // Commit every step.
        for (j, &i) in active.iter().enumerate() {
            let ue = ues[i].as_mut().expect("UE is live");
            commit(cfg, ue, &reports[j], decisions[j], points[j]);
        }
    }
}

/// The pruned measurement's noise: one bulk tile of gaussians per 64
/// subset slots, combined with the means and shadowing into readings;
/// unmeasured cells read −∞.
fn measure_pruned(cfg: &SimConfig, ue: &mut Ue, means: &[f64], subset: &[u32]) {
    ue.measured.clear();
    ue.measured.resize(means.len(), f64::NEG_INFINITY);
    if cfg.noise.sigma_db == 0.0 {
        for &slot in subset {
            let k = slot as usize;
            ue.measured[k] = means[k] + ue.shadow.values()[k];
        }
        return;
    }
    let sigma = cfg.noise.sigma_db;
    let mut draws = [0.0f64; 64];
    for slot_tile in subset.chunks(draws.len()) {
        let tile = &mut draws[..slot_tile.len()];
        standard_normal_fill(tile, &mut ue.rng);
        for (&slot, &normal) in slot_tile.iter().zip(tile.iter()) {
            let k = slot as usize;
            ue.measured[k] = means[k] + ue.shadow.values()[k] + sigma * normal;
        }
    }
}

/// The step's report: serving reading, strongest speed-penalised
/// candidate, distances.
fn report_of(cfg: &SimConfig, plane: &Plane, ue: &Ue, point: TracePoint) -> MeasurementReport {
    let cells = cfg.layout.cells();
    let serving = cells[ue.serving];
    let (neighbor_idx, neighbor_rss) = plane.candidates[ue.serving]
        .iter()
        .map(|&k| (k, ue.measured[k] - plane.penalty_db))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("RSS is finite"))
        .expect("layouts have at least two cells");
    let neighbor = cells[neighbor_idx];
    MeasurementReport {
        serving,
        serving_rss_dbm: ue.measured[ue.serving],
        neighbor,
        neighbor_rss_dbm: neighbor_rss,
        distance_to_serving_km: cfg.layout.distance_to_bs(serving, point.pos),
        distance_to_neighbor_km: cfg.layout.distance_to_bs(neighbor, point.pos),
    }
}

/// Execute the decision and account the step.
fn commit(
    cfg: &SimConfig,
    ue: &mut Ue,
    report: &MeasurementReport,
    decision: Decision,
    point: TracePoint,
) {
    let hd = match decision {
        Decision::Handover { hd, .. } => Some(hd),
        Decision::Stay(StayReason::BelowThreshold { hd })
        | Decision::Stay(StayReason::SignalRecovering { hd }) => Some(hd),
        Decision::Stay(_) => None,
    };
    if let Decision::Handover { target, hd } = decision {
        ue.log.record_handover(HandoverEvent {
            step: ue.steps as usize,
            at_km: point.cum_km,
            from: report.serving,
            to: target,
            hd,
        });
        ue.policy.notify_handover(target);
        ue.serving = cfg
            .layout
            .cells()
            .iter()
            .position(|&c| c == target)
            .expect("handover target is in the layout");
    }
    ue.log
        .record_step(report.serving_rss_dbm < cfg.outage_threshold_dbm);
    ue.steps += 1;
    if let Some(hd) = hd {
        ue.hd_sum += hd;
        ue.hd_count += 1;
    }
}

fn finish(cfg: &SimConfig, ue: &Ue) -> ReplayOutcome {
    ReplayOutcome {
        ue_id: ue.id,
        steps: ue.steps,
        handovers: ue.log.handover_count() as u64,
        ping_pongs: ue
            .log
            .ping_pong_report(cfg.pingpong_window_steps)
            .ping_pongs as u64,
        outage_steps: ue.log.outage_step_count() as u64,
        hd_sum: ue.hd_sum,
        hd_count: ue.hd_count,
    }
}

/// Compare replay outcomes with the engine's, bit for bit; returns the
/// first mismatch.
pub fn parity(
    replayed: &[ReplayOutcome],
    engine: &[handover_sim::fleet::UeOutcome],
) -> Result<(), String> {
    if replayed.len() != engine.len() {
        return Err(format!(
            "replay produced {} outcomes, the engine {}",
            replayed.len(),
            engine.len()
        ));
    }
    for (r, e) in replayed.iter().zip(engine) {
        let same = r.ue_id == e.ue_id
            && r.steps == e.steps
            && r.handovers == e.handovers
            && r.ping_pongs == e.ping_pongs
            && r.outage_steps == e.outage_steps
            && r.hd_count == e.hd_count
            && r.hd_sum.to_bits() == e.hd_sum.to_bits();
        if !same {
            return Err(format!("UE {}: replay {r:?} != engine {e:?}", e.ue_id));
        }
    }
    Ok(())
}
