//! The measurement/decision loop.
//!
//! At every resampled point of the MS trajectory the engine measures the
//! serving-BS and strongest-neighbour RSS (mean propagation + correlated
//! shadowing + measurement noise), applies the paper's speed penalty to
//! the neighbour reading, hands the report to the configured
//! [`HandoverPolicy`], and executes handovers the policy orders.

use cellgeom::{Axial, CellLayout, NeighborIndex, Vec2};
use handover_core::{
    Decision, EventLog, HandoverEvent, HandoverPolicy, MeasurementReport, StayReason,
};
use mobility::{TracePoint, Trajectory};
use radiolink::{
    speed_penalty_db, standard_normal_fill, BsRadio, CompiledBsRadio, MeasurementNoise,
    RssiSmoother, ShadowingConfig, ShadowingLane,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The cellular layout (cells + BS positions).
    pub layout: CellLayout,
    /// Radio parameters shared by every BS.
    pub radio: BsRadio,
    /// Shadow-fading configuration (one independent process per BS).
    pub shadowing: ShadowingConfig,
    /// Measurement noise added to every RSS sample.
    pub noise: MeasurementNoise,
    /// Per-BS RSS smoothing filter applied after the noise (template;
    /// each BS gets its own stateful copy). `RssiSmoother::None` feeds
    /// raw samples to the policy, as the paper does.
    pub smoothing: RssiSmoother,
    /// Spacing of measurement/decision points along the path, in km.
    /// The paper's CSSP magnitudes (1–8 dB per measurement) correspond to
    /// walk-scale intervals, so the default matches the paper's 0.6 km
    /// average walk length (one measurement per walk).
    pub sample_spacing_km: f64,
    /// MS speed in km/h; the paper degrades the *neighbour* RSS by
    /// 2 dB per 10 km/h.
    pub speed_kmh: f64,
    /// Serving RSS below this counts as outage.
    pub outage_threshold_dbm: f64,
    /// Ping-pong detection window, in measurement steps.
    pub pingpong_window_steps: usize,
}

impl SimConfig {
    /// The paper's configuration: 2-ring hexagonal layout with R = 2 km,
    /// 10 W BSs, no fading/noise (the tables add noise explicitly),
    /// stationary MS.
    pub fn paper_default() -> Self {
        SimConfig {
            layout: CellLayout::hexagonal(2.0, 2),
            radio: BsRadio::paper_default(),
            shadowing: ShadowingConfig::none(),
            noise: MeasurementNoise::none(),
            smoothing: RssiSmoother::None,
            sample_spacing_km: 0.6,
            speed_kmh: 0.0,
            outage_threshold_dbm: -110.0,
            pingpong_window_steps: 6,
        }
    }

    /// Typed validation of the measurement-plane configuration: the
    /// sample spacing must be positive and finite, the speed
    /// non-negative and finite, the shadowing and noise sigmas
    /// non-negative and finite (NaN sigmas used to propagate silently
    /// through every RSS sample), the shadowing decorrelation distance
    /// positive whenever shadowing is active, and the outage threshold
    /// never NaN (`-inf` legitimately disables outage accounting).
    pub fn validated(&self) -> Result<(), crate::resilience::ConfigError> {
        use crate::resilience::{require_non_negative, require_positive, ConfigError};
        require_positive("sample spacing", self.sample_spacing_km)?;
        require_non_negative("speed", self.speed_kmh)?;
        require_non_negative("shadowing sigma", self.shadowing.sigma_db)?;
        if self.shadowing.sigma_db > 0.0 {
            require_positive("shadowing decorrelation distance", self.shadowing.decorrelation_km)?;
        }
        require_non_negative("measurement noise sigma", self.noise.sigma_db)?;
        if self.outage_threshold_dbm.is_nan() {
            return Err(ConfigError::NotFinite {
                field: "outage threshold",
                value: self.outage_threshold_dbm,
            });
        }
        require_positive("transmission power", self.radio.tx_power_w)?;
        Ok(())
    }
}

/// One measurement step of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// Path distance from the trajectory start, km.
    pub cum_km: f64,
    /// MS position.
    pub pos: Vec2,
    /// Serving cell at the time of the measurement.
    pub serving: Axial,
    /// Measured serving RSS, dBm.
    pub serving_rss_dbm: f64,
    /// Strongest neighbour cell.
    pub neighbor: Axial,
    /// Measured neighbour RSS (speed penalty applied), dBm.
    pub neighbor_rss_dbm: f64,
    /// MS distance to the serving BS, km.
    pub distance_to_serving_km: f64,
    /// The FLC output if the policy evaluated it this step.
    pub hd: Option<f64>,
    /// Whether a handover was executed at this step.
    pub handover: bool,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Handover events and outage accounting.
    pub log: EventLog,
    /// Every measurement step, in order.
    pub steps: Vec<StepRecord>,
    /// The serving cell at the end of the run.
    pub final_serving: Axial,
}

impl SimResult {
    /// Convenience: number of executed handovers.
    pub fn handover_count(&self) -> usize {
        self.log.handover_count()
    }

    /// HD values observed along the run (steps where the FLC ran).
    pub fn hd_values(&self) -> Vec<f64> {
        self.steps.iter().filter_map(|s| s.hd).collect()
    }
}

/// Precomputed handover-candidate table: for every serving cell (by
/// layout index) the candidate target cells, in decision order — the
/// in-layout neighbours, falling back to every other cell when a rim
/// cell has none. Shared by [`Simulation::run`] and the fleet engine so
/// neither re-derives neighbour lists per step.
#[derive(Debug, Clone)]
pub(crate) struct CandidateTable {
    per_cell: Vec<Vec<usize>>,
}

impl CandidateTable {
    pub(crate) fn new(layout: &CellLayout) -> Self {
        let cells = layout.cells();
        let index_of = |cell: Axial| -> usize {
            cells.iter().position(|&c| c == cell).expect("cell is in the layout")
        };
        let per_cell = cells
            .iter()
            .map(|&serving| {
                let neighbors = layout.neighbors_of(serving);
                if neighbors.is_empty() {
                    cells
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c != serving)
                        .map(|(k, _)| k)
                        .collect()
                } else {
                    neighbors.into_iter().map(index_of).collect()
                }
            })
            .collect();
        CandidateTable { per_cell }
    }

    pub(crate) fn of(&self, serving_idx: usize) -> &[usize] {
        &self.per_cell[serving_idx]
    }
}

/// The outcome of one [`UeState::step`], consumed either into a full
/// [`StepRecord`] (single-UE runs) or into reduced fleet tallies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepOutcome {
    pub serving_before: Axial,
    pub serving_after_idx: usize,
    pub serving_rss_dbm: f64,
    pub neighbor: Axial,
    pub neighbor_rss_dbm: f64,
    pub distance_to_serving_km: f64,
    pub hd: Option<f64>,
    pub handover: bool,
    pub outage: bool,
}

/// Per-UE dynamic simulation state: serving cell, one shadowing lane
/// (one AR(1) process per BS) and one smoothing filter per BS, the UE's
/// private RNG stream, and the event log. [`Simulation::run`] drives
/// exactly one of these; the fleet engine drives thousands, which is what
/// makes a 1-UE fleet bit-identical to a single-trajectory run by
/// construction.
#[derive(Debug)]
pub(crate) struct UeState {
    serving_idx: usize,
    /// SoA bank of per-BS shadowing processes, in layout order (the lane
    /// draws in slot order, so seed determinism is preserved exactly as
    /// the earlier `Vec<ShadowingProcess>` loop did).
    shadow: ShadowingLane,
    smoothers: Vec<RssiSmoother>,
    /// True when `cfg.smoothing` is the pass-through filter — lets the
    /// hot path skip the per-BS smoother loop entirely.
    passthrough_smoothing: bool,
    rng: StdRng,
    log: EventLog,
    /// Scratch buffer of post-noise, post-smoothing measurements.
    measured: Vec<f64>,
    /// Per-BS travelled distance at which the shadowing slot last
    /// advanced — used only by the neighbour-pruned candidate mode, which
    /// advances a slot lazily by `cum_km − last_advanced_km[slot]` when
    /// the cell re-enters the candidate set (exact under the Gudmundson
    /// composition law `ρ(d₁+d₂) = ρ(d₁)·ρ(d₂)`). Empty until the first
    /// pruned step.
    last_advanced_km: Vec<f64>,
    prev_cum: f64,
    steps: usize,
}

impl UeState {
    /// Fresh state at the start of a trajectory; all randomness (shadowing
    /// innovations + measurement noise) flows from `seed`.
    pub(crate) fn new(cfg: &SimConfig, start: Vec2, seed: u64) -> Self {
        let serving_cell = cfg.layout.nearest_cell(start);
        let serving_idx = cfg
            .layout
            .cells()
            .iter()
            .position(|&c| c == serving_cell)
            .expect("nearest cell is in the layout");
        // One stateful smoothing filter per BS (cloned from the template).
        let smoothers = cfg.layout.cells().iter().map(|_| cfg.smoothing.clone()).collect();
        UeState {
            serving_idx,
            shadow: ShadowingLane::new(cfg.shadowing, cfg.layout.len()),
            smoothers,
            passthrough_smoothing: cfg.smoothing == RssiSmoother::None,
            rng: StdRng::seed_from_u64(seed),
            log: EventLog::new(),
            measured: Vec::with_capacity(cfg.layout.len()),
            last_advanced_km: Vec::new(),
            prev_cum: 0.0,
            steps: 0,
        }
    }

    /// Re-initialize this state in place for a new UE (same layout,
    /// fresh trajectory start and seed), reusing every allocation — the
    /// fleet engine's chunk arenas recycle retired states through this
    /// instead of building a new [`UeState`] per UE.
    pub(crate) fn reset(&mut self, cfg: &SimConfig, start: Vec2, seed: u64) {
        let serving_cell = cfg.layout.nearest_cell(start);
        self.serving_idx = cfg
            .layout
            .cells()
            .iter()
            .position(|&c| c == serving_cell)
            .expect("nearest cell is in the layout");
        self.shadow.reset();
        for smoother in &mut self.smoothers {
            smoother.reset();
        }
        self.passthrough_smoothing = cfg.smoothing == RssiSmoother::None;
        self.rng = StdRng::seed_from_u64(seed);
        self.log.clear();
        self.measured.clear();
        self.last_advanced_km.clear();
        self.prev_cum = 0.0;
        self.steps = 0;
    }

    /// Capture the UE's complete dynamic state (serving cell, shadowing
    /// lane, smoother filters, RNG stream, event log, pruned-mode lazy
    /// distances) as plain serializable data — the engine half of a
    /// fleet checkpoint. `measured` is per-step scratch and is rebuilt on
    /// restore.
    pub(crate) fn snapshot(&self) -> crate::checkpoint::UeEngineState {
        crate::checkpoint::UeEngineState {
            serving_idx: self.serving_idx as u32,
            shadow: self.shadow.state(),
            smoothers: self.smoothers.clone(),
            rng: crate::checkpoint::RngCheckpoint::capture(&self.rng),
            log: self.log.clone(),
            last_advanced_km: self.last_advanced_km.clone(),
            prev_cum: self.prev_cum,
            steps: self.steps as u64,
        }
    }

    /// Rebuild a UE from a [`snapshot`](UeState::snapshot) taken under
    /// the same configuration; stepping the restored state draws the
    /// exact random stream and decisions the original would have.
    pub(crate) fn from_snapshot(cfg: &SimConfig, snap: &crate::checkpoint::UeEngineState) -> Self {
        let n = cfg.layout.len();
        assert!(
            (snap.serving_idx as usize) < n,
            "checkpointed serving index {} is outside the {}-cell layout",
            snap.serving_idx,
            n
        );
        assert_eq!(snap.smoothers.len(), n, "one smoother per layout cell");
        assert_eq!(snap.shadow.values.len(), n, "one shadowing slot per layout cell");
        assert!(
            snap.last_advanced_km.is_empty() || snap.last_advanced_km.len() == n,
            "pruned-mode distance vector must be empty or one slot per cell"
        );
        UeState {
            serving_idx: snap.serving_idx as usize,
            shadow: ShadowingLane::from_state(cfg.shadowing, snap.shadow.clone()),
            smoothers: snap.smoothers.clone(),
            passthrough_smoothing: cfg.smoothing == RssiSmoother::None,
            rng: snap.rng.restore(),
            log: snap.log.clone(),
            measured: Vec::with_capacity(n),
            last_advanced_km: snap.last_advanced_km.clone(),
            prev_cum: snap.prev_cum,
            steps: snap.steps as usize,
        }
    }

    pub(crate) fn serving_cell(&self, cfg: &SimConfig) -> Axial {
        cfg.layout.cells()[self.serving_idx]
    }

    /// Layout index of the current serving cell.
    pub(crate) fn serving_index(&self) -> usize {
        self.serving_idx
    }

    pub(crate) fn step_count(&self) -> usize {
        self.steps
    }

    pub(crate) fn into_log(self) -> EventLog {
        self.log
    }

    /// Borrow the event log (the fleet engine reduces outcomes from it
    /// without consuming the state, so the allocation can be recycled).
    pub(crate) fn log(&self) -> &EventLog {
        &self.log
    }

    /// Advance one measurement step. `means_dbm[k]` is the mean (pre-fade,
    /// pre-noise) received power from the layout's `k`-th BS at
    /// `point.pos` — computed by the caller, scalar for single runs and
    /// batched per (BS, UE-chunk) for fleets. `normals` is the caller's
    /// gaussian scratch (see [`UeState::begin_step`]).
    pub(crate) fn step(
        &mut self,
        cfg: &SimConfig,
        candidates: &CandidateTable,
        means_dbm: &[f64],
        point: TracePoint,
        policy: &mut dyn HandoverPolicy,
        normals: &mut Vec<f64>,
    ) -> StepOutcome {
        let report = self.begin_step(cfg, candidates, means_dbm, point, normals);
        let decision = policy.decide(&report);
        self.finish_step(cfg, &report, decision, point, policy)
    }

    /// The measurement half of a step: advance the shadowing processes
    /// and the RNG, measure every BS, pick the strongest neighbour and
    /// build the report. The fleet engine calls this for a whole chunk
    /// before deciding, so the FLC stage can run batched between the
    /// halves; [`UeState::step`] composes the same halves for single
    /// runs, so both draw identical per-UE random streams.
    ///
    /// The whole step's gaussian budget — one shadowing innovation per
    /// cell (σ_shadow > 0), then one noise draw per cell (σ_noise > 0) —
    /// is bulk-generated in a *single* [`standard_normal_fill`] pass into
    /// the caller's `normals` scratch; the shadowing update, the
    /// `(mean + shadow) + σ·noise` combine and the optional smoothing
    /// then run as slice passes. Each gaussian consumes exactly two
    /// `u64`s, so the bulk fill draws the same stream, in the same order,
    /// as advancing the shadowing lane and then applying the noise one
    /// stage at a time.
    ///
    /// The scratch is resized to exactly the draw count, which depends
    /// only on the `SimConfig` sigmas — never on step number, UE, or
    /// chunk — so checkpoint/resume boundaries cannot change how many
    /// draws any UE makes. Nothing in it survives the call, so it is
    /// (correctly) absent from [`UeState::snapshot`].
    pub(crate) fn begin_step(
        &mut self,
        cfg: &SimConfig,
        candidates: &CandidateTable,
        means_dbm: &[f64],
        point: TracePoint,
        normals: &mut Vec<f64>,
    ) -> MeasurementReport {
        let cells = cfg.layout.cells();
        let n = cells.len();
        debug_assert_eq!(means_dbm.len(), n);
        let delta = point.cum_km - self.prev_cum;
        self.prev_cum = point.cum_km;
        let shadow_draws = if cfg.shadowing.sigma_db > 0.0 { n } else { 0 };
        let noise_draws = if cfg.noise.sigma_db > 0.0 { n } else { 0 };
        normals.resize(shadow_draws + noise_draws, 0.0);
        // One bulk gaussian pass covers both measurement stages.
        standard_normal_fill(normals, &mut self.rng);
        self.shadow.advance_all_with(delta, &normals[..shadow_draws]);
        self.measured.clear();
        if noise_draws == 0 {
            self.measured
                .extend(means_dbm.iter().zip(self.shadow.values()).map(|(&m, &s)| m + s));
        } else {
            let sigma = cfg.noise.sigma_db;
            let noise = &normals[shadow_draws..];
            self.measured.extend(
                means_dbm
                    .iter()
                    .zip(self.shadow.values())
                    .zip(noise)
                    .map(|((&m, &s), &e)| (m + s) + sigma * e),
            );
        }
        if !self.passthrough_smoothing {
            for (value, smoother) in self.measured.iter_mut().zip(&mut self.smoothers) {
                *value = smoother.push(*value);
            }
        }
        self.report(cfg, candidates, point, None)
            .expect("layouts have at least two cells")
    }

    /// The neighbour-pruned measurement half: like
    /// [`UeState::begin_step`], but only the cells in `subset` (layout
    /// indices, draw order) are measured — their shadowing slots advance
    /// by their accumulated travelled distance, one noise draw each —
    /// while every other cell's slot just accrues distance for later.
    /// The caller guarantees `subset` covers the serving cell and its
    /// whole candidate table, so the report never reads an unmeasured
    /// value; unmeasured entries are parked at −∞ dBm.
    ///
    /// `means_dbm` entries are read only at `subset` positions.
    pub(crate) fn begin_step_pruned(
        &mut self,
        cfg: &SimConfig,
        candidates: &CandidateTable,
        means_dbm: &[f64],
        point: TracePoint,
        subset: &[u32],
    ) -> MeasurementReport {
        let n = cfg.layout.len();
        // `prev_cum` is only consumed by the dense path, but keeping it
        // current costs nothing and keeps the state coherent.
        self.prev_cum = point.cum_km;
        if self.last_advanced_km.is_empty() {
            self.last_advanced_km.resize(n, 0.0);
        }
        self.measured.clear();
        self.measured.resize(n, f64::NEG_INFINITY);
        self.shadow.advance_subset(
            subset,
            point.cum_km,
            &mut self.last_advanced_km,
            &mut self.rng,
        );
        if cfg.noise.sigma_db == 0.0 {
            // `MeasurementNoise::apply` with σ = 0 passes the reading
            // through and consumes no randomness.
            for &slot in subset {
                let k = slot as usize;
                let raw = means_dbm[k] + self.shadow.values()[k];
                self.measured[k] = if self.passthrough_smoothing {
                    raw
                } else {
                    self.smoothers[k].push(raw)
                };
            }
        } else {
            // Batched noise: draw the subset's gaussians in one bulk tile
            // pass, then combine. Same draws in the same subset order as
            // per-slot `apply` calls (the combine consumes no
            // randomness), and `clean + σ·normal` is `apply`'s exact
            // expression.
            let sigma = cfg.noise.sigma_db;
            let mut draws = [0.0f64; 64];
            for slot_tile in subset.chunks(draws.len()) {
                let tile = &mut draws[..slot_tile.len()];
                standard_normal_fill(tile, &mut self.rng);
                for (&slot, &normal) in slot_tile.iter().zip(tile.iter()) {
                    let k = slot as usize;
                    let raw = means_dbm[k] + self.shadow.values()[k] + sigma * normal;
                    self.measured[k] = if self.passthrough_smoothing {
                        raw
                    } else {
                        self.smoothers[k].push(raw)
                    };
                }
            }
        }
        self.report(cfg, candidates, point, None)
            .expect("layouts have at least two cells")
    }

    /// Build the step's report from the `measured` buffer: the serving
    /// reading (no speed penalty: the paper applies the 2 dB/10 km/h rule
    /// to the neighbour reading), the strongest speed-penalised candidate
    /// of the serving cell, and both distances. Must be called after
    /// [`UeState::begin_step`] / [`UeState::begin_step_pruned`] populated
    /// `measured` for this step; both always measure the whole candidate
    /// table.
    ///
    /// `down` is the fleet engine's BS-failure mask: a masked candidate
    /// is never picked, while the serving reading is reported as-is,
    /// down or not (a failed BS radiates nothing the UE can decide on,
    /// but the report shape stays intact). `None` only when `down` masks
    /// every candidate — no handover target exists this step, and the
    /// caller forces a Stay.
    pub(crate) fn report(
        &self,
        cfg: &SimConfig,
        candidates: &CandidateTable,
        point: TracePoint,
        down: Option<&[bool]>,
    ) -> Option<MeasurementReport> {
        let cells = cfg.layout.cells();
        let serving = cells[self.serving_idx];
        let penalty = speed_penalty_db(cfg.speed_kmh);
        let (neighbor_idx, neighbor_rss) = candidates
            .of(self.serving_idx)
            .iter()
            .filter(|&&k| down.map_or(true, |down| !down[k]))
            .map(|&k| (k, self.measured[k] - penalty))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("RSS is finite"))?;
        let neighbor = cells[neighbor_idx];
        Some(MeasurementReport {
            serving,
            serving_rss_dbm: self.measured[self.serving_idx],
            neighbor,
            neighbor_rss_dbm: neighbor_rss,
            distance_to_serving_km: cfg.layout.distance_to_bs(serving, point.pos),
            distance_to_neighbor_km: cfg.layout.distance_to_bs(neighbor, point.pos),
        })
    }

    /// The commit half of a step: record/execute the decision made on a
    /// [`UeState::begin_step`] report, notify the policy of an executed
    /// handover, and account the step.
    pub(crate) fn finish_step(
        &mut self,
        cfg: &SimConfig,
        report: &MeasurementReport,
        decision: Decision,
        point: TracePoint,
        policy: &mut dyn HandoverPolicy,
    ) -> StepOutcome {
        let cells = cfg.layout.cells();
        let serving_rss = report.serving_rss_dbm;
        let hd = match decision {
            Decision::Handover { hd, .. } => Some(hd),
            Decision::Stay(StayReason::BelowThreshold { hd })
            | Decision::Stay(StayReason::SignalRecovering { hd }) => Some(hd),
            Decision::Stay(_) => None,
        };
        let mut handover = false;
        if let Decision::Handover { target, hd } = decision {
            self.log.record_handover(HandoverEvent {
                step: self.steps,
                at_km: point.cum_km,
                from: report.serving,
                to: target,
                hd,
            });
            policy.notify_handover(target);
            self.serving_idx = cells
                .iter()
                .position(|&c| c == target)
                .expect("handover target is in the layout");
            handover = true;
        }
        let outage = serving_rss < cfg.outage_threshold_dbm;
        self.log.record_step(outage);
        self.steps += 1;

        StepOutcome {
            serving_before: report.serving,
            serving_after_idx: self.serving_idx,
            serving_rss_dbm: serving_rss,
            neighbor: report.neighbor,
            neighbor_rss_dbm: report.neighbor_rss_dbm,
            distance_to_serving_km: report.distance_to_serving_km,
            hd,
            handover,
            outage,
        }
    }
}

/// The simulation engine. Construction compiles the measurement plane
/// once: the link budget ([`BsRadio::compiled`]), the per-cell BS
/// positions, and the [`NeighborIndex`] the fleet engine's pruned
/// candidate mode queries.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    candidates: CandidateTable,
    compiled_radio: CompiledBsRadio,
    bs_positions: Vec<Vec2>,
    neighbor_index: NeighborIndex,
}

impl Simulation {
    /// Build an engine for the given configuration.
    pub fn new(config: SimConfig) -> Self {
        // Route through the typed validation so a bad config panics
        // with the same message the fallible fleet paths report.
        if let Err(err) = config.validated() {
            panic!("{err}");
        }
        let candidates = CandidateTable::new(&config.layout);
        let compiled_radio = config.radio.compiled();
        let bs_positions =
            config.layout.cells().iter().map(|&c| config.layout.bs_position(c)).collect();
        let neighbor_index = NeighborIndex::new(&config.layout);
        Simulation { config, candidates, compiled_radio, bs_positions, neighbor_index }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    pub(crate) fn candidates(&self) -> &CandidateTable {
        &self.candidates
    }

    /// The compiled link budget (shared by every BS of the layout).
    pub(crate) fn compiled_radio(&self) -> &CompiledBsRadio {
        &self.compiled_radio
    }

    /// Per-cell BS positions, in layout order.
    pub(crate) fn bs_positions(&self) -> &[Vec2] {
        &self.bs_positions
    }

    /// The position → nearest-cells index of the layout.
    pub(crate) fn neighbor_index(&self) -> &NeighborIndex {
        &self.neighbor_index
    }

    /// Fill `means_dbm` with the mean (pre-fade, pre-noise) received
    /// power from every BS at `pos`, in layout order — through the
    /// compiled link budget (bit-identical to the scalar
    /// [`BsRadio::received_power_dbm`]).
    pub(crate) fn mean_rss_all(&self, pos: Vec2, means_dbm: &mut [f64]) {
        for (slot, &bs_pos) in means_dbm.iter_mut().zip(&self.bs_positions) {
            *slot = self.compiled_radio.received_power_dbm(bs_pos, pos);
        }
    }

    /// Run the trajectory under `policy`, seeding all randomness
    /// (shadowing + measurement noise) from `seed`.
    pub fn run(
        &self,
        trajectory: &Trajectory,
        policy: &mut dyn HandoverPolicy,
        seed: u64,
    ) -> SimResult {
        let cfg = &self.config;
        let mut ue = UeState::new(cfg, trajectory.start(), seed);
        let mut means = vec![0.0; cfg.layout.len()];
        let mut normals = Vec::with_capacity(2 * cfg.layout.len());
        let mut steps = Vec::new();

        for (idx, point) in trajectory.resample_iter(cfg.sample_spacing_km).enumerate() {
            self.mean_rss_all(point.pos, &mut means);
            let out = ue.step(cfg, &self.candidates, &means, point, policy, &mut normals);
            steps.push(StepRecord {
                step: idx,
                cum_km: point.cum_km,
                pos: point.pos,
                serving: out.serving_before,
                serving_rss_dbm: out.serving_rss_dbm,
                neighbor: out.neighbor,
                neighbor_rss_dbm: out.neighbor_rss_dbm,
                distance_to_serving_km: out.distance_to_serving_km,
                hd: out.hd,
                handover: out.handover,
            });
        }

        let final_serving = ue.serving_cell(cfg);
        SimResult { log: ue.into_log(), steps, final_serving }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use handover_core::{ControllerConfig, FuzzyHandoverController};
    use handover_core::baselines::HysteresisPolicy;
    use mobility::LinearMotion;
    use mobility::MobilityModel;

    fn fuzzy_policy() -> FuzzyHandoverController {
        FuzzyHandoverController::new(ControllerConfig::paper_default(2.0))
    }

    /// Straight east from the origin BS through cell (1,0) into (2,0).
    fn eastbound() -> Trajectory {
        LinearMotion::new(Vec2::ZERO, 0.0, 6.5).generate(&mut StdRng::seed_from_u64(0))
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = Simulation::new(SimConfig::paper_default());
        let t = eastbound();
        let a = sim.run(&t, &mut fuzzy_policy(), 42);
        let b = sim.run(&t, &mut fuzzy_policy(), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn eastbound_crossing_hands_over_in_order() {
        let sim = Simulation::new(SimConfig::paper_default());
        let result = sim.run(&eastbound(), &mut fuzzy_policy(), 1);
        assert!(
            result.handover_count() >= 1,
            "a 6.5 km straight line must leave the origin cell (events: {:?})",
            result.log.events()
        );
        // The serving sequence walks east without ever going back.
        let seq = result.log.serving_sequence(Axial::ORIGIN);
        for w in seq.windows(2) {
            let from = sim.config().layout.bs_position(w[0]).x;
            let to = sim.config().layout.bs_position(w[1]).x;
            assert!(to > from, "eastbound handovers move east: {seq:?}");
        }
        assert_eq!(result.log.ping_pong_report(12).ping_pongs, 0);
    }

    #[test]
    fn handovers_happen_past_the_boundary() {
        // The fuzzy pipeline is conservative: the first handover must not
        // happen before the MS is at least near the cell border
        // (inradius ≈ 1.73 km).
        let sim = Simulation::new(SimConfig::paper_default());
        let result = sim.run(&eastbound(), &mut fuzzy_policy(), 1);
        let first = &result.log.events()[0];
        assert!(first.at_km > 1.6, "first handover at {} km", first.at_km);
        // And not absurdly late either (by 3 km the origin BS is 1.3 km
        // behind the border).
        assert!(first.at_km < 3.2, "first handover at {} km", first.at_km);
    }

    #[test]
    fn stationary_ms_never_hands_over() {
        let sim = Simulation::new(SimConfig::paper_default());
        let t = Trajectory::new(vec![Vec2::new(0.3, 0.2), Vec2::new(0.31, 0.2)]);
        let result = sim.run(&t, &mut fuzzy_policy(), 7);
        assert_eq!(result.handover_count(), 0);
        assert_eq!(result.final_serving, Axial::ORIGIN);
        assert_eq!(result.log.outage_ratio(), 0.0, "near the BS there is no outage");
    }

    #[test]
    fn zero_margin_hysteresis_flips_on_boundary_wobble() {
        // With shadowing on, a 0 dB-margin hysteresis policy flip-flops
        // when the MS lingers at a cell border — the classic ping-pong.
        let mut cfg = SimConfig::paper_default();
        cfg.shadowing = ShadowingConfig { sigma_db: 6.0, decorrelation_km: 0.05 };
        cfg.sample_spacing_km = 0.05;
        let sim = Simulation::new(cfg);
        // Walk along the border between the origin cell and (1,0):
        // x = inradius, y sweeping.
        let border_x = 3.0f64.sqrt(); // inradius for R = 2
        let t = Trajectory::new(vec![
            Vec2::new(border_x, -1.0),
            Vec2::new(border_x, 1.0),
            Vec2::new(border_x, -1.0),
        ]);
        let mut naive = HysteresisPolicy::new(0.0);
        let result = sim.run(&t, &mut naive, 3);
        let pp = result.log.ping_pong_report(sim.config().pingpong_window_steps);
        assert!(pp.handovers >= 2, "naive policy flips: {pp:?}");
        assert!(pp.ping_pongs >= 1, "and ping-pongs: {pp:?}");
    }

    #[test]
    fn fuzzy_resists_boundary_wobble_better_than_naive() {
        let mut cfg = SimConfig::paper_default();
        cfg.shadowing = ShadowingConfig { sigma_db: 6.0, decorrelation_km: 0.05 };
        cfg.sample_spacing_km = 0.05;
        let sim = Simulation::new(cfg);
        let border_x = 3.0f64.sqrt();
        let t = Trajectory::new(vec![
            Vec2::new(border_x, -1.0),
            Vec2::new(border_x, 1.0),
            Vec2::new(border_x, -1.0),
        ]);
        let mut total_naive = 0;
        let mut total_fuzzy = 0;
        for seed in 0..8 {
            let mut naive = HysteresisPolicy::new(0.0);
            total_naive += sim.run(&t, &mut naive, seed).handover_count();
            let mut fuzzy = fuzzy_policy();
            total_fuzzy += sim.run(&t, &mut fuzzy, seed).handover_count();
        }
        assert!(
            total_fuzzy < total_naive,
            "fuzzy ({total_fuzzy}) must hand over less than naive ({total_naive})"
        );
    }

    #[test]
    fn speed_penalty_reduces_neighbor_rss() {
        let mut cfg = SimConfig::paper_default();
        cfg.speed_kmh = 50.0;
        let slow = Simulation::new(SimConfig::paper_default());
        let fast = Simulation::new(cfg);
        let t = Trajectory::new(vec![Vec2::new(1.0, 0.0), Vec2::new(1.1, 0.0)]);
        let a = slow.run(&t, &mut fuzzy_policy(), 5);
        let b = fast.run(&t, &mut fuzzy_policy(), 5);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert!((x.neighbor_rss_dbm - 10.0 - y.neighbor_rss_dbm).abs() < 1e-9);
            assert!((x.serving_rss_dbm - y.serving_rss_dbm).abs() < 1e-9, "serving unaffected");
        }
    }

    #[test]
    fn outage_recorded_far_from_every_bs() {
        let sim = Simulation::new(SimConfig::paper_default());
        // 30 km east of everything.
        let t = Trajectory::new(vec![Vec2::new(30.0, 0.0), Vec2::new(30.3, 0.0)]);
        let mut policy = fuzzy_policy();
        let result = sim.run(&t, &mut policy, 2);
        assert!(result.log.outage_ratio() > 0.99);
    }

    #[test]
    fn step_records_are_consistent() {
        let sim = Simulation::new(SimConfig::paper_default());
        let result = sim.run(&eastbound(), &mut fuzzy_policy(), 9);
        assert_eq!(result.log.step_count(), result.steps.len());
        for w in result.steps.windows(2) {
            assert!(w[1].cum_km > w[0].cum_km);
            assert_eq!(w[1].step, w[0].step + 1);
        }
        let logged = result.steps.iter().filter(|s| s.handover).count();
        assert_eq!(logged, result.handover_count());
        // The neighbour is never the serving cell.
        for s in &result.steps {
            assert_ne!(s.neighbor, s.serving);
        }
    }

    #[test]
    fn smoothing_suppresses_noise_driven_handovers() {
        // Under heavy measurement noise at a cell border, an EWMA filter
        // in front of the controller cuts the handover churn.
        let border_x = 3.0f64.sqrt();
        let walk = Trajectory::new(vec![
            Vec2::new(border_x, -1.0),
            Vec2::new(border_x, 1.0),
            Vec2::new(border_x, -1.0),
        ]);
        let mut raw_cfg = SimConfig::paper_default();
        raw_cfg.noise = radiolink::MeasurementNoise::new(5.0);
        raw_cfg.sample_spacing_km = 0.1;
        let mut smooth_cfg = raw_cfg.clone();
        smooth_cfg.smoothing = radiolink::RssiSmoother::ewma(0.2);

        let raw_sim = Simulation::new(raw_cfg);
        let smooth_sim = Simulation::new(smooth_cfg);
        let mut raw_total = 0;
        let mut smooth_total = 0;
        for seed in 0..10 {
            raw_total += raw_sim.run(&walk, &mut fuzzy_policy(), seed).handover_count();
            smooth_total += smooth_sim.run(&walk, &mut fuzzy_policy(), seed).handover_count();
        }
        assert!(
            smooth_total < raw_total,
            "EWMA smoothing must reduce churn: {smooth_total} vs {raw_total}"
        );
    }

    #[test]
    fn smoothing_none_is_the_default_and_transparent() {
        // With no noise/fading, smoothing (even windowed) leaves the
        // decisions unchanged on clean signals only in the None case;
        // the default config must be None.
        let cfg = SimConfig::paper_default();
        assert_eq!(cfg.smoothing, radiolink::RssiSmoother::None);
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn invalid_spacing_rejected() {
        let mut cfg = SimConfig::paper_default();
        cfg.sample_spacing_km = 0.0;
        let _ = Simulation::new(cfg);
    }
}
