//! The measurement/decision loop.
//!
//! At every resampled point of the MS trajectory the engine measures the
//! serving-BS and strongest-neighbour RSS (mean propagation + correlated
//! shadowing + measurement noise), applies the paper's speed penalty to
//! the neighbour reading, hands the report to the configured
//! [`HandoverPolicy`], and executes handovers the policy orders.
//!
//! # What a step computes
//!
//! `UeState::measure` draws every uniform a step's shadowing and noise
//! consume and advances every shadowing slot it measures, but under
//! pass-through smoothing ([`RssiSmoother::None`]) it computes a link
//! budget and a Box–Muller transform only for the cells
//! `UeState::report` reads: the serving cell and
//! `CandidateTable::of(serving)`, at most 7 of the paper's 19. Every
//! other cell of `measured` is parked at −∞ dBm. The result bits are
//! those of measuring every cell:
//!
//! * **(a) The stream does not move.** The skipped work draws nothing:
//!   the uniforms are drawn in one bulk fill before any transform, two
//!   per gaussian whether or not the gaussian is computed, and the
//!   budget is a pure function of position. Shadowing still advances
//!   every slot, because each slot carries state into later steps.
//! * **(b) `report` is the only reader of `measured`.** Its own reads are
//!   the serving cell and the candidates of the serving cell, and the
//!   serving cell does not change between `measure` and `report`. The
//!   fleet's outage override calls `report(.., Some(down))` over the
//!   same candidate table, so its mask only removes cells from the same
//!   set. Everything after the report reads the [`MeasurementReport`] or
//!   the serving index, never `measured`: the policy decides on the
//!   report, and `finish_step`, the serving-cell traces, the traffic
//!   replay and the load feedback read only the serving index. A
//!   snapshot does not hold `measured` either.
//! * **(c) Stateful smoothers are not pass-through.** An EWMA or window
//!   filter folds every sample into state a later step reads, so under
//!   them every measured cell is computed, as before.
//!
//! The same rule covers both `MeasuredCells` plans. A pruned step
//! measures a subset of the cells that always holds the read set, so
//! only the extra cells an edge UE measures (its nearest cells outside
//! the candidate table) lose their budget and transform.

use cellgeom::{Axial, CellLayout, NeighborIndex, Vec2};
use handover_core::{
    Decision, EventLog, HandoverEvent, HandoverPolicy, MeasurementReport, StayReason,
};
use mobility::{TracePoint, Trajectory};
use radiolink::{
    box_muller, speed_penalty_db, BsRadio, CompiledBsRadio, MeasurementNoise, RssiSmoother,
    ShadowingConfig, ShadowingLane,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

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
/// neither re-derives neighbour lists per step. It also holds every
/// layout index in layout order, the cell list of a dense step.
#[derive(Debug, Clone)]
pub(crate) struct CandidateTable {
    /// Per serving cell: the serving cell itself, then its candidates.
    per_cell: Vec<Vec<usize>>,
    all: Vec<u32>,
}

impl CandidateTable {
    pub(crate) fn new(layout: &CellLayout) -> Self {
        let cells = layout.cells();
        let per_cell = cells
            .iter()
            .enumerate()
            .map(|(own, &serving)| {
                let neighbors: Vec<usize> = serving
                    .neighbors()
                    .iter()
                    .filter_map(|&n| cells.iter().position(|&c| c == n))
                    .collect();
                let candidates = if neighbors.is_empty() {
                    (0..cells.len()).filter(|&k| cells[k] != serving).collect()
                } else {
                    neighbors
                };
                std::iter::once(own).chain(candidates).collect()
            })
            .collect();
        CandidateTable { per_cell, all: (0..cells.len() as u32).collect() }
    }

    /// The handover candidates of the serving cell `serving_idx`.
    pub(crate) fn of(&self, serving_idx: usize) -> &[usize] {
        &self.per_cell[serving_idx][1..]
    }

    /// The cells [`UeState::report`] reads when `serving_idx` serves:
    /// the serving cell, then its candidates.
    pub(crate) fn reads(&self, serving_idx: usize) -> &[usize] {
        &self.per_cell[serving_idx]
    }

    /// Every layout index, in layout order.
    pub(crate) fn all(&self) -> &[u32] {
        &self.all
    }
}

/// The cells one [`UeState::measure`] call measures, which also fixes
/// how the shadowing lane advances.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MeasuredCells<'a> {
    /// Every cell, in layout order: every shadowing slot advances by the
    /// distance travelled since the previous step.
    All,
    /// A neighbour-pruned subset of layout indices, in draw order: each
    /// listed slot advances by the distance it accrued since it was last
    /// measured, while unlisted slots keep accruing.
    Subset(&'a [u32]),
}

/// Per-UE dynamic simulation state: serving cell, one shadowing lane
/// (one AR(1) process per BS) and one smoothing filter per BS, the UE's
/// private RNG stream, and the event log. [`Simulation::run`] drives
/// exactly one of these; the fleet engine drives thousands, which is what
/// makes a 1-UE fleet bit-identical to a single-trajectory run by
/// construction. Every candidate mode measures through the one
/// [`UeState::measure`] routine; only the [`MeasuredCells`] plan
/// differs.
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
    /// Scratch buffer of post-noise, post-smoothing measurements, one
    /// per cell (−∞ dBm for a cell the step did not measure).
    measured: Vec<f64>,
    /// Per-BS travelled distance at which the shadowing slot last
    /// advanced — used only by the neighbour-pruned candidate mode, which
    /// advances a slot lazily by `cum_km − last_advanced_km[slot]` when
    /// the cell re-enters the candidate set (exact under the Gudmundson
    /// composition law `ρ(d₁+d₂) = ρ(d₁)·ρ(d₂)`). Empty until the first
    /// pruned step, so a UE that only takes dense steps snapshots none.
    last_advanced_km: Vec<f64>,
    /// Travelled distance of the previous step; a dense step advances
    /// every slot by the difference.
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
    /// exact random stream and decisions the original would have. The
    /// snapshot's lanes must fit `cfg`'s layout, which every resume entry
    /// checks first ([`FleetCheckpoint::check_engine`]).
    ///
    /// [`FleetCheckpoint::check_engine`]: crate::checkpoint::FleetCheckpoint::check_engine
    pub(crate) fn from_snapshot(cfg: &SimConfig, snap: &crate::checkpoint::UeEngineState) -> Self {
        let n = cfg.layout.len();
        debug_assert!(
            snap.smoothers.len() == n && (snap.serving_idx as usize) < n,
            "resume entries run FleetCheckpoint::check_engine before restoring a UE"
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

    /// The measurement half of a step: advance the shadowing processes
    /// and the RNG, measure `cells`, pick the strongest neighbour and
    /// build the report. The fleet engine calls this for a whole chunk
    /// before deciding, so the FLC stage can run batched between the
    /// halves; [`Simulation::run`] composes the same halves one step at
    /// a time, so both draw identical per-UE random streams.
    ///
    /// `means_dbm[k]` is the mean received power from the layout's `k`-th
    /// BS. On entry it must hold the cells the report reads
    /// ([`Simulation::mean_rss_read`]); a stateful smoother's other
    /// measured cells are filled here. The plan fixes the draws and how
    /// the shadowing lane advances (see [`MeasuredCells`]); then one pass
    /// combines `(mean + shadow) + σ·noise` per computed cell and the
    /// optional smoother filters it. Every other cell is parked at −∞
    /// dBm. A stateful smoother computes every measured cell, since each
    /// filter must see each sample; under pass-through smoothing only the
    /// serving cell and its candidates are computed, because nothing
    /// else reads them (the module docs carry the proof). Either way the
    /// report never reads a parked value.
    ///
    /// The uniforms go into the caller's `uniforms` scratch: a dense step
    /// draws every pair (shadowing innovations, then noise) in one bulk
    /// fill, a pruned step its noise pairs after the lane's own draws.
    /// Each gaussian consumes exactly two `u64`s and is [`box_muller`]
    /// of its pair, so the stream is the one a per-BS `ShadowingProcess`
    /// then `MeasurementNoise::apply` loop draws, whichever cells are
    /// computed. The scratch length depends only on the `SimConfig`
    /// sigmas and the measured set — never on step number or chunk — and
    /// nothing in it survives the call, so it is (correctly) absent from
    /// [`UeState::snapshot`].
    pub(crate) fn measure(
        &mut self,
        sim: &Simulation,
        point: TracePoint,
        cells: MeasuredCells<'_>,
        means_dbm: &mut [f64],
        uniforms: &mut Vec<f64>,
    ) -> MeasurementReport {
        let cfg = sim.config();
        let n = cfg.layout.len();
        let sigma = cfg.noise.sigma_db;
        let noise_pairs = |cells: usize| if sigma > 0.0 { 2 * cells } else { 0 };
        let (slots, noise) = match cells {
            MeasuredCells::All => {
                // One bulk fill covers both stages: a uniform pair per
                // shadowing innovation, then a pair per noise draw.
                let shadow_pairs = if cfg.shadowing.sigma_db > 0.0 { 2 * n } else { 0 };
                uniforms.resize(shadow_pairs + noise_pairs(n), 0.0);
                self.rng.fill_standard_uniform(uniforms);
                let (innovations, noise) = uniforms.split_at_mut(shadow_pairs);
                // In place: innovation `j` lands on slot `j <= 2j`, whose
                // pair was already read.
                for j in 0..shadow_pairs / 2 {
                    innovations[j] = box_muller(1.0 - innovations[2 * j], innovations[2 * j + 1]);
                }
                let delta = point.cum_km - self.prev_cum;
                self.shadow.advance_all_with(delta, &innovations[..shadow_pairs / 2]);
                (sim.candidates().all(), &*noise)
            }
            MeasuredCells::Subset(subset) => {
                if self.last_advanced_km.is_empty() {
                    self.last_advanced_km.resize(n, 0.0);
                }
                let last_km = &mut self.last_advanced_km;
                self.shadow.advance_subset(subset, point.cum_km, last_km, &mut self.rng);
                uniforms.resize(noise_pairs(subset.len()), 0.0);
                self.rng.fill_standard_uniform(uniforms);
                (subset, &uniforms[..])
            }
        };
        self.prev_cum = point.cum_km;
        self.measured.clear();
        self.measured.resize(n, f64::NEG_INFINITY);
        let passthrough = self.passthrough_smoothing;
        let reads = sim.candidates().reads(self.serving_idx);
        let (measured, smoothers) = (&mut self.measured, &mut self.smoothers);
        let shadow = self.shadow.values();
        // Cell `k`'s reading from its noise pair `j` (its draw index).
        // `MeasurementNoise::apply` with σ = 0 passes the reading through
        // and draws nothing.
        let mut compute = |j: usize, k: usize, mean: f64| {
            let clean = mean + shadow[k];
            let sample = if sigma == 0.0 {
                clean
            } else {
                clean + sigma * box_muller(1.0 - noise[2 * j], noise[2 * j + 1])
            };
            measured[k] = if passthrough { sample } else { smoothers[k].push(sample) };
        };
        // The computed set, decided here only: every measured cell for a
        // stateful smoother, else the measured cells `report` reads.
        if passthrough && matches!(cells, MeasuredCells::All) {
            // A dense step's draw index is the cell's layout index.
            reads.iter().for_each(|&k| compute(k, k, means_dbm[k]));
        } else {
            for (j, &slot) in slots.iter().enumerate() {
                let k = slot as usize;
                if !reads.contains(&k) {
                    if passthrough {
                        continue;
                    }
                    means_dbm[k] = sim.mean_rss(k, point.pos);
                }
                compute(j, k, means_dbm[k]);
            }
        }
        // `validate_planes` requires two distinct cells, so every
        // candidate list is non-empty.
        self.report(cfg, sim.candidates(), point, None).expect("layouts have at least two cells")
    }

    /// Build the step's report from the `measured` buffer: the serving
    /// reading (no speed penalty: the paper applies the 2 dB/10 km/h rule
    /// to the neighbour reading), the strongest speed-penalised candidate
    /// of the serving cell, and both distances. Must be called after
    /// [`UeState::measure`] populated `measured` for this step; it always
    /// measures the whole candidate table.
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
    /// [`UeState::measure`] report, notify the policy of an executed
    /// handover, and account the step. Returns the decision's HD, if the
    /// policy evaluated one; the new serving cell is
    /// [`UeState::serving_index`].
    pub(crate) fn finish_step(
        &mut self,
        cfg: &SimConfig,
        report: &MeasurementReport,
        decision: Decision,
        point: TracePoint,
        policy: &mut dyn HandoverPolicy,
    ) -> Option<f64> {
        let cells = cfg.layout.cells();
        let hd = match decision {
            Decision::Handover { hd, .. } => Some(hd),
            Decision::Stay(StayReason::BelowThreshold { hd })
            | Decision::Stay(StayReason::SignalRecovering { hd }) => Some(hd),
            Decision::Stay(_) => None,
        };
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
        }
        self.log.record_step(report.serving_rss_dbm < cfg.outage_threshold_dbm);
        self.steps += 1;
        hd
    }
}

/// The simulation engine. Construction compiles the measurement plane
/// once: the link budget ([`BsRadio::compiled`]) and the per-cell BS
/// positions. The [`NeighborIndex`] is built on the first pruned
/// candidate query, so a dense engine never pays for it.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    candidates: CandidateTable,
    compiled_radio: CompiledBsRadio,
    bs_positions: Vec<Vec2>,
    neighbor_index: OnceLock<NeighborIndex>,
}

impl Simulation {
    /// Build an engine for the given configuration.
    ///
    /// # Panics
    ///
    /// On a configuration that fails [`SimConfig::validated`], with the
    /// message the fallible fleet entries report as
    /// [`FleetError::InvalidConfig`](crate::fleet::FleetError::InvalidConfig).
    /// [`Simulation::run`] has no error channel, so a single-UE caller
    /// learns of a bad config here.
    pub fn new(config: SimConfig) -> Self {
        if let Err(err) = config.validated() {
            panic!("{err}");
        }
        Simulation::from_validated(config)
    }

    /// Compile the measurement plane of a configuration the caller has
    /// already validated ([`crate::resilience::validate_planes`], as
    /// every fleet run entry does); checks nothing itself.
    pub(crate) fn from_validated(config: SimConfig) -> Self {
        let candidates = CandidateTable::new(&config.layout);
        let compiled_radio = config.radio.compiled();
        let bs_positions =
            config.layout.cells().iter().map(|&c| config.layout.bs_position(c)).collect();
        let neighbor_index = OnceLock::new();
        Simulation { config, candidates, compiled_radio, bs_positions, neighbor_index }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    pub(crate) fn candidates(&self) -> &CandidateTable {
        &self.candidates
    }

    /// The position → nearest-cells index of the layout.
    pub(crate) fn neighbor_index(&self) -> &NeighborIndex {
        self.neighbor_index.get_or_init(|| NeighborIndex::new(&self.config.layout))
    }

    /// The mean (pre-fade, pre-noise) received power from the layout's
    /// `k`-th BS at `pos`, through the compiled link budget
    /// (bit-identical to the scalar [`BsRadio::received_power_dbm`]).
    pub(crate) fn mean_rss(&self, k: usize, pos: Vec2) -> f64 {
        self.compiled_radio.received_power_dbm(self.bs_positions[k], pos)
    }

    /// Fill `means_dbm` at the cells a report reads while `serving`
    /// serves — the serving cell and its candidates — which is what
    /// [`UeState::measure`] expects on entry.
    pub(crate) fn mean_rss_read(&self, pos: Vec2, serving: usize, means_dbm: &mut [f64]) {
        for &k in self.candidates.reads(serving) {
            means_dbm[k] = self.mean_rss(k, pos);
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
        // Two uniforms per gaussian; a dense step draws at most two
        // gaussians per cell (shadowing and noise).
        let mut uniforms = Vec::with_capacity(4 * cfg.layout.len());
        let mut steps = Vec::new();

        for (idx, point) in trajectory.resample_iter(cfg.sample_spacing_km).enumerate() {
            self.mean_rss_read(point.pos, ue.serving_index(), &mut means);
            let all = MeasuredCells::All;
            let report = ue.measure(self, point, all, &mut means, &mut uniforms);
            let decision = policy.decide(&report);
            let hd = ue.finish_step(cfg, &report, decision, point, policy);
            steps.push(StepRecord {
                step: idx,
                cum_km: point.cum_km,
                pos: point.pos,
                serving: report.serving,
                serving_rss_dbm: report.serving_rss_dbm,
                neighbor: report.neighbor,
                neighbor_rss_dbm: report.neighbor_rss_dbm,
                distance_to_serving_km: report.distance_to_serving_km,
                hd,
                handover: decision.is_handover(),
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

    /// A pruned measurement set for `step`: two rotating extra cells,
    /// then the candidates in reverse, then the serving cell — so draw
    /// order is not layout order, and cells drop out and re-enter.
    fn rotating_subset(sim: &Simulation, serving: usize, step: usize) -> Vec<u32> {
        let n = sim.config().layout.len();
        let mut cells = Vec::new();
        let extras = [(5 * step) % n, (7 * step + 3) % n];
        let must = sim.candidates().of(serving).iter().rev().copied().chain([serving]);
        for k in extras.into_iter().chain(must) {
            if !cells.contains(&(k as u32)) {
                cells.push(k as u32);
            }
        }
        cells
    }

    /// Walk one UE from `start` through [`UeState::measure`] and, on an
    /// identically seeded stream, through a one-draw-at-a-time scalar
    /// reference: per-BS `ShadowingProcess::advance` over every cell
    /// (dense) or `ShadowingLane::advance_one` by each slot's accrued
    /// distance over a rotating subset (pruned), then
    /// `MeasurementNoise::apply` and `RssiSmoother::push` per measured
    /// cell. Every shadowing slot must match bit for bit, and so must the
    /// smoother states and the stream position at the end. The measured
    /// values must match on the computed cells — every measured cell
    /// under a stateful smoother, the cells `report` reads under
    /// pass-through smoothing — and every other cell must be parked at
    /// −∞.
    fn check_against_scalar_reference(cfg: &SimConfig, start: Vec2, pruned: bool) {
        use radiolink::ShadowingProcess;
        let label = format!(
            "{:?} {:?} {:?} {} cells from {start:?} pruned={pruned}",
            cfg.shadowing,
            cfg.noise,
            cfg.smoothing,
            cfg.layout.len()
        );
        let walk = Trajectory::new(vec![start, start + Vec2::new(2.7, 1.2)]);
        let sim = Simulation::new(cfg.clone());
        let n = cfg.layout.len();
        let mut ue = UeState::new(cfg, walk.start(), 11);
        let serving = ue.serving_index();
        let reads = sim.candidates().reads(serving);
        let passthrough = cfg.smoothing == RssiSmoother::None;
        let mut rng = StdRng::seed_from_u64(11);
        let mut procs = vec![ShadowingProcess::new(cfg.shadowing); n];
        let mut lane = ShadowingLane::new(cfg.shadowing, n);
        let mut filters = vec![cfg.smoothing.clone(); n];
        let (mut last_km, mut prev_cum) = (vec![0.0; n], 0.0);
        let (mut means, mut uniforms, mut shadow) = (vec![0.0; n], Vec::new(), vec![0.0; n]);
        for (step, point) in walk.resample_iter(cfg.sample_spacing_km).enumerate() {
            let expected_means: Vec<f64> = (0..n).map(|k| sim.mean_rss(k, point.pos)).collect();
            means.fill(f64::NAN);
            sim.mean_rss_read(point.pos, serving, &mut means);
            let subset = rotating_subset(&sim, serving, step);
            let (plan, cells) = if pruned {
                (MeasuredCells::Subset(&subset), subset.as_slice())
            } else {
                (MeasuredCells::All, sim.candidates().all())
            };
            let report = ue.measure(&sim, point, plan, &mut means, &mut uniforms);
            if pruned {
                for &slot in cells {
                    let k = slot as usize;
                    shadow[k] = lane.advance_one(k, point.cum_km - last_km[k], &mut rng);
                    last_km[k] = point.cum_km;
                }
            } else {
                for (value, process) in shadow.iter_mut().zip(&mut procs) {
                    *value = process.advance(point.cum_km - prev_cum, &mut rng);
                }
                prev_cum = point.cum_km;
            }
            let mut expected = vec![f64::NEG_INFINITY; n];
            for &slot in cells {
                let k = slot as usize;
                let sample = cfg.noise.apply(expected_means[k] + shadow[k], &mut rng);
                let reading = filters[k].push(sample);
                if !passthrough || reads.contains(&k) {
                    expected[k] = reading;
                }
            }
            for k in 0..n {
                let at = format!("{label}: step {step} cell {k}");
                assert_eq!(ue.measured[k].to_bits(), expected[k].to_bits(), "{at}");
                assert_eq!(ue.shadow.values()[k].to_bits(), shadow[k].to_bits(), "{at}");
            }
            assert_eq!(report.serving_rss_dbm.to_bits(), ue.measured[serving].to_bits());
        }
        assert_eq!(ue.smoothers, filters, "{label}");
        assert_eq!(ue.rng.next_u64(), rng.next_u64(), "{label}: same draw count");
    }

    /// [`check_against_scalar_reference`] for shadowing and noise each
    /// on and off, every smoother kind, dense and pruned, from an
    /// interior serving cell and a rim one (a short candidate table) on
    /// the paper's 19-cell layout and the 7-cell one-ring layout.
    #[test]
    fn measurement_matches_scalar_reference_bit_for_bit() {
        let smoothers = [RssiSmoother::None, RssiSmoother::ewma(0.3), RssiSmoother::window(3)];
        for layout in [CellLayout::hexagonal(2.0, 2), CellLayout::hexagonal(2.0, 1)] {
            let rim = *layout.cells().last().expect("a non-empty layout");
            let starts = [Vec2::new(0.2, 0.1), layout.bs_position(rim) + Vec2::new(0.2, 0.1)];
            let table = CandidateTable::new(&layout);
            assert!(table.of(layout.len() - 1).len() < table.of(0).len(), "a short rim table");
            for (shadow_sigma, noise_sigma) in [(0.0, 0.0), (0.0, 1.0), (4.0, 0.0), (4.0, 1.0)] {
                for smoothing in &smoothers {
                    let cfg = SimConfig {
                        layout: layout.clone(),
                        shadowing: ShadowingConfig {
                            sigma_db: shadow_sigma,
                            decorrelation_km: 0.3,
                        },
                        noise: MeasurementNoise::new(noise_sigma),
                        smoothing: smoothing.clone(),
                        sample_spacing_km: 0.1,
                        ..SimConfig::paper_default()
                    };
                    for start in starts {
                        check_against_scalar_reference(&cfg, start, false);
                        check_against_scalar_reference(&cfg, start, true);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn invalid_spacing_rejected() {
        let mut cfg = SimConfig::paper_default();
        cfg.sample_spacing_km = 0.0;
        let _ = Simulation::new(cfg);
    }
}
