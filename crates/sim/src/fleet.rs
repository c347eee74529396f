//! Multi-UE fleet simulation: N mobile stations (hundreds to millions)
//! stepping concurrently through one shared [`CellLayout`].
//!
//! ## Architecture
//!
//! * **Struct-of-arrays UE store** — each worker holds its chunk of UEs
//!   as parallel vectors (trajectory cursor, per-UE engine state with
//!   position / serving cell / smoother + shadowing state, policy,
//!   tally), never the whole fleet, so memory stays proportional to
//!   `workers × chunk_size`, not to the fleet size. Retired UE states are
//!   recycled through a per-worker arena (reset in place, every
//!   allocation reused), so a million-UE run performs a bounded number
//!   of state allocations.
//! * **Compiled measurement plane** — per measurement step the mean path
//!   loss is computed per (BS, UE-chunk) through the compiled link budget
//!   ([`radiolink::CompiledBsRadio`], every position-independent term
//!   folded once per run), and each UE's shadowing and noise draws come
//!   from one bulk gaussian fill — the same measurement kernel
//!   [`Simulation::run`] uses, so both paths are bit-identical. The
//!   opt-in [`CandidateMode::Nearest`] prunes the dense `cells × chunk`
//!   sweep to the cells near each UE, and [`CandidateMode::EdgeSet`]
//!   further restricts the full sweep to *cell-edge* UEs (see its docs).
//! * **Per-UE deterministic RNG streams** — UE `i`'s measurement
//!   randomness is seeded with [`ue_seed`]`(base_seed, i)`. UE 0 uses
//!   `base_seed` exactly, which is what makes a 1-UE fleet reproduce
//!   [`Simulation::run`] bit for bit; later UEs take golden-ratio-strided
//!   seeds (`StdRng::seed_from_u64` mixes them into independent ChaCha
//!   streams).
//! * **Sharded parallel stepping** — UE ids are split round-robin over
//!   crossbeam workers, exactly like `monte_carlo`'s repetition sharding.
//!   Because every UE owns its stream and the merge sorts outcomes by UE
//!   id before folding the `f64` aggregates, the result is bit-identical
//!   for any worker count, chunk size, or UE submission order. Worker
//!   panics are caught and surfaced as [`FleetError::WorkerPanic`].
//! * **One fallible run surface** — [`FleetSimulation::try_run_ids`]
//!   runs an id set to completion; [`FleetSimulation::advance`] freezes
//!   a fresh run, or continues a [`FleetCheckpoint`] (per-UE engine +
//!   policy + RNG stream state), up to a lockstep step bound;
//!   [`FleetSimulation::try_resume`] finishes a checkpoint. Any chain of
//!   `advance` bounds ending in `try_resume` is bit-identical to the
//!   uninterrupted run, for any worker count and chunk size on every
//!   segment. [`FleetSimulation::run_supervised`] builds recovery on
//!   top of them.
//! * **Streaming aggregation** — [`FleetSimulation::run_streamed`]
//!   generates UE ids lazily and folds each chunk's outcomes into a
//!   running [`FleetSummary`] + load histogram instead of materializing
//!   the per-UE outcome vector, so fleet size no longer bounds memory;
//!   the `f64` HD sum is still folded in global UE-id order, keeping the
//!   aggregate bit-identical to [`FleetSimulation::try_run_ids`].
//!
//! [`CellLayout`]: cellgeom::CellLayout

use crate::checkpoint::{CheckpointError, FleetCheckpoint, UeCheckpoint, CHECKPOINT_VERSION};
use crate::dynamics::DynamicsConfig;
use crate::engine::{SimConfig, Simulation, UeState};
use crate::resilience::{validate_planes, ConfigError, FaultInjector};
use crate::traffic::{replay_traffic_dynamic, TrafficConfig, UeTrace};
use cellgeom::Axial;
use fuzzylogic::{CompiledFis, EvalScratch};
use handover_core::baselines::{
    HysteresisPolicy, HysteresisThresholdPolicy, LoadAwareHysteresisPolicy, ThresholdPolicy,
};
use handover_core::{
    jain_index, paper_flc_lut, CellLoadHistogram, ControllerConfig, Decision, DynamicReport,
    DynamicTrafficStats, FleetSummary, FlcStage, FuzzyHandoverController, HandoverPolicy,
    LatencyPercentiles, LoadField, MeasurementReport, StayReason, TrafficReport,
};
/// The walk type [`UeSpec::trajectory`] returns.
pub use mobility::Trajectory;
use mobility::{GaussMarkov, ManhattanGrid, MobilityModel, RandomWalk, RandomWaypoint};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by the fleet entry points
/// ([`FleetSimulation::try_run_ids`] and friends) and the supervised runner
/// ([`FleetSimulation::run_supervised`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A worker thread panicked while stepping its shard. The payload's
    /// panic message is preserved; the other workers' partial results are
    /// discarded.
    WorkerPanic(String),
    /// The engine's configuration (simulation, traffic or dynamics
    /// plane) failed typed validation.
    InvalidConfig(ConfigError),
    /// A checkpoint could not be validated or unsealed — wrong version,
    /// bit-rot, truncation, or a plane mismatch with this engine.
    CorruptCheckpoint(CheckpointError),
    /// The virtual watchdog saw more stall delay in one supervised
    /// segment than the policy's deadline allows.
    WorkerStalled {
        /// Virtual stall delay the segment accumulated, in steps.
        stalled_steps: u64,
        /// The watchdog deadline it exceeded.
        deadline_steps: u64,
    },
    /// The supervised runner exhausted its retry budget; `last` is the
    /// error of the final failed attempt.
    RetriesExhausted {
        /// Failed attempts consumed (one more than the budget).
        attempts: u32,
        /// The last attempt's error.
        last: Box<FleetError>,
    },
}

impl FleetError {
    /// Whether [`FleetSimulation::run_supervised`] may retry after this
    /// error. Panics, stalls and corrupt snapshots are transient (the
    /// segment replays from the last good snapshot); a bad
    /// configuration or an exhausted budget is permanent.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            FleetError::WorkerPanic(_)
                | FleetError::WorkerStalled { .. }
                | FleetError::CorruptCheckpoint(_)
        )
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::WorkerPanic(msg) => write!(f, "fleet worker panicked: {msg}"),
            FleetError::InvalidConfig(err) => write!(f, "invalid configuration: {err}"),
            FleetError::CorruptCheckpoint(err) => {
                write!(f, "corrupt or unrestorable checkpoint: {err}")
            }
            FleetError::WorkerStalled { stalled_steps, deadline_steps } => write!(
                f,
                "fleet worker stalled: {stalled_steps} virtual steps of delay exceeded \
                 the {deadline_steps}-step watchdog deadline"
            ),
            FleetError::RetriesExhausted { attempts, last } => write!(
                f,
                "supervision retries exhausted after {attempts} failed attempts; \
                 last error: {last}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ConfigError> for FleetError {
    fn from(err: ConfigError) -> Self {
        FleetError::InvalidConfig(err)
    }
}

impl From<CheckpointError> for FleetError {
    fn from(err: CheckpointError) -> Self {
        FleetError::CorruptCheckpoint(err)
    }
}

/// Best-effort extraction of a panic payload's message (the two shapes
/// `panic!` produces, then a fallback).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-UE state of one fleet step between the measurement phase and the
/// commit phase: either already decided, or waiting for entry `k` of the
/// chunk's batched FLC evaluation.
#[derive(Debug, Clone, Copy)]
enum StepPending {
    Decided(Decision),
    AwaitHd(usize),
}

/// How the fleet engine selects which cells to measure per UE step.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum CandidateMode {
    /// Measure every layout cell for every UE (the dense
    /// `cells × chunk` sweep). This is the default and the only mode the
    /// byte-pinned golden reports run under.
    #[default]
    All,
    /// Measure only the `k` cells nearest each UE (via the layout's
    /// [`NeighborIndex`](cellgeom::NeighborIndex)), always force-including
    /// the UE's serving cell and its whole handover-candidate table, so
    /// the decision inputs are never approximated away. Unmeasured cells'
    /// shadowing slots accrue travelled distance and advance lazily when
    /// they re-enter the set — exact under the Gudmundson composition law
    /// `ρ(d₁+d₂) = ρ(d₁)·ρ(d₂)`, so the shadowing *law* is unchanged;
    /// only the RNG draw allocation differs from [`CandidateMode::All`].
    ///
    /// ## Equivalence bound
    ///
    /// With `k ≥ layout.len()` every cell is measured and the engine
    /// falls back to the [`CandidateMode::All`] code path, making the
    /// two modes **bit-identical** — on a 7-cell (one-ring) layout any
    /// `k ≥ 7` is exact. Below that bound the per-step decisions still
    /// see exact serving/neighbour readings (the force-include above);
    /// what changes is the random-stream allocation and, under a
    /// stateful [`RssiSmoother`](radiolink::RssiSmoother), the filter
    /// streams of out-of-set cells (which then skip samples). The pruned
    /// mode is pinned by its own golden
    /// (`tests/golden_radio/pruned_matrix.json`).
    Nearest(usize),
    /// The *edge-set* refinement of [`CandidateMode::Nearest`]: a UE
    /// measures the `k`-nearest set only while it is near a cell edge —
    /// when the deterministic mean RSS of its serving cell exceeds the
    /// best handover candidate's by more than `margin_db`, the UE is
    /// classified *interior* and measures only its serving cell and
    /// candidate table (the exact set its policy reads; see
    /// `UeState::report`). Interior classification uses mean path
    /// loss only — no RNG draws — so it is deterministic and
    /// worker/chunk/order-invariant like everything else.
    ///
    /// ## Equivalence bound
    ///
    /// With `margin_db = f64::INFINITY` every UE classifies as edge and
    /// the mode is **bit-identical** to [`CandidateMode::Nearest`] with
    /// the same `k` (for `k <` layout size; classification draws no
    /// randomness). Finite margins reallocate shadowing/noise draws for
    /// interior UEs exactly as `Nearest` does for out-of-set cells.
    EdgeSet {
        /// Nearest-set size used for edge-classified UEs.
        k: usize,
        /// Serving-vs-best-candidate mean-RSS margin (dB) below which a
        /// UE counts as cell-edge.
        margin_db: f64,
    },
}

/// The resolved per-run measurement plan of a [`CandidateMode`] on a
/// concrete layout.
#[derive(Debug, Clone, Copy)]
enum PrunePlan {
    Dense,
    Pruned { k: usize, edge_margin_db: Option<f64> },
}

impl CandidateMode {
    /// Short label used in matrix tables and bench ids.
    pub fn label(&self) -> String {
        match self {
            CandidateMode::All => "all".to_string(),
            CandidateMode::Nearest(k) => format!("nearest{k}"),
            CandidateMode::EdgeSet { k, margin_db } => format!("edge{k}m{margin_db}"),
        }
    }

    /// The measurement plan actually used on an `n_cells` layout:
    /// [`PrunePlan::Dense`] for the full sweep (also when `Nearest(k)`
    /// covers the whole layout, which makes pruning a no-op and lets the
    /// engine take the bit-identical dense path), pruned otherwise.
    fn plan(self, n_cells: usize) -> PrunePlan {
        match self {
            CandidateMode::All => PrunePlan::Dense,
            CandidateMode::Nearest(k) if k >= n_cells => PrunePlan::Dense,
            CandidateMode::Nearest(k) => {
                PrunePlan::Pruned { k: k.max(1), edge_margin_db: None }
            }
            CandidateMode::EdgeSet { k, margin_db } => PrunePlan::Pruned {
                k: k.max(1).min(n_cells),
                edge_margin_db: Some(margin_db),
            },
        }
    }
}

/// Numeric storage precision of the fleet measurement plane. The engine
/// stores and computes every mean RSS in `f64`; `Full` is the only
/// precision, kept as a type only for [`FleetSimulation::with_precision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetPrecision {
    /// Full `f64` mean-RSS storage, byte-pinned by every golden report.
    #[default]
    Full,
}

/// The measurement-RNG seed of UE `ue_id` in a fleet seeded with
/// `base_seed`: `base_seed + ue_id · φ64` (golden-ratio stride, wrapping).
/// UE 0 gets `base_seed` itself — the contract that makes a 1-UE fleet
/// bit-identical to [`Simulation::run`] with the same seed.
pub fn ue_seed(base_seed: u64, ue_id: u64) -> u64 {
    base_seed.wrapping_add(ue_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Domain-separation mask for trajectory streams: [`HomogeneousFleet`]
/// folds it into its `trajectory_seed` before deriving per-UE streams,
/// so passing the *same* value as `trajectory_seed` and as the
/// measurement `base_seed` never hands one ChaCha stream to two
/// consumers (which would silently correlate mobility with fading).
pub const TRAJECTORY_STREAM: u64 = 0x7472_616A_6563_7421; // "traject!"

/// The mobility models a fleet can be populated with (the scenario
/// matrix sweeps all four).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FleetMobility {
    /// The paper's Monte-Carlo random walk.
    RandomWalk(RandomWalk),
    /// Gauss–Markov correlated (vehicular) motion.
    GaussMarkov(GaussMarkov),
    /// Manhattan street-grid motion.
    Manhattan(ManhattanGrid),
    /// Random waypoint inside a rectangle.
    Waypoint(RandomWaypoint),
}

impl FleetMobility {
    /// Short label used in matrix tables and bench ids.
    pub fn label(&self) -> &'static str {
        match self {
            FleetMobility::RandomWalk(_) => "random-walk",
            FleetMobility::GaussMarkov(_) => "gauss-markov",
            FleetMobility::Manhattan(_) => "manhattan",
            FleetMobility::Waypoint(_) => "waypoint",
        }
    }

    /// Generate one trajectory from the model.
    pub fn generate(&self, rng: &mut StdRng) -> Trajectory {
        match self {
            FleetMobility::RandomWalk(m) => m.generate(rng),
            FleetMobility::GaussMarkov(m) => m.generate(rng),
            FleetMobility::Manhattan(m) => m.generate(rng),
            FleetMobility::Waypoint(m) => m.generate(rng),
        }
    }

    /// The standard four-model spread used by the scenario matrix and the
    /// `fleet` bench: paper random walk, vehicular Gauss–Markov, downtown
    /// Manhattan, and a waypoint box covering the 2-ring layout, each
    /// sized to `n_segments` movement legs.
    pub fn standard_four(n_segments: usize) -> Vec<FleetMobility> {
        vec![
            FleetMobility::RandomWalk(RandomWalk::paper_default(n_segments)),
            FleetMobility::GaussMarkov(GaussMarkov::vehicular(n_segments)),
            FleetMobility::Manhattan(ManhattanGrid::downtown(n_segments)),
            FleetMobility::Waypoint(RandomWaypoint::centered(4.0, n_segments)),
        ]
    }
}

/// The handover policies a fleet can run (fuzzy + the conventional
/// baselines the paper defers to future work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's three-stage fuzzy controller.
    Fuzzy,
    /// The fuzzy controller on the precomputed 3-D LUT decision plane
    /// (trilinear interpolation; see
    /// [`handover_core::flc::paper_flc_lut`]) — the approximate ablation
    /// variant, trading
    /// [`PAPER_LUT_MAX_ABS_ERROR`](handover_core::flc::PAPER_LUT_MAX_ABS_ERROR)
    /// of HD accuracy for constant-time decisions.
    FuzzyLut,
    /// Pure RSS hysteresis with the given margin.
    Hysteresis {
        /// Required neighbour advantage, dB.
        margin_db: f64,
    },
    /// Absolute serving-RSS threshold.
    Threshold {
        /// Serving-RSS threshold, dBm.
        threshold_dbm: f64,
    },
    /// Combined hysteresis + threshold.
    HysteresisThreshold {
        /// Serving-RSS threshold, dBm.
        threshold_dbm: f64,
        /// Required neighbour advantage, dB.
        margin_db: f64,
    },
    /// Load-aware hysteresis: the RSS margin biased by the
    /// serving-vs-neighbour congestion difference read from the traffic
    /// plane's occupancy feedback (see
    /// [`handover_core::baselines::LoadAwareHysteresisPolicy`]).
    /// Without a traffic plane (or with
    /// [`TrafficConfig::load_feedback`] off) it decides exactly like
    /// [`PolicyKind::Hysteresis`] with the same margin.
    LoadHysteresis {
        /// Required neighbour advantage at equal load, dB.
        margin_db: f64,
        /// Margin shift per unit utilization difference, dB.
        load_bias_db: f64,
    },
}

impl PolicyKind {
    /// Short label used in matrix tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fuzzy => "fuzzy",
            PolicyKind::FuzzyLut => "fuzzy-lut",
            PolicyKind::Hysteresis { .. } => "hysteresis",
            PolicyKind::Threshold { .. } => "threshold",
            PolicyKind::HysteresisThreshold { .. } => "hyst+thresh",
            PolicyKind::LoadHysteresis { .. } => "load-hyst",
        }
    }

    /// Build a fresh policy instance (`cell_radius_km` feeds the fuzzy
    /// controller's DMB normalisation).
    pub fn build(&self, cell_radius_km: f64) -> Box<dyn HandoverPolicy + Send> {
        match *self {
            PolicyKind::Fuzzy => Box::new(FuzzyHandoverController::new(
                ControllerConfig::paper_default(cell_radius_km),
            )),
            PolicyKind::FuzzyLut => Box::new(FuzzyHandoverController::with_lut(
                paper_flc_lut(),
                ControllerConfig::paper_default(cell_radius_km),
            )),
            PolicyKind::Hysteresis { margin_db } => Box::new(HysteresisPolicy::new(margin_db)),
            PolicyKind::Threshold { threshold_dbm } => {
                Box::new(ThresholdPolicy::new(threshold_dbm))
            }
            PolicyKind::HysteresisThreshold { threshold_dbm, margin_db } => {
                Box::new(HysteresisThresholdPolicy::new(threshold_dbm, margin_db))
            }
            PolicyKind::LoadHysteresis { margin_db, load_bias_db } => {
                Box::new(LoadAwareHysteresisPolicy::new(margin_db, load_bias_db))
            }
        }
    }
}

/// Describes one UE population. Implementations must be deterministic
/// functions of `ue_id` — the engine may query any UE from any worker
/// thread, in any order (and, on checkpoint resume, again in a later
/// process).
pub trait UeSpec: Sync {
    /// The UE's trajectory.
    fn trajectory(&self, ue_id: u64) -> Trajectory;
    /// A fresh policy instance for the UE.
    fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send>;
}

/// A homogeneous population: every UE draws its trajectory from the same
/// mobility model (via the per-UE stream `ue_seed(trajectory_seed, id)`)
/// and runs the same policy kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HomogeneousFleet {
    /// Mobility model shared by all UEs.
    pub mobility: FleetMobility,
    /// Policy kind shared by all UEs.
    pub policy: PolicyKind,
    /// Base seed of the trajectory streams (independent of the
    /// measurement `base_seed` passed to [`FleetSimulation::try_run_ids`]).
    pub trajectory_seed: u64,
    /// Cell radius for the fuzzy controller's DMB normalisation.
    pub cell_radius_km: f64,
}

impl UeSpec for HomogeneousFleet {
    fn trajectory(&self, ue_id: u64) -> Trajectory {
        // The mask keeps trajectory streams disjoint from measurement
        // streams even when trajectory_seed == base_seed.
        let mut rng =
            StdRng::seed_from_u64(ue_seed(self.trajectory_seed ^ TRAJECTORY_STREAM, ue_id));
        self.mobility.generate(&mut rng)
    }

    fn policy(&self, _ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        self.policy.build(self.cell_radius_km)
    }
}

/// A single UE wrapping a fixed trajectory and a policy factory — the
/// bridge used by tests to compare a 1-UE fleet against
/// [`Simulation::run`] on the same walk.
pub struct SingleUe<F: Fn() -> Box<dyn HandoverPolicy + Send> + Sync> {
    /// The UE's fixed trajectory.
    pub trajectory: Trajectory,
    /// Policy factory.
    pub make_policy: F,
}

impl<F: Fn() -> Box<dyn HandoverPolicy + Send> + Sync> UeSpec for SingleUe<F> {
    fn trajectory(&self, _ue_id: u64) -> Trajectory {
        self.trajectory.clone()
    }

    fn policy(&self, _ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        (self.make_policy)()
    }
}

/// The reduced, per-UE result of a fleet run. `hd_sum` is folded in step
/// order, so it doubles as a bit-sensitive checksum of the UE's entire
/// HD stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeOutcome {
    /// The UE id.
    pub ue_id: u64,
    /// Measurement steps taken.
    pub steps: u64,
    /// Executed handovers.
    pub handovers: u64,
    /// Ping-pongs (window from the simulation config).
    pub ping_pongs: u64,
    /// Steps spent in outage.
    pub outage_steps: u64,
    /// Sum of the FLC outputs observed, in step order.
    pub hd_sum: f64,
    /// Number of FLC outputs observed.
    pub hd_count: u64,
    /// Path length travelled, km.
    pub travelled_km: f64,
    /// Serving cell at the end of the walk.
    pub final_serving: Axial,
}

impl UeOutcome {
    /// Reduce a full [`SimResult`](crate::engine::SimResult) to the fleet
    /// outcome form — the reference the 1-UE equivalence tests compare
    /// against, field by field and bit by bit.
    pub fn from_sim_result(
        ue_id: u64,
        result: &crate::engine::SimResult,
        pingpong_window: usize,
    ) -> UeOutcome {
        let mut hd_sum = 0.0;
        let mut hd_count = 0u64;
        for s in &result.steps {
            if let Some(hd) = s.hd {
                hd_sum += hd;
                hd_count += 1;
            }
        }
        UeOutcome {
            ue_id,
            steps: result.log.step_count() as u64,
            handovers: result.log.handover_count() as u64,
            ping_pongs: result.log.ping_pong_report(pingpong_window).ping_pongs as u64,
            outage_steps: result.log.outage_step_count() as u64,
            hd_sum,
            hd_count,
            travelled_km: result.steps.last().map_or(0.0, |s| s.cum_km),
            final_serving: result.final_serving,
        }
    }

    fn summary(&self) -> FleetSummary {
        FleetSummary {
            ues: 1,
            steps: self.steps,
            handovers: self.handovers,
            ping_pongs: self.ping_pongs,
            outage_steps: self.outage_steps,
            hd_sum: self.hd_sum,
            hd_count: self.hd_count,
        }
    }
}

/// The outcome of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Per-UE outcomes, ascending by UE id.
    pub outcomes: Vec<UeOutcome>,
    /// Serving-load histogram over the layout cells (UE-steps served).
    pub cell_load: CellLoadHistogram,
    /// Fleet-level aggregate (folded in UE-id order).
    pub summary: FleetSummary,
    /// Traffic-plane accounting (`None` unless the fleet ran with
    /// [`FleetSimulation::with_traffic`]). Invariant to worker count,
    /// chunk size and UE submission order, like everything else here.
    pub traffic: Option<TrafficReport>,
    /// Dynamic-workload report (`None` unless the fleet ran with
    /// [`FleetSimulation::with_dynamics`]): population churn, serving
    /// fairness, handover dwell percentiles and — with a traffic plane —
    /// the dropped-Erlang breakdown by cause. Invariant like the rest.
    pub dynamics: Option<DynamicReport>,
}

/// The memory-bounded aggregate of [`FleetSimulation::run_streamed`]:
/// the fleet summary and load histogram of a run whose per-UE outcomes
/// were folded on the fly instead of materialized. `summary` (every
/// `f64` bit included) and `cell_load` equal those of the corresponding
/// [`FleetSimulation::try_run_ids`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStreamSummary {
    /// Fleet-level aggregate, bit-identical to
    /// [`FleetResult::summary`].
    pub summary: FleetSummary,
    /// Serving-load histogram, identical to [`FleetResult::cell_load`].
    pub cell_load: CellLoadHistogram,
}

/// Which UEs a fleet pass steps: an explicit id set, the ids `0..n`
/// generated lazily (no id vector ever exists), or the live half of a
/// checkpoint (plus the lockstep step it stopped at).
#[derive(Clone, Copy)]
enum PassSource<'a> {
    Ids(&'a [u64]),
    Range(u64),
    Restored(&'a [UeCheckpoint], u64),
}

impl PassSource<'_> {
    fn len(&self) -> u64 {
        match *self {
            PassSource::Ids(ids) => ids.len() as u64,
            PassSource::Range(n) => n,
            PassSource::Restored(live, _) => live.len() as u64,
        }
    }
}

/// One chunk's worth of a [`PassSource`]; restored UEs carry the
/// lockstep step their checkpoint stopped at.
#[derive(Clone, Copy)]
enum ChunkUes<'a> {
    Fresh(&'a [u64]),
    Restored(&'a [&'a UeCheckpoint], u64),
}

/// What a pass keeps of every UE that finishes.
#[derive(Clone, Copy, PartialEq)]
enum PassSink {
    /// Keep every outcome and, with `traces`, every serving-cell trace.
    Collect { traces: bool },
    /// Fold each chunk's outcomes into integer tallies plus
    /// `(ue_id, hd_sum)` parts, so memory stays `O(workers × chunk)`.
    Fold,
}

/// The parameters every chunk of one pass shares.
#[derive(Clone, Copy)]
struct PassParams<'a> {
    base_seed: u64,
    sink: PassSink,
    /// Frozen occupancy timeline handed to every policy (load-feedback
    /// pass).
    load_field: Option<&'a Arc<LoadField>>,
    /// Lockstep step at which still-live UEs are frozen (checkpointing).
    max_steps: Option<u64>,
}

impl PassParams<'_> {
    /// An unbounded pass without a load field that collects outcomes.
    fn collect(base_seed: u64, traces: bool) -> Self {
        PassParams {
            base_seed,
            sink: PassSink::Collect { traces },
            load_field: None,
            max_steps: None,
        }
    }
}

/// One worker's share of a fleet pass, and after the merge the whole
/// pass, with every vector ascending by UE id.
struct PassPart {
    outcomes: Vec<UeOutcome>,
    cell_load: CellLoadHistogram,
    traces: Vec<UeTrace>,
    /// UEs still live at the step bound.
    live: Vec<UeCheckpoint>,
    /// [`PassSink::Fold`]: integer tallies of the folded outcomes. The
    /// `f64` HD sum is summed from `hd_parts` in UE-id order after the
    /// merge, so the fold order matches the collected run's.
    tally: FleetSummary,
    hd_parts: Vec<(u64, f64)>,
}

impl PassPart {
    fn new(cells: &[Axial]) -> Self {
        PassPart {
            outcomes: Vec::new(),
            cell_load: CellLoadHistogram::new(cells.iter().copied()),
            traces: Vec::new(),
            live: Vec::new(),
            tally: FleetSummary::default(),
            hd_parts: Vec::new(),
        }
    }

    /// Fold the collected outcomes into the tallies and drop them. UEs
    /// without HD observations add a literal `+0.0` to the HD sum, which
    /// cannot change any bit of a non-negative sum, so they leave no part.
    fn fold_outcomes(&mut self) {
        for o in self.outcomes.drain(..) {
            self.tally.absorb(&FleetSummary {
                hd_sum: 0.0,
                ..o.summary()
            });
            if o.hd_count > 0 {
                self.hd_parts.push((o.ue_id, o.hd_sum));
            }
        }
    }

    fn merge(&mut self, part: PassPart) {
        self.outcomes.extend(part.outcomes);
        self.cell_load.merge(&part.cell_load);
        self.traces.extend(part.traces);
        self.live.extend(part.live);
        self.tally.absorb(&part.tally);
        self.hd_parts.extend(part.hd_parts);
    }
}

/// Per-worker scratch arena: every buffer a chunk needs, allocated once
/// per worker and reused across chunks — including retired [`UeState`]s,
/// which are recycled through [`UeState::reset`] instead of reallocated.
struct ChunkArena {
    flc_scratch: EvalScratch,
    /// Retired UE states available for reuse.
    spare: Vec<UeState>,
    active_idx: Vec<usize>,
    positions: Vec<cellgeom::Vec2>,
    points: Vec<mobility::TracePoint>,
    /// Dense mean-RSS matrix, `cells × active`.
    rss_matrix: Vec<f64>,
    /// Per-cell means of the UE currently being measured.
    means: Vec<f64>,
    /// Gaussian scratch for the measurement kernel.
    ///
    /// Sized once for the worst case (shadowing + noise both active:
    /// `2 × n_cells` draws per UE-step) so the per-step resize inside
    /// [`UeState::begin_step`] never reallocates. The *used*
    /// length depends only on the [`SimConfig`] sigmas — never on the
    /// step index, UE id, or chunk layout — so a run resumed from a
    /// checkpoint consumes exactly the same RNG draws as an unbroken
    /// run and stays bit-identical.
    rng_scratch: Vec<f64>,
    subset: Vec<u32>,
    reports: Vec<MeasurementReport>,
    pending: Vec<StepPending>,
    batch_inputs: Vec<f64>,
    batch_prev: Vec<Option<f64>>,
    batch_hd: Vec<f64>,
}

impl ChunkArena {
    fn new(n_cells: usize) -> Self {
        ChunkArena {
            flc_scratch: EvalScratch::new(),
            spare: Vec::new(),
            active_idx: Vec::new(),
            positions: Vec::new(),
            points: Vec::new(),
            rss_matrix: Vec::new(),
            means: vec![0.0; n_cells],
            rng_scratch: Vec::with_capacity(2 * n_cells),
            subset: Vec::with_capacity(n_cells),
            reports: Vec::new(),
            pending: Vec::new(),
            batch_inputs: Vec::new(),
            batch_prev: Vec::new(),
            batch_hd: Vec::new(),
        }
    }
}

/// The fleet engine. Wraps a [`Simulation`]-compatible configuration and
/// runs any number of UEs through it; see the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct FleetSimulation {
    sim: Simulation,
    workers: usize,
    chunk_size: usize,
    candidate_mode: CandidateMode,
    traffic: Option<TrafficConfig>,
    dynamics: Option<DynamicsConfig>,
    /// Armed chaos harness (testing only; `None` in production). The
    /// `Arc` is shared by clones, so a supervisor's degraded re-clones
    /// see the same one-shot fired flags.
    fault: Option<Arc<FaultInjector>>,
}

impl FleetSimulation {
    /// Default number of UEs stepped in lockstep per batch.
    pub const DEFAULT_CHUNK_SIZE: usize = 128;

    /// Build a fleet engine (1 worker, default chunk size, dense
    /// [`CandidateMode::All`] measurement).
    pub fn new(config: SimConfig) -> Self {
        FleetSimulation {
            sim: Simulation::new(config),
            workers: 1,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            candidate_mode: CandidateMode::All,
            traffic: None,
            dynamics: None,
            fault: None,
        }
    }

    /// The crossbeam worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attach an armed [`FaultInjector`] (see
    /// [`crate::resilience::FaultPlan`]): the engine's step loop and
    /// arena grow path consult it, firing each scripted fault exactly
    /// once. Chaos-testing hook — results under injection are only
    /// meaningful through [`FleetSimulation::run_supervised`], which
    /// recovers to the bit-identical clean answer.
    #[must_use]
    pub fn with_fault_injection(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Set the crossbeam worker count (clamped to ≥ 1). Results are
    /// bit-identical for every value.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the lockstep batch size (clamped to ≥ 1). Results are
    /// bit-identical for every value; larger chunks amortise the batched
    /// RSS evaluation better, smaller chunks bound memory tighter.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Select the per-UE candidate measurement mode (see
    /// [`CandidateMode`]). The default [`CandidateMode::All`] path is the
    /// byte-pinned one; [`CandidateMode::Nearest`] and
    /// [`CandidateMode::EdgeSet`] are the opt-in pruned modes.
    #[must_use]
    pub fn with_candidate_mode(mut self, mode: CandidateMode) -> Self {
        self.candidate_mode = mode;
        self
    }

    /// The active candidate measurement mode.
    pub fn candidate_mode(&self) -> CandidateMode {
        self.candidate_mode
    }

    /// A no-op: [`FleetPrecision::Full`] is the only precision. Kept
    /// only because the benchmark adapter (`perfbench/src/adapter.rs`)
    /// still calls it.
    #[must_use]
    pub fn with_precision(self, _precision: FleetPrecision) -> Self {
        self
    }

    /// Attach the cell-load traffic plane (see [`crate::traffic`]): the
    /// run additionally records per-UE serving-cell traces, replays the
    /// fleet's call sessions against per-cell channel capacities, and
    /// fills [`FleetResult::traffic`]. Without
    /// [`TrafficConfig::load_feedback`] the plane is purely
    /// observational — outcomes, summary and cell load stay
    /// **bit-identical** to the traffic-free run (the differential
    /// suite `tests/traffic_diff.rs` pins this); with it, the engine
    /// runs a second pass whose policies see the first pass's occupancy
    /// timeline. The plane is validated when a run starts: an invalid
    /// one surfaces as [`FleetError::InvalidConfig`] from every run
    /// entry.
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// The attached traffic plane, if any.
    pub fn traffic(&self) -> Option<&TrafficConfig> {
        self.traffic.as_ref()
    }

    /// Attach the dynamic-workload plane (see [`crate::dynamics`]): UE
    /// churn, tidal offered load, scheduled BS outages, and/or a
    /// voice/data service mix. An entirely inert configuration
    /// (everything off, or only a valid zero-amplitude tide) normalizes
    /// back to `None` — so "feature off" runs the exact byte-pinned
    /// static path. Like the traffic plane, the rest is validated when a
    /// run starts, outage cells included: an invalid plane surfaces as
    /// [`FleetError::InvalidConfig`]. With any feature live the run records
    /// serving-cell traces (like the traffic plane does) and fills
    /// [`FleetResult::dynamics`]; tide and service classes only shape
    /// the *traffic* replay, so they additionally need
    /// [`FleetSimulation::with_traffic`] to have any observable effect.
    #[must_use]
    pub fn with_dynamics(mut self, dynamics: DynamicsConfig) -> Self {
        self.dynamics = dynamics.normalized();
        self
    }

    /// The attached dynamic-workload plane, if any (`None` also when an
    /// inert configuration was normalized away).
    pub fn dynamics(&self) -> Option<&DynamicsConfig> {
        self.dynamics.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        self.sim.config()
    }

    /// [`validate_planes`] on this engine's configuration and planes.
    /// The run entries call this before touching any worker, surfacing
    /// [`FleetError::InvalidConfig`] instead of a mid-run panic or a
    /// silent NaN propagation.
    pub(crate) fn validate_planes(&self) -> Result<(), ConfigError> {
        validate_planes(self.config(), self.traffic.as_ref(), self.dynamics.as_ref())
    }

    /// Whether runs on this engine record serving-cell traces: a traffic
    /// or dynamics plane is attached.
    fn tracing(&self) -> bool {
        self.traffic.is_some() || self.dynamics.is_some()
    }

    /// Run an explicit UE id set to completion (ids should be distinct;
    /// each UE's result depends only on its own id, and the merge orders
    /// outcomes by id, so any permutation of `ids` produces the same
    /// result). A worker panic surfaces as [`FleetError::WorkerPanic`]
    /// with its original message, an invalid plane as
    /// [`FleetError::InvalidConfig`].
    ///
    /// With a traffic plane attached ([`FleetSimulation::with_traffic`])
    /// the run additionally replays every UE's call sessions against the
    /// per-cell channel capacities; with
    /// [`TrafficConfig::load_feedback`] it then reruns the fleet with
    /// the first pass's occupancy timeline injected into every policy
    /// (delayed load reports), and the returned fleet metrics and
    /// [`TrafficReport`] are those of the fed-back pass.
    pub fn try_run_ids(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
    ) -> Result<FleetResult, FleetError> {
        self.validate_planes()?;
        let params = PassParams::collect(base_seed, self.tracing());
        let pass = self.pass(spec, PassSource::Ids(ids), params)?;
        debug_assert!(pass.live.is_empty(), "unbounded passes run every UE to completion");
        let result = assemble(pass.outcomes, pass.cell_load);
        self.apply_traffic(spec, ids, base_seed, result, pass.traces)
    }

    /// Run a fleet up to the lockstep step `target_step` and freeze it:
    /// start fresh from `ids` and `base_seed` (`from` is `None`) or
    /// continue an existing snapshot (`ids` and `base_seed` then come
    /// from the snapshot). UEs whose walks end earlier finish normally;
    /// every other UE is suspended with its complete engine + policy +
    /// RNG-stream state, and the whole run comes back as a serializable
    /// [`FleetCheckpoint`]. A bound at or before the snapshot's step
    /// returns the snapshot unchanged.
    ///
    /// Any chain of `advance` bounds finished by
    /// [`FleetSimulation::try_resume`] is bit-identical to the
    /// uninterrupted [`FleetSimulation::try_run_ids`], for any worker
    /// count and chunk size on every segment, because the snapshot is
    /// sorted by UE id and each UE's state is self-contained (pinned by
    /// `tests/resilience_props.rs`). This is the segment primitive of
    /// [`FleetSimulation::run_supervised`] and of the `handover-server`
    /// sessions.
    ///
    /// With a traffic plane the run records serving-cell traces into
    /// the snapshot; the traffic replay itself (and the load-feedback
    /// second pass, if configured) runs in `try_resume`, once the traces
    /// are complete.
    pub fn advance(
        &self,
        spec: &dyn UeSpec,
        from: Option<&FleetCheckpoint>,
        ids: &[u64],
        base_seed: u64,
        target_step: u64,
    ) -> Result<FleetCheckpoint, FleetError> {
        self.validate_planes()?;
        let (source, base_seed, tracing) = match from {
            None => (PassSource::Ids(ids), base_seed, self.tracing()),
            Some(cp) => {
                self.check_checkpoint(cp)?;
                if target_step <= cp.step {
                    return Ok(cp.clone());
                }
                (
                    PassSource::Restored(&cp.live, cp.step),
                    cp.base_seed,
                    cp.tracing,
                )
            }
        };
        let params = PassParams {
            max_steps: Some(target_step),
            ..PassParams::collect(base_seed, tracing)
        };
        let mut out = self.pass(spec, source, params)?;
        let live = std::mem::take(&mut out.live);
        let (finished, finished_traces, cell_load) = after_checkpoint(from, out);
        Ok(FleetCheckpoint {
            version: CHECKPOINT_VERSION,
            step: target_step,
            base_seed,
            finished,
            finished_traces,
            live,
            cell_load,
            tracing,
        })
    }

    /// Finish a [`FleetSimulation::advance`] snapshot. The engine must
    /// be configured like the one that took the snapshot (same
    /// [`SimConfig`], candidate mode and planes; worker count and chunk
    /// size are free), and the spec must be the same deterministic
    /// population. An incompatible or invalid snapshot surfaces as
    /// [`FleetError::CorruptCheckpoint`].
    pub fn try_resume(
        &self,
        spec: &dyn UeSpec,
        cp: &FleetCheckpoint,
    ) -> Result<FleetResult, FleetError> {
        self.validate_planes()?;
        self.check_checkpoint(cp)?;
        let params = PassParams::collect(cp.base_seed, cp.tracing);
        let out = self.pass(spec, PassSource::Restored(&cp.live, cp.step), params)?;
        debug_assert!(
            out.live.is_empty(),
            "unbounded passes run every UE to completion"
        );
        let (outcomes, traces, cell_load) = after_checkpoint(Some(cp), out);
        let ids: Vec<u64> = outcomes.iter().map(|o| o.ue_id).collect();
        let result = assemble(outcomes, cell_load);
        self.apply_traffic(spec, &ids, cp.base_seed, result, traces)
    }

    /// Snapshot-vs-engine compatibility: version + shape invariants
    /// ([`FleetCheckpoint::try_validate`]) and the tracing plane.
    pub(crate) fn check_checkpoint(&self, cp: &FleetCheckpoint) -> Result<(), CheckpointError> {
        cp.try_validate()?;
        let engine_tracing = self.tracing();
        if cp.tracing != engine_tracing {
            return Err(CheckpointError::PlaneMismatch {
                checkpoint_tracing: cp.tracing,
                engine_tracing,
            });
        }
        Ok(())
    }

    /// Run UEs `0..n_ues` and fold every chunk's outcomes into a running
    /// aggregate instead of materializing the per-UE outcome vector — the
    /// memory-bounded path for million-UE fleets: ids are generated
    /// lazily, peak memory is `O(workers × chunk_size)`, independent of
    /// `n_ues`, and no `UEs × cells` structure ever exists (each worker
    /// holds one `cells × chunk` matrix).
    ///
    /// The returned [`FleetStreamSummary`] is bit-identical to the
    /// `summary`/`cell_load` of [`FleetSimulation::try_run_ids`] over the
    /// same ids: integer tallies commute, and the `f64` HD sum is
    /// re-folded in global UE-id order at the merge.
    ///
    /// A traffic plane is rejected with [`FleetError::InvalidConfig`]
    /// ([`ConfigError::StreamedTraffic`]): traces would rematerialize
    /// per-UE state, defeating the point — use
    /// [`FleetSimulation::try_run_ids`] for traffic studies. A
    /// dynamic-workload plane is allowed: churn and BS failures act
    /// inside the engine loop and the streamed `summary`/`cell_load`
    /// stay bit-identical to the collected run with the same dynamics,
    /// but no [`DynamicReport`] is produced (it is derived from traces)
    /// and tide/service classes — traffic-replay features — are inert
    /// here.
    pub fn run_streamed(
        &self,
        spec: &dyn UeSpec,
        n_ues: u64,
        base_seed: u64,
    ) -> Result<FleetStreamSummary, FleetError> {
        if self.traffic.is_some() {
            return Err(FleetError::InvalidConfig(ConfigError::StreamedTraffic));
        }
        self.validate_planes()?;
        let params = PassParams {
            sink: PassSink::Fold,
            ..PassParams::collect(base_seed, false)
        };
        let out = self.pass(spec, PassSource::Range(n_ues), params)?;
        Ok(FleetStreamSummary {
            summary: out.tally,
            cell_load: out.cell_load,
        })
    }

    /// The replay half of a run: derive the dynamic-workload report from
    /// the traces, replay them against the channel capacities, and, with
    /// load feedback on, rerun the fleet with the occupancy field
    /// injected. No-op without a traffic or dynamics plane.
    fn apply_traffic(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        mut result: FleetResult,
        traces: Vec<UeTrace>,
    ) -> Result<FleetResult, FleetError> {
        let Some(traffic) = &self.traffic else {
            if self.dynamics.is_some() {
                result.dynamics = Some(dynamic_report(&traces, &result.cell_load, None));
            }
            return Ok(result);
        };
        let cells = self.config().layout.cells();
        let none = DynamicsConfig::none();
        let dynamics = self.dynamics.as_ref().unwrap_or(&none);
        let replay = |traces: &[UeTrace]| {
            replay_traffic_dynamic(traffic, cells, traces, base_seed, dynamics)
                .map_err(FleetError::InvalidConfig)
        };
        let (report, field, stats) = replay(&traces)?;
        let (mut result, traces, report, stats) = if traffic.load_feedback {
            let field = Arc::new(field);
            let params = PassParams {
                load_field: Some(&field),
                ..PassParams::collect(base_seed, true)
            };
            let fed = self.pass(spec, PassSource::Ids(ids), params)?;
            let (fed_report, _, fed_stats) = replay(&fed.traces)?;
            (
                assemble(fed.outcomes, fed.cell_load),
                fed.traces,
                fed_report,
                fed_stats,
            )
        } else {
            (result, traces, report, stats)
        };
        result.traffic = Some(report);
        if self.dynamics.is_some() {
            result.dynamics = Some(dynamic_report(&traces, &result.cell_load, Some(stats)));
        }
        Ok(result)
    }

    /// One fleet pass: the sharded parallel stepping of `source` under
    /// `params`. Each worker steps a static round-robin shard (entries
    /// `w, w + workers, …`, independent of scheduling) cut lazily into
    /// chunks, and catches its own panics so they surface as
    /// [`FleetError::WorkerPanic`] with the original message instead of
    /// crossbeam's opaque scope error. Every output vector comes back
    /// sorted by UE id, and a [`PassSink::Fold`] pass has its HD sum
    /// folded in UE-id order.
    fn pass(
        &self,
        spec: &dyn UeSpec,
        source: PassSource<'_>,
        params: PassParams<'_>,
    ) -> Result<PassPart, FleetError> {
        let cells = self.config().layout.cells();
        let workers = (self.workers as u64).clamp(1, source.len().max(1)) as usize;
        let collected: Mutex<Vec<Result<PassPart, String>>> =
            Mutex::new(Vec::with_capacity(workers));

        crossbeam::scope(|scope| {
            for w in 0..workers {
                let collected = &collected;
                scope.spawn(move |_| {
                    let part = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut arena = ChunkArena::new(cells.len());
                        let mut part = PassPart::new(cells);
                        let mut step_chunk = |chunk: ChunkUes<'_>| {
                            self.simulate_chunk(spec, chunk, params, &mut arena, &mut part);
                            if params.sink == PassSink::Fold {
                                part.fold_outcomes();
                            }
                        };
                        let size = self.chunk_size;
                        match source {
                            PassSource::Ids(ids) => {
                                let shard = ids.iter().copied().skip(w).step_by(workers);
                                for_each_chunk(shard, size, |c| step_chunk(ChunkUes::Fresh(c)));
                            }
                            PassSource::Range(n) => {
                                let shard = (w as u64..n).step_by(workers);
                                for_each_chunk(shard, size, |c| step_chunk(ChunkUes::Fresh(c)));
                            }
                            PassSource::Restored(live, start) => {
                                let shard = live.iter().skip(w).step_by(workers);
                                for_each_chunk(shard, size, |c| {
                                    step_chunk(ChunkUes::Restored(c, start))
                                });
                            }
                        }
                        part
                    }));
                    collected.lock().push(part.map_err(|p| panic_message(p.as_ref())));
                });
            }
        })
        // invariant: worker closures wrap their bodies in catch_unwind,
        // so the scope's join cannot observe a panicked thread.
        .expect("fleet worker panics are caught inside the workers");

        let mut out = PassPart::new(cells);
        for part in collected.into_inner() {
            out.merge(part.map_err(FleetError::WorkerPanic)?);
        }
        // UE-id order makes the f64 summary folds independent of the
        // sharding and of the submission order of `ids` — and gives the
        // traffic replay its deterministic event order.
        out.outcomes.sort_by_key(|o| o.ue_id);
        out.traces.sort_by_key(|t| t.ue_id);
        out.live.sort_by_key(|l| l.ue_id);
        out.hd_parts.sort_unstable_by_key(|&(id, _)| id);
        for &(_, hd) in &out.hd_parts {
            out.tally.hd_sum += hd;
        }
        Ok(out)
    }

    /// Step one chunk of UEs in lockstep, batching the mean RSS
    /// evaluation per (BS, chunk) and the fuzzy FLC evaluation per chunk
    /// at every step, and push every finished UE into `part`. A
    /// collecting pass with traces also records every UE's per-step
    /// serving cell (traffic plane); a load field is handed to every
    /// policy before stepping. With a step bound the chunk stops at that
    /// lockstep step and exports the still-live UEs into `part.live`;
    /// restored UEs resume mid-walk (fast-forwarding their trajectory
    /// cursors).
    fn simulate_chunk(
        &self,
        spec: &dyn UeSpec,
        chunk: ChunkUes<'_>,
        params: PassParams<'_>,
        arena: &mut ChunkArena,
        part: &mut PassPart,
    ) {
        let PassParams {
            base_seed,
            sink,
            load_field,
            max_steps,
        } = params;
        let cfg = self.config();
        let cells = cfg.layout.cells();
        let compiled = self.sim.compiled_radio();
        let bs_positions = self.sim.bs_positions();
        let prune_plan = self.candidate_mode.plan(cells.len());
        let tracing = sink == PassSink::Collect { traces: true };
        let start_step = match chunk {
            ChunkUes::Fresh(_) => 0,
            ChunkUes::Restored(_, start) => start,
        };

        // Split the arena into independent buffers so each phase can
        // borrow exactly what it needs.
        let ChunkArena {
            flc_scratch,
            spare,
            active_idx,
            positions,
            points,
            rss_matrix,
            means,
            rng_scratch,
            subset,
            reports,
            pending,
            batch_inputs,
            batch_prev,
            batch_hd,
        } = arena;
        debug_assert_eq!(means.len(), cells.len(), "arena sized for this layout");

        // The scalar mean of one (BS, position) pair (pruned modes).
        let mean_at =
            |slot: usize, pos: cellgeom::Vec2| compiled.received_power_dbm(bs_positions[slot], pos);

        let ids: Vec<u64> = match chunk {
            ChunkUes::Fresh(ids) => ids.to_vec(),
            ChunkUes::Restored(live, _) => live.iter().map(|cp| cp.ue_id).collect(),
        };
        let n = ids.len();

        // Dynamic-workload plane: per-UE churn presence windows and the
        // scheduled-outage timeline, both pure functions of the config
        // and seed (recomputed identically by a resumed checkpoint).
        // `None`/empty on the static path — the hot loop below then
        // takes exactly its pre-dynamics branches.
        let churn_windows: Option<Vec<(u64, u64)>> = self
            .dynamics
            .as_ref()
            .and_then(|d| d.churn.as_ref())
            .map(|churn| ids.iter().map(|&id| churn.window(base_seed, id)).collect());
        let outages: Vec<(usize, u64, u64)> = self
            .dynamics
            .as_ref()
            .map(|d| {
                d.outage_indices(cells)
                    // invariant: every run entry calls validate_planes,
                    // which resolves the same outages, before any pass.
                    .expect("outage cell must be in the layout")
            })
            .unwrap_or_default();
        let mut down_mask: Vec<bool> =
            if outages.is_empty() { Vec::new() } else { vec![false; cells.len()] };

        // Struct-of-arrays chunk store. Trajectories hold only waypoints;
        // the resampled measurement points stream lazily per UE.
        let trajectories: Vec<Trajectory> = ids.iter().map(|&id| spec.trajectory(id)).collect();
        let mut cursors: Vec<mobility::ResampleIter<'_>> = trajectories
            .iter()
            .map(|t| t.resample_iter(cfg.sample_spacing_km))
            .collect();
        let mut policies: Vec<Box<dyn HandoverPolicy + Send>> =
            ids.iter().map(|&id| spec.policy(id)).collect();
        let mut hd_sums = vec![0.0f64; n];
        let mut hd_counts = vec![0u64; n];
        let mut travelled = vec![0.0f64; n];
        // Per-UE serving-cell traces for the traffic plane, run-length
        // encoded as (step, cell) change points + a step counter (empty
        // and untouched unless tracing).
        let mut trace_bufs: Vec<Vec<(u64, u32)>> =
            if tracing { vec![Vec::new(); n] } else { Vec::new() };
        let mut trace_steps: Vec<u64> = if tracing { vec![0; n] } else { Vec::new() };
        let mut ues: Vec<Option<UeState>> = match chunk {
            ChunkUes::Fresh(_) => ids
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let start = trajectories[i].start();
                    let seed = ue_seed(base_seed, id);
                    Some(match spare.pop() {
                        // Recycle a retired state: same layout, every
                        // allocation reused.
                        Some(mut state) => {
                            state.reset(cfg, start, seed);
                            state
                        }
                        None => UeState::new(cfg, start, seed),
                    })
                })
                .collect(),
            ChunkUes::Restored(live, _) => live
                .iter()
                .enumerate()
                .map(|(i, cp)| {
                    // Restored UEs have already consumed as many
                    // measurement points as they took steps;
                    // fast-forward the regenerated cursors to match (a
                    // live UE's cursor yields at least that many points
                    // by construction). Without churn every live UE has
                    // taken exactly `start_step` steps; with churn a late
                    // arrival has taken fewer (and a not-yet-arrived UE
                    // none), which `cp.engine.steps` captures per UE.
                    // `nth` skips whole segments at a time.
                    if let Some(last) = cp.engine.steps.checked_sub(1) {
                        cursors[i].nth(usize::try_from(last).unwrap_or(usize::MAX));
                    }
                    policies[i].restore_policy_checkpoint(&cp.policy);
                    hd_sums[i] = cp.hd_sum;
                    hd_counts[i] = cp.hd_count;
                    travelled[i] = cp.travelled_km;
                    if tracing {
                        trace_bufs[i] = cp.trace_changes.clone();
                        trace_steps[i] = cp.trace_steps;
                    }
                    Some(UeState::from_snapshot(cfg, &cp.engine))
                })
                .collect(),
        };
        if let Some(field) = load_field {
            for policy in &mut policies {
                policy.set_load_field(field);
            }
        }

        // The chunk's shared FLC plan: when every pending fuzzy decision
        // runs on this plan (pointer-compared), the chunk evaluates them
        // through one `CompiledFis::evaluate_batch` call per step instead
        // of one virtual `decide` per UE. Controllers on other planes (a
        // custom per-UE FIS, the LUT/Sugeno ablations) fall back to their
        // own scalar path, so heterogeneous chunks stay correct.
        let chunk_plan: Option<Arc<CompiledFis>> = policies
            .iter_mut()
            .find_map(|p| p.as_fuzzy().and_then(|f| f.shared_plan().cloned()));

        let mut step = start_step;
        loop {
            // Chaos harness: fire any scripted stall/panic scheduled at
            // this lockstep step (one-shot, first worker wins; see
            // crate::resilience). `None` in production — no cost.
            if let Some(injector) = &self.fault {
                injector.check_step(step);
            }

            // Checkpoint bound: freeze every still-live UE (state +
            // policy + tallies) and stop the chunk.
            if let Some(bound) = max_steps {
                if step >= bound {
                    for i in 0..n {
                        let Some(state) = ues[i].take() else { continue };
                        part.live.push(UeCheckpoint {
                            ue_id: ids[i],
                            engine: state.snapshot(),
                            policy: policies[i].policy_checkpoint(),
                            hd_sum: hd_sums[i],
                            hd_count: hd_counts[i],
                            travelled_km: travelled[i],
                            trace_steps: if tracing { trace_steps[i] } else { 0 },
                            trace_changes: if tracing {
                                std::mem::take(&mut trace_bufs[i])
                            } else {
                                Vec::new()
                            },
                        });
                        spare.push(state);
                    }
                    break;
                }
            }

            // Advance every live UE's trajectory cursor; retire the ones
            // that just finished (recycling their state allocations).
            // With churn, a UE whose arrival step is still ahead stays
            // parked (pending), and one past its drawn lifetime departs
            // exactly like one whose trajectory ended.
            active_idx.clear();
            positions.clear();
            points.clear();
            let mut pending_arrivals = 0usize;
            for i in 0..n {
                let Some(state) = &ues[i] else { continue };
                let mut departed = false;
                if let Some(windows) = &churn_windows {
                    let (arrival, lifetime) = windows[i];
                    if step < arrival {
                        pending_arrivals += 1;
                        continue;
                    }
                    departed = state.step_count() as u64 >= lifetime;
                }
                match if departed { None } else { cursors[i].next() } {
                    Some(p) => {
                        active_idx.push(i);
                        positions.push(p.pos);
                        points.push(p);
                    }
                    None => {
                        let state = ues[i].take().expect("UE is live");
                        part.outcomes.push(finish_ue(
                            cfg,
                            ids[i],
                            &state,
                            hd_sums[i],
                            hd_counts[i],
                            travelled[i],
                        ));
                        spare.push(state);
                        if tracing {
                            part.traces.push(UeTrace {
                                ue_id: ids[i],
                                steps: trace_steps[i],
                                changes: std::mem::take(&mut trace_bufs[i]),
                            });
                        }
                    }
                }
            }
            let a = active_idx.len();
            if a == 0 {
                if pending_arrivals == 0 {
                    break;
                }
                // Nothing is stepping yet but churned UEs are still due:
                // tick the lockstep clock without any engine work.
                step += 1;
                continue;
            }

            // Scheduled-outage mask for this step (`None` whenever no
            // outage window covers it — the common case costs one scan
            // of the tiny outage list).
            let down_now: Option<&[bool]> =
                if outages.iter().any(|&(_, from, until)| from <= step && step < until) {
                    down_mask.iter_mut().for_each(|d| *d = false);
                    for &(k, from, until) in &outages {
                        if from <= step && step < until {
                            down_mask[k] = true;
                        }
                    }
                    Some(&down_mask[..])
                } else {
                    None
                };

            // Batched mean RSS (dense mode only): one (BS × chunk) pass
            // per cell through the compiled link budget. The buffer is
            // only resized when the active count changes — every slot is
            // overwritten below, so no zero-fill churn.
            if matches!(prune_plan, PrunePlan::Dense) {
                // Chaos harness: a scripted allocation failure in the
                // arena grow path fires here, where the dense matrix is
                // about to be (re)sized.
                if let Some(injector) = &self.fault {
                    injector.check_arena_grow(step);
                }
                rss_matrix.resize(cells.len() * a, 0.0);
                for (k, &bs_pos) in bs_positions.iter().enumerate() {
                    compiled.received_power_dbm_batch(
                        bs_pos,
                        positions,
                        &mut rss_matrix[k * a..(k + 1) * a],
                    );
                }
            }

            // Phase 1 — measure every active UE (RNG, fading, noise) and
            // run the batchable front half of its policy, collecting the
            // chunk's outstanding FLC inputs.
            reports.clear();
            pending.clear();
            batch_inputs.clear();
            batch_prev.clear();
            for (j, &i) in active_idx.iter().enumerate() {
                // invariant: active_idx only holds indices whose state
                // survived the retire scan above.
                let ue = ues[i].as_mut().expect("UE is live");
                let report = match prune_plan {
                    PrunePlan::Dense => {
                        for (k, slot) in means.iter_mut().enumerate() {
                            *slot = rss_matrix[k * a + j];
                        }
                        ue.begin_step(cfg, self.sim.candidates(), means, points[j], rng_scratch)
                    }
                    PrunePlan::Pruned { k, edge_margin_db } => {
                        let pos = positions[j];
                        let serving = ue.serving_index();
                        let cands = self.sim.candidates().of(serving);
                        // The decision inputs — serving + candidate
                        // table — are always measured exactly.
                        means[serving] = mean_at(serving, pos);
                        let mut best = f64::NEG_INFINITY;
                        for &cand in cands {
                            let m = mean_at(cand, pos);
                            means[cand] = m;
                            best = best.max(m);
                        }
                        // Edge classification on deterministic means (no
                        // RNG): interior UEs skip the k-nearest sweep.
                        let is_edge = match edge_margin_db {
                            None => true,
                            Some(margin) => means[serving] - best <= margin,
                        };
                        subset.clear();
                        if is_edge {
                            // The pruned candidate set: the k
                            // index-nearest cells, plus the serving cell
                            // and its whole candidate table.
                            subset.extend_from_slice(
                                self.sim.neighbor_index().nearest(pos, k),
                            );
                            let serving32 = cell_index_u32(serving);
                            if !subset.contains(&serving32) {
                                subset.push(serving32);
                            }
                            for &cand in cands {
                                let cand32 = cell_index_u32(cand);
                                if !subset.contains(&cand32) {
                                    subset.push(cand32);
                                }
                            }
                            for &slot in subset.iter() {
                                let slot = slot as usize;
                                if slot != serving && !cands.contains(&slot) {
                                    means[slot] = mean_at(slot, pos);
                                }
                            }
                        } else {
                            subset.push(cell_index_u32(serving));
                            for &cand in cands {
                                let cand32 = cell_index_u32(cand);
                                if !subset.contains(&cand32) {
                                    subset.push(cand32);
                                }
                            }
                        }
                        ue.begin_step_pruned(cfg, self.sim.candidates(), means, points[j], subset)
                    }
                };
                // BS-failure plane: with the serving cell down the UE is
                // force-evicted onto the strongest live candidate
                // (hd 1.0, the forced-decision convention the baselines
                // use) without consulting its policy; with any candidate
                // down the neighbour is re-picked among live cells so no
                // policy ever hands over to a dead BS. No live target ⇒
                // forced stay. `down_now` is `None` on the static path,
                // so none of this executes there.
                let mut report = report;
                let mut forced: Option<Decision> = None;
                if let Some(down) = down_now {
                    let serving_idx = ue.serving_index();
                    let serving_down = down[serving_idx];
                    let candidate_down =
                        self.sim.candidates().of(serving_idx).iter().any(|&k| down[k]);
                    if serving_down || candidate_down {
                        match ue.report(cfg, self.sim.candidates(), points[j], Some(down)) {
                            Some(live_report) => {
                                report = live_report;
                                if serving_down {
                                    forced = Some(Decision::Handover {
                                        target: report.neighbor,
                                        hd: 1.0,
                                    });
                                }
                            }
                            None => {
                                forced = Some(Decision::Stay(StayReason::ConditionNotMet));
                            }
                        }
                    }
                }
                let step_state = if let Some(decision) = forced {
                    StepPending::Decided(decision)
                } else {
                    match policies[i].as_fuzzy() {
                    Some(fuzzy) => match fuzzy.decide_pre(&report) {
                        FlcStage::Resolved(decision) => StepPending::Decided(decision),
                        FlcStage::NeedsHd { inputs, prev_serving_rss } => {
                            let batchable = match (&chunk_plan, fuzzy.shared_plan()) {
                                (Some(chunk), Some(own)) => Arc::ptr_eq(chunk, own),
                                _ => false,
                            };
                            if batchable {
                                batch_inputs.extend(inputs.as_array());
                                batch_prev.push(prev_serving_rss);
                                StepPending::AwaitHd(batch_prev.len() - 1)
                            } else {
                                // Non-shared plane (LUT/Sugeno/custom FIS):
                                // evaluate through the controller itself.
                                let hd = fuzzy.evaluate_hd(&inputs);
                                StepPending::Decided(fuzzy.decide_with_hd(
                                    &report,
                                    hd,
                                    prev_serving_rss,
                                ))
                            }
                        }
                    },
                    None => StepPending::Decided(policies[i].decide(&report)),
                    }
                };
                reports.push(report);
                pending.push(step_state);
            }

            // Phase 2 — one batched FLC evaluation for the whole chunk.
            if !batch_prev.is_empty() {
                // invariant: AwaitHd entries are only queued when the
                // policy's shared plan pointer-equals chunk_plan above.
                let fis = chunk_plan.as_ref().expect("batched entries imply a chunk plan");
                batch_hd.clear();
                batch_hd.resize(batch_prev.len(), 0.0);
                fis.evaluate_batch(batch_inputs, batch_hd, flc_scratch)
                    // invariant: the paper rule base covers the whole
                    // input space, so batched evaluation cannot fail on
                    // in-range inputs.
                    .expect("the paper FLC fires on every input");
            }

            // Phase 3 — resolve pending decisions and commit every step.
            for (j, &i) in active_idx.iter().enumerate() {
                let decision = match pending[j] {
                    StepPending::Decided(decision) => decision,
                    StepPending::AwaitHd(k) => {
                        let fuzzy =
                            policies[i].as_fuzzy().expect("pending FLC entries are fuzzy");
                        fuzzy.decide_with_hd(&reports[j], batch_hd[k], batch_prev[k])
                    }
                };
                // invariant: same active_idx liveness as Phase 1; no
                // retire happens between the phases.
                let ue = ues[i].as_mut().expect("UE is live");
                let outcome =
                    ue.finish_step(cfg, &reports[j], decision, points[j], policies[i].as_mut());
                part.cell_load.record_index(outcome.serving_after_idx);
                if tracing {
                    // Change points are recorded at the *global* lockstep
                    // step: without churn it equals the per-UE step
                    // counter (every UE starts at step 0), with churn it
                    // puts arrivals and handovers of different UEs on one
                    // shared timeline for the replay.
                    let cell = cell_index_u32(outcome.serving_after_idx);
                    if trace_bufs[i].last().map_or(true, |&(_, c)| c != cell) {
                        trace_bufs[i].push((step, cell));
                    }
                    trace_steps[i] = step + 1;
                }
                if let Some(hd) = outcome.hd {
                    hd_sums[i] += hd;
                    hd_counts[i] += 1;
                }
                travelled[i] = points[j].cum_km;
            }
            step += 1;
        }
    }
}

/// Feed `items` to `f` in consecutive chunks of `chunk_size` (the last
/// one possibly shorter) through one reused buffer.
fn for_each_chunk<T>(items: impl Iterator<Item = T>, chunk_size: usize, mut f: impl FnMut(&[T])) {
    let mut buf = Vec::with_capacity(chunk_size);
    for item in items {
        buf.push(item);
        if buf.len() == chunk_size {
            f(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(&buf);
    }
}

/// A pass's finished UEs merged with those of the checkpoint it
/// continued, if any: outcomes, traces and serving load, id-sorted.
fn after_checkpoint(
    from: Option<&FleetCheckpoint>,
    out: PassPart,
) -> (Vec<UeOutcome>, Vec<UeTrace>, CellLoadHistogram) {
    let Some(cp) = from else {
        return (out.outcomes, out.traces, out.cell_load);
    };
    let mut outcomes = cp.finished.clone();
    outcomes.extend(out.outcomes);
    outcomes.sort_by_key(|o| o.ue_id);
    let mut traces = cp.finished_traces.clone();
    traces.extend(out.traces);
    traces.sort_by_key(|t| t.ue_id);
    let mut cell_load = cp.cell_load.clone();
    cell_load.merge(&out.cell_load);
    (outcomes, traces, cell_load)
}

/// Narrow a layout cell index to the `u32` the pruned-subset buffers
/// and trace change points store. Upstream invariant: cell indices come
/// from `CellLayout`, whose construction is quadratic in the ring
/// radius and exhausts memory long before `u32::MAX` cells — so the
/// cast can never truncate for an engine-built layout. A violated
/// invariant fails loudly here instead of silently wrapping.
#[inline]
fn cell_index_u32(idx: usize) -> u32 {
    debug_assert!(u32::try_from(idx).is_ok(), "cell index {idx} exceeds u32 range");
    idx as u32
}

/// Assemble a [`FleetResult`] from id-sorted outcomes: the summary is
/// folded in UE-id order (the `f64` determinism contract), traffic is
/// left for [`FleetSimulation::apply_traffic`].
fn assemble(outcomes: Vec<UeOutcome>, cell_load: CellLoadHistogram) -> FleetResult {
    let mut summary = FleetSummary::default();
    for o in &outcomes {
        summary.absorb(&o.summary());
    }
    FleetResult { outcomes, cell_load, summary, traffic: None, dynamics: None }
}

/// Derive the [`DynamicReport`] of a run from its id-sorted traces and
/// serving-load histogram: the concurrent-population timeline (a
/// difference array over `[arrival, departure)` presence windows), the
/// Jain fairness of the per-cell serving load, and the dwell-time
/// percentiles between consecutive serving-cell changes. Everything is
/// a fold over sorted traces, so the report inherits the fleet's
/// worker/chunk/submission-order invariance.
fn dynamic_report(
    traces: &[UeTrace],
    cell_load: &CellLoadHistogram,
    traffic: Option<DynamicTrafficStats>,
) -> DynamicReport {
    let timeline = traces.iter().map(|t| t.steps).max().unwrap_or(0);
    let mut arrivals = 0u64;
    let mut departures = 0u64;
    let mut diff = vec![0i64; timeline as usize + 1];
    let mut dwells: Vec<u64> = Vec::new();
    for trace in traces {
        let Some(&(arrival, _)) = trace.changes.first() else {
            continue;
        };
        if arrival > 0 {
            arrivals += 1;
        }
        if trace.steps < timeline {
            departures += 1;
        }
        // invariant: engine-built traces record change points strictly
        // below `trace.steps`, and `timeline` is the max of all
        // `trace.steps` — both indices land inside `diff`
        // (len `timeline + 1`). A malformed (hand-built or foreign)
        // trace fails loudly in debug and is skipped in release rather
        // than panicking or silently corrupting the timeline.
        let a = arrival as usize;
        let e = trace.steps as usize;
        debug_assert!(
            arrival < trace.steps && trace.steps <= timeline,
            "malformed UeTrace: change at step {arrival} of {} steps (timeline {timeline})",
            trace.steps
        );
        if a >= diff.len() || e >= diff.len() || a > e {
            continue;
        }
        diff[a] += 1;
        diff[e] -= 1;
        for w in trace.changes.windows(2) {
            dwells.push(w[1].0 - w[0].0);
        }
    }
    let mut pop = 0i64;
    let mut peak = 0u64;
    let mut pop_steps = 0u64;
    for &d in diff.iter().take(timeline as usize) {
        pop += d;
        peak = peak.max(pop as u64);
        pop_steps += pop as u64;
    }
    let shares: Vec<f64> = cell_load.iter().map(|(_, n)| n as f64).collect();
    dwells.sort_unstable();
    DynamicReport {
        timeline_steps: timeline,
        arrivals,
        departures,
        mean_population: if timeline == 0 { 0.0 } else { pop_steps as f64 / timeline as f64 },
        peak_population: peak,
        jain_cell_load: jain_index(&shares),
        ho_dwell: LatencyPercentiles::from_sorted(&dwells),
        traffic,
    }
}

/// Reduce a finished UE's state into its outcome (borrowing the state,
/// so the caller can recycle its allocations afterwards).
fn finish_ue(
    cfg: &SimConfig,
    ue_id: u64,
    state: &UeState,
    hd_sum: f64,
    hd_count: u64,
    travelled_km: f64,
) -> UeOutcome {
    let log = state.log();
    UeOutcome {
        ue_id,
        steps: state.step_count() as u64,
        handovers: log.handover_count() as u64,
        ping_pongs: log.ping_pong_report(cfg.pingpong_window_steps).ping_pongs as u64,
        outage_steps: log.outage_step_count() as u64,
        hd_sum,
        hd_count,
        travelled_km,
        final_serving: state.serving_cell(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use radiolink::{MeasurementNoise, ShadowingConfig};

    fn noisy_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
        cfg.noise = MeasurementNoise::new(1.0);
        cfg.sample_spacing_km = 0.2;
        cfg
    }

    fn fuzzy_walk_spec(trajectory_seed: u64) -> HomogeneousFleet {
        HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
            policy: PolicyKind::Fuzzy,
            trajectory_seed,
            cell_radius_km: 2.0,
        }
    }

    /// The UE ids `0..n`.
    fn ue_ids(n: u64) -> Vec<u64> {
        (0..n).collect()
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

    #[test]
    fn ue_zero_uses_the_base_seed() {
        assert_eq!(ue_seed(42, 0), 42);
        assert_ne!(ue_seed(42, 1), 43, "later UEs stride, not increment");
        let spread: std::collections::HashSet<u64> = (0..1000).map(|i| ue_seed(7, i)).collect();
        assert_eq!(spread.len(), 1000, "per-UE seeds are distinct");
    }

    #[test]
    fn trajectory_and_measurement_streams_are_domain_separated() {
        // Passing the same value as trajectory_seed and base_seed must
        // not hand one RNG stream to two consumers: the trajectory of
        // UE 0 is drawn from the masked stream, not from seed 42 itself.
        let spec = fuzzy_walk_spec(42);
        let from_spec = spec.trajectory(0);
        let unmasked = spec
            .mobility
            .generate(&mut StdRng::seed_from_u64(42));
        assert_ne!(from_spec, unmasked, "trajectory stream must be masked");
        let masked = spec
            .mobility
            .generate(&mut StdRng::seed_from_u64(ue_seed(42 ^ TRAJECTORY_STREAM, 0)));
        assert_eq!(from_spec, masked, "mask contract is pinned");
    }

    #[test]
    fn one_ue_fleet_matches_single_run_bit_for_bit() {
        let cfg = noisy_config();
        let make = || -> Box<dyn HandoverPolicy + Send> { PolicyKind::Fuzzy.build(2.0) };
        let walk = RandomWalk::paper_default(8).generate(&mut StdRng::seed_from_u64(11));
        let spec = SingleUe { trajectory: walk.clone(), make_policy: make };

        let fleet = FleetSimulation::new(cfg.clone());
        let result = fleet.try_run_ids(&spec, &ue_ids(1), 77).unwrap();

        let sim = Simulation::new(cfg.clone());
        let mut policy = PolicyKind::Fuzzy.build(2.0);
        let reference = sim.run(&walk, policy.as_mut(), 77);
        let expected = UeOutcome::from_sim_result(0, &reference, cfg.pingpong_window_steps);

        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0], expected);
        assert_eq!(result.outcomes[0].hd_sum.to_bits(), expected.hd_sum.to_bits());
        assert_eq!(result.summary.steps, expected.steps);
    }

    #[test]
    fn worker_count_and_chunk_size_do_not_change_results() {
        let spec = fuzzy_walk_spec(5);
        let reference = FleetSimulation::new(noisy_config())
            .try_run_ids(&spec, &ue_ids(40), 9)
            .unwrap();
        for workers in [2, 3, 8] {
            for chunk in [1, 7, 64] {
                let got = FleetSimulation::new(noisy_config())
                    .with_workers(workers)
                    .with_chunk_size(chunk)
                    .try_run_ids(&spec, &ue_ids(40), 9)
                    .unwrap();
                assert_eq!(reference, got, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn ue_submission_order_does_not_change_results() {
        let spec = fuzzy_walk_spec(3);
        let fleet = FleetSimulation::new(noisy_config()).with_workers(2).with_chunk_size(4);
        let forward: Vec<u64> = (0..30).collect();
        let mut shuffled = forward.clone();
        shuffled.reverse();
        shuffled.swap(3, 17);
        shuffled.rotate_left(11);
        assert_eq!(
            fleet.try_run_ids(&spec, &forward, 4).unwrap(),
            fleet.try_run_ids(&spec, &shuffled, 4).unwrap()
        );
    }

    #[test]
    fn fleet_reruns_are_deterministic_and_seeds_matter() {
        let spec = fuzzy_walk_spec(1);
        let fleet = FleetSimulation::new(noisy_config()).with_workers(4);
        let a = fleet.try_run_ids(&spec, &ue_ids(25), 100).unwrap();
        let b = fleet.try_run_ids(&spec, &ue_ids(25), 100).unwrap();
        let c = fleet.try_run_ids(&spec, &ue_ids(25), 101).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "the measurement base seed reaches every UE");
    }

    #[test]
    fn cell_load_accounts_every_ue_step() {
        let spec = fuzzy_walk_spec(2);
        let result = FleetSimulation::new(noisy_config())
            .with_workers(3)
            .try_run_ids(&spec, &ue_ids(50), 8)
            .unwrap();
        let total_steps: u64 = result.outcomes.iter().map(|o| o.steps).sum();
        assert_eq!(result.cell_load.total(), total_steps);
        assert_eq!(result.summary.steps, total_steps);
        assert_eq!(result.summary.ues, 50);
        assert!(result.cell_load.peak().1 > 0, "someone served someone");
        // Walks start at the origin BS, so the origin cell dominates.
        assert_eq!(result.cell_load.peak().0, Axial::ORIGIN);
    }

    #[test]
    fn outcomes_are_sorted_by_ue_id() {
        let spec = fuzzy_walk_spec(6);
        let result = FleetSimulation::new(noisy_config())
            .with_workers(5)
            .try_run_ids(&spec, &ue_ids(23), 1)
            .unwrap();
        let ids: Vec<u64> = result.outcomes.iter().map(|o| o.ue_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 23);
    }

    #[test]
    fn empty_fleet_is_a_benign_no_op() {
        let spec = fuzzy_walk_spec(0);
        let result = FleetSimulation::new(noisy_config())
            .try_run_ids(&spec, &ue_ids(0), 0)
            .unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.summary, FleetSummary::default());
        assert_eq!(result.cell_load.total(), 0);
    }

    #[test]
    fn hd_free_fleets_report_no_mean_hd() {
        // A threshold so deep it never fires: no handovers, no FLC
        // outputs — mean HD must be None, not NaN.
        let spec = HomogeneousFleet {
            policy: PolicyKind::Threshold { threshold_dbm: -500.0 },
            ..fuzzy_walk_spec(4)
        };
        let result = FleetSimulation::new(noisy_config())
            .try_run_ids(&spec, &ue_ids(10), 2)
            .unwrap();
        assert_eq!(result.summary.handovers, 0);
        assert_eq!(result.summary.mean_hd(), None, "no FLC data is None, never NaN");
        assert!(result.summary.steps > 0);
        let json = serde_json::to_string(&result.summary).unwrap();
        assert!(!json.contains("NaN") && !json.contains("null"), "{json}");
    }

    #[test]
    fn fuzzy_fleet_pings_pongs_less_than_zero_margin_hysteresis() {
        let fuzzy = fuzzy_walk_spec(12);
        let naive = HomogeneousFleet {
            policy: PolicyKind::Hysteresis { margin_db: 0.0 },
            ..fuzzy
        };
        let fleet = FleetSimulation::new(noisy_config()).with_workers(4);
        let f = fleet.try_run_ids(&fuzzy, &ue_ids(60), 5).unwrap().summary;
        let n = fleet.try_run_ids(&naive, &ue_ids(60), 5).unwrap().summary;
        assert!(
            f.handovers < n.handovers,
            "fuzzy ({}) hands over less than naive ({})",
            f.handovers,
            n.handovers
        );
        assert!(f.ping_pong_ratio() <= n.ping_pong_ratio());
    }

    #[test]
    fn single_point_trajectories_take_exactly_one_step() {
        // A fleet of pinned UEs (zero-length walks): one measurement
        // step each, no handovers, all load on the origin cell.
        let make = || -> Box<dyn HandoverPolicy + Send> { PolicyKind::Fuzzy.build(2.0) };
        let spec = SingleUe {
            trajectory: Trajectory::new(vec![cellgeom::Vec2::new(0.2, 0.1)]),
            make_policy: make,
        };
        let result = FleetSimulation::new(noisy_config())
            .with_workers(2)
            .try_run_ids(&spec, &ue_ids(12), 1)
            .unwrap();
        assert_eq!(result.summary.steps, 12);
        assert_eq!(result.summary.handovers, 0);
        assert_eq!(result.cell_load.count(Axial::ORIGIN), 12);
        for o in &result.outcomes {
            assert_eq!(o.steps, 1);
            assert_eq!(o.travelled_km, 0.0);
            assert_eq!(o.final_serving, Axial::ORIGIN);
        }
    }

    #[test]
    fn lut_policy_fleet_tracks_the_exact_fuzzy_fleet() {
        // The fuzzy-lut ablation runs the same POTLC/PRTLC gates around a
        // trilinear HD approximation: fleet-level metrics must land close
        // to the exact controller (identical up to decisions whose exact
        // HD sits within the LUT error of the 0.7 threshold).
        let exact_spec = fuzzy_walk_spec(12);
        let lut_spec = HomogeneousFleet { policy: PolicyKind::FuzzyLut, ..exact_spec };
        let fleet = FleetSimulation::new(noisy_config()).with_workers(3);
        let exact = fleet
            .try_run_ids(&exact_spec, &ue_ids(40), 5)
            .unwrap()
            .summary;
        let lut = fleet
            .try_run_ids(&lut_spec, &ue_ids(40), 5)
            .unwrap()
            .summary;
        assert_eq!(exact.steps, lut.steps, "gates and walks are identical");
        let per_ue_gap =
            (exact.handovers as f64 - lut.handovers as f64).abs() / exact.ues as f64;
        assert!(
            per_ue_gap < 0.5,
            "LUT fleet diverged: {} vs {} handovers",
            exact.handovers,
            lut.handovers
        );
        assert!(lut.mean_hd().is_some(), "the LUT plane still reports HD values");
    }

    #[test]
    fn mixed_plane_chunks_batch_only_the_shared_plan() {
        // A chunk mixing exact-plan, LUT-plan and baseline policies must
        // step every UE correctly: each UE's outcome equals the homogeneous
        // fleet outcome of its own policy (UE results are independent, so
        // mixing must not perturb them).
        struct Mixed;
        impl UeSpec for Mixed {
            fn trajectory(&self, ue_id: u64) -> Trajectory {
                fuzzy_walk_spec(7).trajectory(ue_id)
            }
            fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
                match ue_id % 3 {
                    0 => PolicyKind::Fuzzy.build(2.0),
                    1 => PolicyKind::FuzzyLut.build(2.0),
                    _ => PolicyKind::Hysteresis { margin_db: 4.0 }.build(2.0),
                }
            }
        }
        struct Uniform(PolicyKind);
        impl UeSpec for Uniform {
            fn trajectory(&self, ue_id: u64) -> Trajectory {
                fuzzy_walk_spec(7).trajectory(ue_id)
            }
            fn policy(&self, _ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
                self.0.build(2.0)
            }
        }
        let fleet = FleetSimulation::new(noisy_config()).with_chunk_size(6);
        let mixed = fleet.try_run_ids(&Mixed, &ue_ids(18), 9).unwrap();
        for (kind, residue) in [
            (PolicyKind::Fuzzy, 0),
            (PolicyKind::FuzzyLut, 1),
            (PolicyKind::Hysteresis { margin_db: 4.0 }, 2),
        ] {
            let uniform = fleet.try_run_ids(&Uniform(kind), &ue_ids(18), 9).unwrap();
            for (m, u) in mixed.outcomes.iter().zip(&uniform.outcomes) {
                if m.ue_id % 3 == residue {
                    assert_eq!(m, u, "{} UE {} drifted in the mixed chunk", kind.label(), m.ue_id);
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let spec = fuzzy_walk_spec(9);
        let result = FleetSimulation::new(noisy_config())
            .try_run_ids(&spec, &ue_ids(3), 6)
            .unwrap();
        let back: FleetResult =
            serde_json::from_str(&serde_json::to_string(&result).unwrap()).unwrap();
        assert_eq!(result, back);
    }

    #[test]
    fn passive_traffic_plane_never_perturbs_the_fleet() {
        // The traffic plane is observational: with load_feedback off,
        // outcomes / summary / cell load are bit-identical to the
        // traffic-free run, and only `traffic` is added.
        let spec = fuzzy_walk_spec(21);
        let bare = FleetSimulation::new(noisy_config())
            .with_workers(3)
            .try_run_ids(&spec, &ue_ids(30), 7)
            .unwrap();
        let traffic = FleetSimulation::new(noisy_config())
            .with_workers(3)
            .with_traffic(demo_traffic())
            .try_run_ids(&spec, &ue_ids(30), 7)
            .unwrap();
        assert_eq!(bare.outcomes, traffic.outcomes);
        assert_eq!(bare.summary, traffic.summary);
        assert_eq!(bare.cell_load, traffic.cell_load);
        assert_eq!(bare.traffic, None);
        let report = traffic.traffic.expect("traffic plane ran");
        assert_eq!(report.steps, bare.outcomes.iter().map(|o| o.steps).max().unwrap());
        assert!(report.offered_calls > 0, "30 UEs at 0.4 E each must dial");
        assert_eq!(report.offered_calls, report.carried_calls + report.blocked_calls);
    }

    #[test]
    fn traffic_report_is_worker_and_chunk_invariant() {
        let spec = fuzzy_walk_spec(13);
        let reference = FleetSimulation::new(noisy_config())
            .with_traffic(demo_traffic())
            .try_run_ids(&spec, &ue_ids(40), 3)
            .unwrap();
        for (workers, chunk) in [(2, 1), (3, 7), (8, 64)] {
            let got = FleetSimulation::new(noisy_config())
                .with_traffic(demo_traffic())
                .with_workers(workers)
                .with_chunk_size(chunk)
                .try_run_ids(&spec, &ue_ids(40), 3)
                .unwrap();
            assert_eq!(reference, got, "workers={workers} chunk={chunk}");
        }
    }

    #[test]
    fn load_feedback_changes_load_aware_decisions_only() {
        // A congested plane with a load-aware policy: the feedback pass
        // must shift decisions (the whole point), while a load-blind
        // policy under the same feedback flag stays bit-identical (the
        // field reaches it but its hook is a no-op).
        let congested = TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 3.0,
            mean_holding_steps: 9.0,
            load_feedback: true,
        };
        let aware = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 12.0 },
            ..fuzzy_walk_spec(12)
        };
        let blind = HomogeneousFleet {
            policy: PolicyKind::Hysteresis { margin_db: 4.0 },
            ..fuzzy_walk_spec(12)
        };
        let passive = TrafficConfig { load_feedback: false, ..congested };

        let fed_aware = FleetSimulation::new(noisy_config())
            .with_traffic(congested)
            .try_run_ids(&aware, &ue_ids(60), 5)
            .unwrap();
        let passive_aware = FleetSimulation::new(noisy_config())
            .with_traffic(passive)
            .try_run_ids(&aware, &ue_ids(60), 5)
            .unwrap();
        assert_ne!(
            fed_aware.outcomes, passive_aware.outcomes,
            "occupancy feedback must reach load-aware decisions"
        );

        let fed_blind = FleetSimulation::new(noisy_config())
            .with_traffic(congested)
            .try_run_ids(&blind, &ue_ids(60), 5)
            .unwrap();
        let passive_blind = FleetSimulation::new(noisy_config())
            .with_traffic(passive)
            .try_run_ids(&blind, &ue_ids(60), 5)
            .unwrap();
        assert_eq!(
            fed_blind.outcomes, passive_blind.outcomes,
            "load-blind policies ignore the field"
        );
    }

    #[test]
    fn load_hysteresis_without_traffic_matches_plain_hysteresis() {
        let aware = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 12.0 },
            ..fuzzy_walk_spec(8)
        };
        let plain = HomogeneousFleet {
            policy: PolicyKind::Hysteresis { margin_db: 4.0 },
            ..fuzzy_walk_spec(8)
        };
        let fleet = FleetSimulation::new(noisy_config()).with_workers(2);
        assert_eq!(
            fleet.try_run_ids(&aware, &ue_ids(25), 4).unwrap().outcomes,
            fleet.try_run_ids(&plain, &ue_ids(25), 4).unwrap().outcomes,
            "no field ⇒ the bias never engages"
        );
    }

    #[test]
    fn traffic_feedback_runs_are_deterministic() {
        let spec = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 8.0 },
            ..fuzzy_walk_spec(2)
        };
        let congested = TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 3.0,
            mean_holding_steps: 9.0,
            load_feedback: true,
        };
        let mk = |workers| {
            FleetSimulation::new(noisy_config())
                .with_traffic(congested)
                .with_workers(workers)
                .try_run_ids(&spec, &ue_ids(30), 9)
                .unwrap()
        };
        let a = mk(1);
        assert_eq!(a, mk(1));
        assert_eq!(a, mk(4), "feedback passes stay worker-invariant");
        assert!(a.traffic.is_some());
    }

    #[test]
    fn all_four_mobility_models_run() {
        for mobility in FleetMobility::standard_four(5) {
            let spec = HomogeneousFleet {
                mobility,
                policy: PolicyKind::Fuzzy,
                trajectory_seed: 2,
                cell_radius_km: 2.0,
            };
            let result = FleetSimulation::new(noisy_config())
                .try_run_ids(&spec, &ue_ids(8), 3)
                .unwrap();
            assert_eq!(result.outcomes.len(), 8, "{}", mobility.label());
            assert!(result.summary.steps > 0, "{}", mobility.label());
        }
    }

    struct PanickingPolicy;
    impl HandoverPolicy for PanickingPolicy {
        fn decide(&mut self, _report: &MeasurementReport) -> Decision {
            panic!("policy exploded on purpose");
        }
        fn notify_handover(&mut self, _new_serving: Axial) {}
        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    fn panicking_spec() -> impl UeSpec {
        SingleUe {
            trajectory: RandomWalk::paper_default(4).generate(&mut StdRng::seed_from_u64(3)),
            make_policy: || Box::new(PanickingPolicy) as Box<dyn HandoverPolicy + Send>,
        }
    }

    #[test]
    fn worker_panics_surface_as_fleet_errors() {
        let err = FleetSimulation::new(noisy_config())
            .with_workers(2)
            .try_run_ids(&panicking_spec(), &ue_ids(4), 1)
            .unwrap_err();
        match err {
            FleetError::WorkerPanic(msg) => {
                assert!(msg.contains("on purpose"), "original panic message is preserved: {msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn streamed_worker_panics_surface_as_fleet_errors() {
        let err = FleetSimulation::new(noisy_config())
            .with_workers(2)
            .run_streamed(&panicking_spec(), 4, 1)
            .unwrap_err();
        match err {
            FleetError::WorkerPanic(msg) => {
                assert!(
                    msg.contains("on purpose"),
                    "original panic message is preserved: {msg}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn edge_set_with_infinite_margin_matches_nearest_bit_for_bit() {
        // Every UE classifies as edge ⇒ identical candidate subsets,
        // identical RNG draw allocation, identical everything.
        let spec = fuzzy_walk_spec(7);
        let nearest = FleetSimulation::new(noisy_config())
            .with_candidate_mode(CandidateMode::Nearest(9))
            .try_run_ids(&spec, &ue_ids(30), 4)
            .unwrap();
        let edge = FleetSimulation::new(noisy_config())
            .with_candidate_mode(CandidateMode::EdgeSet { k: 9, margin_db: f64::INFINITY })
            .try_run_ids(&spec, &ue_ids(30), 4)
            .unwrap();
        assert_eq!(nearest, edge);
    }

    #[test]
    fn edge_set_interior_fast_path_is_deterministic_and_sane() {
        let spec = fuzzy_walk_spec(7);
        let mode = CandidateMode::EdgeSet { k: 9, margin_db: 6.0 };
        let reference = FleetSimulation::new(noisy_config())
            .with_candidate_mode(mode)
            .try_run_ids(&spec, &ue_ids(30), 4)
            .unwrap();
        for (workers, chunk) in [(2, 5), (4, 64)] {
            let got = FleetSimulation::new(noisy_config())
                .with_candidate_mode(mode)
                .with_workers(workers)
                .with_chunk_size(chunk)
                .try_run_ids(&spec, &ue_ids(30), 4)
                .unwrap();
            assert_eq!(reference, got, "workers={workers} chunk={chunk}");
        }
        let dense = FleetSimulation::new(noisy_config())
            .try_run_ids(&spec, &ue_ids(30), 4)
            .unwrap();
        assert_eq!(reference.summary.steps, dense.summary.steps, "same walks, same steps");
        assert!(reference.summary.handovers > 0, "edge UEs still hand over");
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_run() {
        let spec = fuzzy_walk_spec(11);
        let fleet = FleetSimulation::new(noisy_config()).with_workers(2).with_chunk_size(5);
        let ids: Vec<u64> = (0..20).collect();
        let full = fleet.try_run_ids(&spec, &ids, 6).unwrap();
        // Bounds before, inside and past every walk (10_000 ⇒ the
        // snapshot holds only finished UEs).
        for k in [0, 1, 5, 13, 10_000] {
            let cp = fleet.advance(&spec, None, &ids, 6, k).unwrap();
            assert_eq!(cp.ue_count(), ids.len(), "snapshot at step {k} covers the fleet");
            let resumed = fleet.try_resume(&spec, &cp).unwrap();
            assert_eq!(full, resumed, "snapshot at step {k}");
            for (a, b) in full.outcomes.iter().zip(&resumed.outcomes) {
                assert_eq!(
                    a.hd_sum.to_bits(),
                    b.hd_sum.to_bits(),
                    "step {k} UE {} HD stream drifted",
                    a.ue_id
                );
            }
        }
    }

    #[test]
    fn checkpoint_is_worker_and_chunk_invariant() {
        let spec = fuzzy_walk_spec(3);
        let ids: Vec<u64> = (0..15).collect();
        let reference = FleetSimulation::new(noisy_config())
            .advance(&spec, None, &ids, 2, 4)
            .unwrap();
        for (workers, chunk) in [(2, 1), (3, 7), (8, 64)] {
            let cp = FleetSimulation::new(noisy_config())
                .with_workers(workers)
                .with_chunk_size(chunk)
                .advance(&spec, None, &ids, 2, 4)
                .unwrap();
            assert_eq!(reference, cp, "workers={workers} chunk={chunk}");
        }
        // And the resume side is free to use a different pool shape.
        let full = FleetSimulation::new(noisy_config())
            .try_run_ids(&spec, &ids, 2)
            .unwrap();
        let resumed = FleetSimulation::new(noisy_config())
            .with_workers(5)
            .with_chunk_size(3)
            .try_resume(&spec, &reference)
            .unwrap();
        assert_eq!(full, resumed);
    }

    #[test]
    fn traffic_checkpoint_resumes_bit_identically() {
        let spec = fuzzy_walk_spec(21);
        let mk = || FleetSimulation::new(noisy_config()).with_workers(3).with_traffic(demo_traffic());
        let ids: Vec<u64> = (0..30).collect();
        let full = mk().try_run_ids(&spec, &ids, 7).unwrap();
        let cp = mk().advance(&spec, None, &ids, 7, 6).unwrap();
        assert!(cp.tracing, "traffic engines checkpoint their traces");
        let resumed = mk().try_resume(&spec, &cp).unwrap();
        assert_eq!(full, resumed);
        assert!(resumed.traffic.is_some(), "the replay runs at resume time");
    }

    #[test]
    fn feedback_traffic_checkpoint_resumes_bit_identically() {
        let congested = TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 3.0,
            mean_holding_steps: 9.0,
            load_feedback: true,
        };
        let spec = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 12.0 },
            ..fuzzy_walk_spec(12)
        };
        let mk = || FleetSimulation::new(noisy_config()).with_traffic(congested);
        let ids: Vec<u64> = (0..30).collect();
        let full = mk().try_run_ids(&spec, &ids, 5).unwrap();
        // The checkpoint freezes the first (load-blind) pass; resume
        // finishes it, replays traffic and reruns the fed pass — landing
        // on the uninterrupted result exactly.
        let cp = mk().advance(&spec, None, &ids, 5, 8).unwrap();
        let resumed = mk().with_workers(4).try_resume(&spec, &cp).unwrap();
        assert_eq!(full, resumed);
    }

    #[test]
    fn pruned_mode_checkpoints_too() {
        // The pruned modes carry extra lazy-shadowing state
        // (last_advanced_km) through the snapshot.
        let spec = fuzzy_walk_spec(9);
        let ids: Vec<u64> = (0..16).collect();
        for mode in
            [CandidateMode::Nearest(7), CandidateMode::EdgeSet { k: 7, margin_db: 4.0 }]
        {
            let mk = || FleetSimulation::new(noisy_config()).with_candidate_mode(mode);
            let full = mk().try_run_ids(&spec, &ids, 8).unwrap();
            let cp = mk().advance(&spec, None, &ids, 8, 5).unwrap();
            let resumed = mk().with_workers(3).try_resume(&spec, &cp).unwrap();
            assert_eq!(full, resumed, "{}", mode.label());
        }
    }

    #[test]
    fn checkpoint_serde_round_trips() {
        let spec = fuzzy_walk_spec(2);
        let ids: Vec<u64> = (0..8).collect();
        let fleet = FleetSimulation::new(noisy_config());
        let cp = fleet.advance(&spec, None, &ids, 3, 4).unwrap();
        assert!(!cp.live.is_empty(), "mid-run snapshots carry live UEs");
        let back: FleetCheckpoint =
            serde_json::from_str(&serde_json::to_string(&cp).unwrap()).unwrap();
        assert_eq!(cp, back);
        assert_eq!(
            fleet.try_resume(&spec, &cp).unwrap(),
            fleet.try_resume(&spec, &back).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "tracing")]
    fn resume_rejects_mismatched_traffic_plane() {
        let spec = fuzzy_walk_spec(1);
        let ids: Vec<u64> = (0..4).collect();
        let cp = FleetSimulation::new(noisy_config())
            .advance(&spec, None, &ids, 2, 3)
            .unwrap();
        // The typed PlaneMismatch error names both tracing flags.
        FleetSimulation::new(noisy_config())
            .with_traffic(demo_traffic())
            .try_resume(&spec, &cp)
            .unwrap();
    }

    #[test]
    fn streamed_summary_matches_dense_bit_for_bit() {
        let spec = fuzzy_walk_spec(5);
        let dense = FleetSimulation::new(noisy_config())
            .try_run_ids(&spec, &ue_ids(40), 9)
            .unwrap();
        for workers in [1, 3] {
            let streamed = FleetSimulation::new(noisy_config())
                .with_workers(workers)
                .with_chunk_size(7)
                .run_streamed(&spec, 40, 9)
                .unwrap();
            assert_eq!(dense.summary, streamed.summary, "workers={workers}");
            assert_eq!(
                dense.summary.hd_sum.to_bits(),
                streamed.summary.hd_sum.to_bits(),
                "the streamed HD fold keeps UE-id order"
            );
            assert_eq!(dense.cell_load, streamed.cell_load);
        }
    }

    #[test]
    fn streamed_rejects_traffic_plane() {
        let spec = fuzzy_walk_spec(1);
        let err = FleetSimulation::new(noisy_config())
            .with_traffic(demo_traffic())
            .run_streamed(&spec, 4, 1)
            .unwrap_err();
        assert_eq!(err, FleetError::InvalidConfig(ConfigError::StreamedTraffic));
        assert!(err.to_string().contains("no traffic plane"), "{err}");
    }
}
