//! Multi-UE fleet simulation: N mobile stations (hundreds to millions)
//! stepping concurrently through one shared [`CellLayout`].
//!
//! ## Architecture
//!
//! * **One live-UE record, one function per phase** — each worker holds
//!   its chunk of UEs as one `LiveUe` record per UE (id, engine state
//!   with serving cell / smoother + shadowing state, resample cursor,
//!   policy, running tallies, serving-cell trace, churn window), never
//!   the whole fleet, so memory stays proportional to
//!   `workers × chunk_size`, not to the fleet size. A record is built
//!   `fresh` or thawed from a [`UeCheckpoint`], and leaves by `freeze`
//!   (back into a checkpoint) or `retire` (into its [`UeOutcome`]). Every
//!   lockstep step runs five phase functions over a borrowed per-pass
//!   context: advance cursors (retire or park), measure, pre-gate
//!   (forced outage decisions included), batched FLC, commit. Retired UE
//!   states are recycled through a per-worker arena (reset in place,
//!   every allocation reused), so a million-UE run performs a bounded
//!   number of state allocations.
//! * **Compiled measurement plane** — per measurement step each UE's
//!   mean path loss comes from the compiled link budget
//!   ([`radiolink::CompiledBsRadio`], every position-independent term
//!   folded once per run), and its shadowing and noise draws from bulk
//!   gaussian fills — the one measurement routine [`Simulation::run`]
//!   uses too, so both paths are bit-identical. The opt-in
//!   [`CandidateMode::Nearest`] prunes the dense every-cell sweep to the
//!   cells near each UE, and [`CandidateMode::EdgeSet`] further restricts
//!   the full sweep to *cell-edge* UEs (see its docs).
//! * **Per-UE deterministic RNG streams** — UE `i`'s measurement
//!   randomness is seeded with [`ue_seed`]`(base_seed, i)`. UE 0 uses
//!   `base_seed` exactly, which is what makes a 1-UE fleet reproduce
//!   [`Simulation::run`] bit for bit; later UEs take golden-ratio-strided
//!   seeds (`StdRng::seed_from_u64` mixes them into independent ChaCha
//!   streams).
//! * **Sharded parallel stepping** — UE ids are split round-robin over
//!   the workers of `run_shards`, the one scoped runner the scenario
//!   matrix and the Monte-Carlo repetitions share (worker 0 is the
//!   calling thread).
//!   Because every UE owns its stream and the merge sorts outcomes by UE
//!   id before folding the `f64` aggregates, the result is bit-identical
//!   for any worker count, chunk size, or UE submission order. Worker
//!   panics are caught and surfaced as [`FleetError::WorkerPanic`].
//! * **One fallible run surface, one run path** —
//!   [`FleetSimulation::advance`] freezes a fresh run, or continues a
//!   [`FleetCheckpoint`] (per-UE engine + policy + RNG stream state),
//!   up to a lockstep step bound. It is the one collected stepping
//!   entry: it validates the engine and the snapshot, then compiles the
//!   measurement plane once for its pass, so the builders never check
//!   or panic. [`FleetSimulation::try_run_ids`] (an id set to
//!   completion) and [`FleetSimulation::try_resume`] (finish a
//!   checkpoint) are `advance` with no bound (`u64::MAX`), then the one
//!   assembly every collected run shares: fold the outcomes, replay
//!   the traces, rerun the load-feedback pass. Any chain of `advance`
//!   bounds ending in `try_resume` is bit-identical to the
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
use crate::dynamics::{ChurnConfig, DynamicsConfig};
use crate::engine::{MeasuredCells, SimConfig, Simulation, UeState};
use crate::resilience::{
    require_at_least, require_finite, require_in_range, require_non_negative, require_positive,
    validate_planes, ConfigError, FaultInjector,
};
use crate::traffic::{replay_traffic_dynamic, TrafficConfig, UeTrace};
use cellgeom::{Axial, Vec2};
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
use mobility::{
    AngleDistribution, GaussMarkov, ManhattanGrid, MobilityModel, RandomWalk, RandomWaypoint,
    ResampleIter, TracePoint,
};
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

/// The one scoped runner behind every parallel loop of the engine: runs
/// `shard(0)` on the calling thread and `shard(1..workers)` on scoped
/// threads, and returns the results in worker order (at least one, so a
/// one-worker run starts no thread). A shard that panics on a spawned
/// thread re-raises its own payload on the caller once every worker
/// has joined (the lowest such worker's, if several do).
pub(crate) fn run_shards<T: Send>(workers: usize, shard: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let shard = &shard;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || shard(w))).collect();
        let first = shard(0);
        let joined: Vec<_> = spawned.into_iter().map(|handle| handle.join()).collect();
        std::iter::once(first)
            .chain(joined.into_iter().map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p))))
            .collect()
    })
}

/// `f(0..len)` in index order, computed on `workers` (clamped to
/// `[1, len]`) [`run_shards`] workers: worker `w` takes the static
/// round-robin shard `w, w + workers, …`, independent of scheduling.
pub(crate) fn map_round_robin<R: Send>(
    len: usize,
    workers: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let workers = workers.clamp(1, len.max(1));
    let shards = run_shards(workers, |w| (w..len).step_by(workers).map(&f).collect::<Vec<_>>());
    let mut shards: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    (0..len).filter_map(|k| shards[k % workers].next()).collect()
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
    /// Measure every layout cell for every UE (the dense sweep: one
    /// compiled link budget per cell and UE-step). This is the default
    /// and the only mode the byte-pinned golden reports run under.
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

/// The farthest from the origin, in km, that a fleet mobility model may
/// ever place a UE. [`FleetMobility::validated`] refuses a model whose
/// worst-case extent exceeds it. A million km is far past any cellular
/// layout and far below the `f64` range, so no sum of waypoints can
/// overflow to a non-finite position.
pub const MAX_MOBILITY_EXTENT_KM: f64 = 1e6;

/// The largest magnitude, in standard deviations, of a Box–Muller draw
/// from `mobility::gauss`: its radius draw `u1` is at least 2⁻⁵³, so
/// `|z| ≤ √(−2 ln 2⁻⁵³) ≈ 8.6`.
const GAUSSIAN_MAX_SIGMAS: f64 = 9.0;

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

    /// Typed validation of the model: every condition its `generate`
    /// asserts — walk, step, block and leg counts of at least 1,
    /// positive finite step means and block size, non-negative finite
    /// standard deviations, `alpha` and the turn probability in [0, 1],
    /// a non-empty finite waypoint box — plus finite headings and start
    /// points, so no generated waypoint is NaN, and a worst-case extent
    /// (see `extent_bound_km`) within [`MAX_MOBILITY_EXTENT_KM`], so no
    /// generated waypoint overflows to infinity.
    pub fn validated(&self) -> Result<(), ConfigError> {
        match *self {
            FleetMobility::RandomWalk(m) => {
                require_at_least("random-walk walk count", 1, m.n_walks as u64)?;
                require_positive("random-walk mean step", m.step_mean_km)?;
                require_non_negative("random-walk step std", m.step_std_km)?;
                if let AngleDistribution::Gaussian { mean_rad, std_rad } = m.angle {
                    require_finite("random-walk mean heading", mean_rad)?;
                    require_non_negative("random-walk heading std", std_rad)?;
                }
                require_finite_point("random-walk start", m.start)
            }
            FleetMobility::GaussMarkov(m) => {
                require_at_least("Gauss-Markov step count", 1, m.n_steps as u64)?;
                require_in_range("Gauss-Markov alpha", m.alpha, 0.0, 1.0)?;
                require_finite("Gauss-Markov mean heading", m.mean_heading_rad)?;
                require_non_negative("Gauss-Markov heading std", m.heading_std_rad)?;
                require_positive("Gauss-Markov mean step", m.mean_step_km)?;
                require_non_negative("Gauss-Markov step std", m.step_std_km)?;
                require_finite_point("Gauss-Markov start", m.start)
            }
            FleetMobility::Manhattan(m) => {
                require_at_least("Manhattan block count", 1, m.n_blocks as u64)?;
                require_positive("Manhattan block size", m.block_km)?;
                require_in_range("Manhattan turn probability", m.turn_prob, 0.0, 1.0)?;
                require_finite_point("Manhattan start", m.start)
            }
            FleetMobility::Waypoint(m) => {
                require_at_least("waypoint leg count", 1, m.n_legs as u64)?;
                // A positive finite extent also makes both corners finite.
                require_positive("waypoint box width", m.max.x - m.min.x)?;
                require_positive("waypoint box height", m.max.y - m.min.y)?;
                require_finite_point("waypoint start", m.start)
            }
        }?;
        let extent = self.extent_bound_km();
        require_in_range("mobility worst-case extent (km)", extent, 0.0, MAX_MOBILITY_EXTENT_KM)
    }

    /// An upper bound on the distance from the origin of any waypoint
    /// the model can generate, derived from its draws (every Gaussian
    /// within [`GAUSSIAN_MAX_SIGMAS`]):
    /// - random walk: `|start| + n·(mean + 9·std)`;
    /// - Gauss–Markov: the same form, with the step std scaled by the
    ///   memory's worst-case gain `√(1−α²)·min(n, 1/(1−α))` (a step is
    ///   `α·prev + (1−α)·mean + √(1−α²)·N(0, std)`, folded);
    /// - Manhattan: `|start| + n·block`;
    /// - waypoint: the farthest corner of the box (the start is clamped
    ///   into it).
    fn extent_bound_km(&self) -> f64 {
        match *self {
            FleetMobility::RandomWalk(m) => {
                let step = m.step_mean_km + GAUSSIAN_MAX_SIGMAS * m.step_std_km;
                m.start.norm() + m.n_walks as f64 * step
            }
            FleetMobility::GaussMarkov(m) => {
                let n = m.n_steps as f64;
                let gain = (1.0 - m.alpha * m.alpha).sqrt() * n.min(1.0 / (1.0 - m.alpha));
                let step = m.mean_step_km + GAUSSIAN_MAX_SIGMAS * m.step_std_km * gain;
                m.start.norm() + n * step
            }
            FleetMobility::Manhattan(m) => m.start.norm() + m.n_blocks as f64 * m.block_km,
            FleetMobility::Waypoint(m) => {
                let far = |lo: f64, hi: f64| lo.abs().max(hi.abs());
                Vec2::new(far(m.min.x, m.max.x), far(m.min.y, m.max.y)).norm()
            }
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
    /// Typed validation of the policy parameters: every condition the
    /// policy constructors assert — non-negative finite margins and load
    /// bias — plus finite thresholds.
    pub fn validated(&self) -> Result<(), ConfigError> {
        match *self {
            PolicyKind::Fuzzy | PolicyKind::FuzzyLut => Ok(()),
            PolicyKind::Hysteresis { margin_db } => {
                require_non_negative("hysteresis margin", margin_db)
            }
            PolicyKind::Threshold { threshold_dbm } => {
                require_finite("handover threshold", threshold_dbm)
            }
            PolicyKind::HysteresisThreshold { threshold_dbm, margin_db } => {
                require_finite("handover threshold", threshold_dbm)?;
                require_non_negative("hysteresis margin", margin_db)
            }
            PolicyKind::LoadHysteresis { margin_db, load_bias_db } => {
                require_non_negative("hysteresis margin", margin_db)?;
                require_non_negative("load bias", load_bias_db)
            }
        }
    }

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

impl HomogeneousFleet {
    /// Typed validation of the population: its mobility model, its
    /// policy and a positive finite cell radius. The run entries cannot
    /// check a [`UeSpec`] (it is opaque to them), so the callers that
    /// build one from outside input — the scenario matrix and the twin
    /// service — run this first; a defect would otherwise panic inside a
    /// worker.
    pub fn validated(&self) -> Result<(), ConfigError> {
        self.mobility.validated()?;
        self.policy.validated()?;
        require_positive("cell radius", self.cell_radius_km)
    }
}

/// Both coordinates of `point` are finite.
fn require_finite_point(field: &'static str, point: Vec2) -> Result<(), ConfigError> {
    require_finite(field, point.x)?;
    require_finite(field, point.y)
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
    /// `u64::MAX` never fires: the lockstep counter cannot reach it.
    max_steps: u64,
}

impl PassParams<'_> {
    /// An unbounded pass without a load field that collects outcomes.
    fn collect(base_seed: u64, traces: bool) -> Self {
        PassParams {
            base_seed,
            sink: PassSink::Collect { traces },
            load_field: None,
            max_steps: u64::MAX,
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

/// Per-worker scratch arena: the buffers the phases of a chunk step hand
/// each other, allocated once per worker and reused across steps and
/// chunks — including retired [`UeState`]s, which [`LiveUe::fresh`]
/// recycles through [`UeState::reset`] instead of reallocating. Every
/// per-step vector is indexed by `j`, the position in `active`.
struct ChunkArena {
    flc_scratch: EvalScratch,
    /// Retired UE states available for reuse.
    spare: Vec<UeState>,
    /// Phase 1: chunk indices of the UEs that step, in chunk order, and
    /// their measurement points.
    active: Vec<usize>,
    points: Vec<TracePoint>,
    /// Phase 2: per-cell means of the UE currently being measured.
    means: Vec<f64>,
    /// Phase 2: uniform scratch of the UE currently being measured.
    ///
    /// Sized once for the worst case (shadowing + noise both active on
    /// a dense step: `2 × n_cells` gaussians, two uniforms each) so the
    /// per-step resize inside `UeState::measure` never reallocates.
    /// Nothing in it outlives one UE's measurement, so neither chunk
    /// layout nor checkpoint boundaries can change a draw.
    rng_scratch: Vec<f64>,
    /// The pruned measurement subset of the UE being measured.
    subset: Vec<u32>,
    /// Phase 2: this step's scheduled-outage mask, one flag per cell
    /// (empty when no outage covers the step).
    down: Vec<bool>,
    /// Phase 2: one report per stepping UE.
    reports: Vec<MeasurementReport>,
    /// Phase 3: each stepping UE's decision, or its row in the FLC batch
    /// (`batch_inputs` holds three inputs per row).
    pending: Vec<StepPending>,
    batch_inputs: Vec<f64>,
    batch_prev: Vec<Option<f64>>,
    /// Phase 4: the batch's FLC outputs.
    batch_hd: Vec<f64>,
    /// The lockstep step of the chunk being stepped, which a worker that
    /// panics reports (see [`FleetSimulation::pass`]).
    step: u64,
}

impl ChunkArena {
    fn new(n_cells: usize) -> Self {
        ChunkArena {
            flc_scratch: EvalScratch::new(),
            spare: Vec::new(),
            active: Vec::new(),
            points: Vec::new(),
            means: vec![0.0; n_cells],
            rng_scratch: Vec::with_capacity(4 * n_cells),
            subset: Vec::with_capacity(n_cells),
            down: Vec::new(),
            reports: Vec::new(),
            pending: Vec::new(),
            batch_inputs: Vec::new(),
            batch_prev: Vec::new(),
            batch_hd: Vec::new(),
            step: 0,
        }
    }
}

/// The fleet engine. Wraps a [`Simulation`]-compatible configuration and
/// runs any number of UEs through it; see the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct FleetSimulation {
    config: SimConfig,
    workers: usize,
    chunk_size: usize,
    candidate_mode: CandidateMode,
    traffic: Option<TrafficConfig>,
    dynamics: Option<DynamicsConfig>,
    /// Armed chaos harness (testing only; `None` in production). The
    /// `Arc` is shared by clones, so the engine clone a supervisor runs
    /// sees the same one-shot fired flags.
    fault: Option<Arc<FaultInjector>>,
}

impl FleetSimulation {
    /// Default number of UEs stepped in lockstep per batch.
    pub const DEFAULT_CHUNK_SIZE: usize = 128;

    /// Build a fleet engine (1 worker, default chunk size, dense
    /// [`CandidateMode::All`] measurement). Neither this nor any `with_*`
    /// builder checks anything: every run entry validates the
    /// configuration and its planes ([`validate_planes`]) before it
    /// compiles the measurement plane, and reports a defect as
    /// [`FleetError::InvalidConfig`].
    pub fn new(config: SimConfig) -> Self {
        FleetSimulation {
            config,
            workers: 1,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            candidate_mode: CandidateMode::All,
            traffic: None,
            dynamics: None,
            fault: None,
        }
    }

    /// The worker count (worker 0 is the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attach an armed [`FaultInjector`] (see
    /// [`crate::resilience::FaultPlan`]): the engine's step loop and
    /// dense measure phase consult it, firing each scripted fault exactly
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

    /// Set the worker count (clamped to ≥ 1; worker 0 is the calling
    /// thread). Results are bit-identical for every value.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// [`FleetSimulation::with_workers`] in place.
    pub(crate) fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Set the lockstep batch size (clamped to ≥ 1). Results are
    /// bit-identical for every value; larger chunks give the batched FLC
    /// evaluation longer batches, smaller chunks bound memory tighter.
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
        &self.config
    }

    /// The check and compile of a run entry: [`validate_planes`] on this
    /// engine's configuration and planes, then the measurement plane
    /// (link budget, BS positions, candidate table). Runs before any
    /// worker starts, so a defect is a [`ConfigError`] instead of a
    /// mid-run panic or a silent NaN propagation.
    pub(crate) fn compile(&self) -> Result<Simulation, ConfigError> {
        validate_planes(&self.config, self.traffic.as_ref(), self.dynamics.as_ref())?;
        Ok(Simulation::from_validated(self.config.clone()))
    }

    /// Whether runs on this engine record serving-cell traces: a traffic
    /// or dynamics plane is attached (an inert dynamics plane normalizes
    /// away and does not count).
    pub fn tracing(&self) -> bool {
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
    ///
    /// This is [`FleetSimulation::advance`] with no step bound, then the
    /// assembly every collected run shares (`finish`).
    pub fn try_run_ids(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
    ) -> Result<FleetResult, FleetError> {
        let cp = self.advance(spec, None, ids, base_seed, u64::MAX)?;
        self.finish(spec, cp)
    }

    /// Run a fleet up to the lockstep step `target_step` and freeze it:
    /// start fresh from `ids` and `base_seed` (`from` is `None`) or
    /// continue an existing snapshot (`ids` and `base_seed` then come
    /// from the snapshot, whose finished UEs move into the new one). UEs
    /// whose walks end earlier finish normally; every other UE is
    /// suspended with its complete engine + policy + RNG-stream state,
    /// and the whole run comes back as a serializable
    /// [`FleetCheckpoint`]. A bound at or before the snapshot's step
    /// returns the snapshot unchanged; a bound of `u64::MAX` runs every
    /// UE to completion.
    ///
    /// Each call validates the engine ([`FleetError::InvalidConfig`])
    /// and the snapshot ([`FleetError::CorruptCheckpoint`]), then
    /// compiles the measurement plane once for its pass.
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
    /// second pass, if configured) runs when the run is finished
    /// ([`FleetSimulation::try_resume`]), once the traces are complete.
    pub fn advance(
        &self,
        spec: &dyn UeSpec,
        from: Option<FleetCheckpoint>,
        ids: &[u64],
        base_seed: u64,
        target_step: u64,
    ) -> Result<FleetCheckpoint, FleetError> {
        self.advance_or_return(spec, from, ids, base_seed, target_step, || Ok(()))
            .map_err(|failed| failed.0)
    }

    /// [`FleetSimulation::advance`] that hands `from` back, untouched,
    /// with the error: a failed attempt's snapshot is its retry's
    /// restore point. `watchdog` runs after the pass, and its error
    /// wins over the pass's result, so a supervisor can refuse a pass
    /// that did produce output.
    pub(crate) fn advance_or_return(
        &self,
        spec: &dyn UeSpec,
        from: Option<FleetCheckpoint>,
        ids: &[u64],
        base_seed: u64,
        target_step: u64,
        watchdog: impl FnOnce() -> Result<(), FleetError>,
    ) -> Result<FleetCheckpoint, Box<(FleetError, Option<FleetCheckpoint>)>> {
        let opened = self.compile().map_err(FleetError::from).and_then(|sim| {
            from.as_ref().map_or(Ok(()), |cp| self.check_checkpoint(cp))?;
            Ok(sim)
        });
        let (sim, from) = match (opened, from) {
            (Err(err), from) => return Err(Box::new((err, from))),
            (Ok(_), Some(cp)) if target_step <= cp.step => return Ok(cp),
            (Ok(sim), from) => (sim, from),
        };
        let (source, base_seed, tracing) = match &from {
            None => (PassSource::Ids(ids), base_seed, self.tracing()),
            Some(cp) => (PassSource::Restored(&cp.live, cp.step), cp.base_seed, cp.tracing),
        };
        let params = PassParams {
            max_steps: target_step,
            ..PassParams::collect(base_seed, tracing)
        };
        let pass = self.pass(&sim, spec, source, params);
        let out = match watchdog().and(pass) {
            Ok(out) => out,
            Err(err) => return Err(Box::new((err, from))),
        };
        let (finished, finished_traces, cell_load) = match from {
            None => (out.outcomes, out.traces, out.cell_load),
            Some(cp) => {
                let (mut outcomes, mut traces, mut cell_load) =
                    (cp.finished, cp.finished_traces, cp.cell_load);
                outcomes.extend(out.outcomes);
                outcomes.sort_by_key(|o| o.ue_id);
                traces.extend(out.traces);
                traces.sort_by_key(|t| t.ue_id);
                cell_load.merge(&out.cell_load);
                (outcomes, traces, cell_load)
            }
        };
        Ok(FleetCheckpoint {
            version: CHECKPOINT_VERSION,
            step: target_step,
            base_seed,
            finished,
            finished_traces,
            live: out.live,
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
    ///
    /// This is [`FleetSimulation::advance`] of a copy of `cp` with no
    /// step bound, then the assembly every collected run shares
    /// (`finish`).
    pub fn try_resume(
        &self,
        spec: &dyn UeSpec,
        cp: &FleetCheckpoint,
    ) -> Result<FleetResult, FleetError> {
        let cp = self.advance(spec, Some(cp.clone()), &[], cp.base_seed, u64::MAX)?;
        self.finish(spec, cp)
    }

    /// Snapshot-vs-engine compatibility ([`FleetCheckpoint::check_engine`]
    /// against this engine's layout and tracing plane).
    pub(crate) fn check_checkpoint(&self, cp: &FleetCheckpoint) -> Result<(), CheckpointError> {
        cp.check_engine(self.config(), self.tracing())
    }

    /// Run UEs `0..n_ues` and fold every chunk's outcomes into a running
    /// aggregate instead of materializing the per-UE outcome vector — the
    /// memory-bounded path for million-UE fleets: ids are generated
    /// lazily, peak memory is `O(workers × chunk_size)`, independent of
    /// `n_ues`, and no `UEs × cells` structure ever exists (each worker
    /// holds one chunk of UEs and one UE's per-cell measurement scratch).
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
        let sim = self.compile()?;
        let params = PassParams {
            sink: PassSink::Fold,
            ..PassParams::collect(base_seed, false)
        };
        let out = self.pass(&sim, spec, PassSource::Range(n_ues), params)?;
        Ok(FleetStreamSummary {
            summary: out.tally,
            cell_load: out.cell_load,
        })
    }

    /// Assemble the result of a snapshot whose every UE has finished —
    /// the one assembly of every collected run: fold the id-sorted
    /// outcomes, derive the dynamic-workload report from the traces,
    /// replay them against the channel capacities and, with load
    /// feedback on, rerun the finished UE ids (a pass is
    /// submission-order invariant) with the occupancy field injected,
    /// compiling the plane for that pass. No replay without a traffic or
    /// dynamics plane.
    pub(crate) fn finish(
        &self,
        spec: &dyn UeSpec,
        cp: FleetCheckpoint,
    ) -> Result<FleetResult, FleetError> {
        if !cp.live.is_empty() {
            // Only a forged snapshot a few steps short of `u64::MAX` is
            // still live at the final bound; never drop its UEs silently.
            let live = "live UEs at the final lockstep step u64::MAX".to_string();
            return Err(FleetError::CorruptCheckpoint(CheckpointError::ShapeMismatch(live)));
        }
        let (mut result, traces) = (assemble(cp.finished, cp.cell_load), cp.finished_traces);
        let Some(traffic) = &self.traffic else {
            if self.dynamics.is_some() {
                result.dynamics = Some(dynamic_report(&traces, &result.cell_load, None));
            }
            return Ok(result);
        };
        let (cells, base_seed) = (self.config.layout.cells(), cp.base_seed);
        let none = DynamicsConfig::none();
        let dynamics = self.dynamics.as_ref().unwrap_or(&none);
        let replay = |traces: &[UeTrace]| {
            replay_traffic_dynamic(traffic, cells, traces, base_seed, dynamics)
                .map_err(FleetError::InvalidConfig)
        };
        let (report, field, stats) = replay(&traces)?;
        let (mut result, traces, report, stats) = if traffic.load_feedback {
            let ids: Vec<u64> = result.outcomes.iter().map(|o| o.ue_id).collect();
            let field = Arc::new(field);
            let params = PassParams {
                load_field: Some(&field),
                ..PassParams::collect(base_seed, true)
            };
            let fed = self.pass(&self.compile()?, spec, PassSource::Ids(&ids), params)?;
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
    /// chunks on [`run_shards`], so a one-worker pass starts no thread.
    /// Every worker catches its own panics so they surface as
    /// [`FleetError::WorkerPanic`] with the original message. When
    /// several workers panic, the one that died at the lowest lockstep
    /// step is reported (ties: the lowest worker index), whatever order
    /// they finished in. Every output vector comes back sorted by UE id,
    /// and a [`PassSink::Fold`] pass has its HD sum folded in UE-id
    /// order.
    fn pass(
        &self,
        sim: &Simulation,
        spec: &dyn UeSpec,
        source: PassSource<'_>,
        params: PassParams<'_>,
    ) -> Result<PassPart, FleetError> {
        let cfg = sim.config();
        let cells = cfg.layout.cells();
        let ctx = PassCtx {
            cfg,
            sim,
            plan: self.candidate_mode.plan(cells.len()),
            outages: match &self.dynamics {
                Some(dynamics) => dynamics.outage_indices(cells)?,
                None => Vec::new(),
            },
            churn: self.dynamics.as_ref().and_then(|d| d.churn.as_ref()),
            fault: self.fault.as_deref(),
            tracing: params.sink == PassSink::Collect { traces: true },
            params,
        };
        let ctx = &ctx;
        let workers = (self.workers as u64).clamp(1, source.len().max(1)) as usize;
        let parts = run_shards(workers, |w| {
            let mut arena = ChunkArena::new(cells.len());
            let part = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut part = PassPart::new(cells);
                let mut step_chunk = |chunk: ChunkUes<'_>| {
                    ctx.simulate_chunk(spec, chunk, &mut arena, &mut part);
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
                        for_each_chunk(shard, size, |c| step_chunk(ChunkUes::Restored(c, start)));
                    }
                }
                part
            }));
            part.map_err(|p| (arena.step, panic_message(p.as_ref())))
        });
        // `min_by_key` keeps the first of equal steps: the lowest worker.
        let panics = parts.iter().filter_map(|part| part.as_ref().err());
        if let Some((_, message)) = panics.min_by_key(|&&(step, _)| step) {
            return Err(FleetError::WorkerPanic(message.clone()));
        }
        let mut out = PassPart::new(cells);
        for part in parts.into_iter().flatten() {
            out.merge(part);
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
}

/// The per-pass context every chunk borrows: the configuration and its
/// compiled measurement plane (link budget, BS positions, candidate
/// table, neighbour index), the resolved prune plan, the outage
/// timeline and churn model, and the pass parameters.
struct PassCtx<'a> {
    cfg: &'a SimConfig,
    sim: &'a Simulation,
    plan: PrunePlan,
    /// Scheduled outages as `(cell index, from, until)`; empty on the
    /// static path.
    outages: Vec<(usize, u64, u64)>,
    churn: Option<&'a ChurnConfig>,
    /// Armed chaos harness (`None` in production, at no cost).
    fault: Option<&'a FaultInjector>,
    params: PassParams<'a>,
    /// The pass records every UE's serving-cell trace.
    tracing: bool,
}

impl PassCtx<'_> {
    /// Step one chunk of UEs in lockstep ([`ChunkRun`]) and push every UE
    /// that finishes into `part`. With a step bound the chunk stops at
    /// that lockstep step and freezes its still-live UEs into
    /// `part.live`; restored UEs resume mid-walk.
    fn simulate_chunk(
        &self,
        spec: &dyn UeSpec,
        chunk: ChunkUes<'_>,
        arena: &mut ChunkArena,
        part: &mut PassPart,
    ) {
        // Trajectories hold only waypoints; each UE streams its
        // measurement points lazily through a cursor borrowing one.
        let (trajectories, step): (Vec<Trajectory>, u64) = match chunk {
            ChunkUes::Fresh(ids) => (ids.iter().map(|&id| spec.trajectory(id)).collect(), 0),
            ChunkUes::Restored(live, start) => {
                (live.iter().map(|cp| spec.trajectory(cp.ue_id)).collect(), start)
            }
        };
        let mut ues: Vec<LiveUe<'_>> = match chunk {
            ChunkUes::Fresh(ids) => (ids.iter().zip(&trajectories))
                .map(|(&id, walk)| LiveUe::fresh(self, spec, id, walk, &mut arena.spare))
                .collect(),
            ChunkUes::Restored(live, _) => (live.iter().zip(&trajectories))
                .map(|(cp, walk)| LiveUe::thaw(self, spec, cp, walk))
                .collect(),
        };
        // The chunk's shared FLC plan: when every pending fuzzy decision
        // runs on this plan (pointer-compared), the chunk evaluates them
        // through one `CompiledFis::evaluate_batch` call per step instead
        // of one virtual `decide` per UE. Controllers on other planes (a
        // custom per-UE FIS, the LUT/Sugeno ablations) fall back to their
        // own scalar path, so heterogeneous chunks stay correct.
        let plan = (ues.iter_mut())
            .find_map(|ue| ue.policy.as_fuzzy().and_then(|f| f.shared_plan().cloned()));
        let live = (0..ues.len()).collect();
        ChunkRun { ctx: self, ues, live, plan, step, arena, part }.run();
    }

    /// The measurement of one UE under the pass's plan. Either plan
    /// takes the means of the cells the report reads from
    /// [`Simulation::mean_rss_read`]; [`UeState::measure`] decides which
    /// measured cells it computes. Dense measures every cell. Pruned
    /// always measures the decision inputs — serving cell and candidate
    /// table — exactly; a UE at a cell edge (every UE under `Nearest`,
    /// which has no margin) also measures its `k` index-nearest cells.
    /// Edge classification reads deterministic means only (no RNG
    /// draws).
    fn measure(
        &self,
        ue: &mut UeState,
        point: TracePoint,
        means: &mut [f64],
        subset: &mut Vec<u32>,
        uniforms: &mut Vec<f64>,
    ) -> MeasurementReport {
        let (pos, serving) = (point.pos, ue.serving_index());
        self.sim.mean_rss_read(pos, serving, means);
        let PrunePlan::Pruned { k, edge_margin_db } = self.plan else {
            return ue.measure(self.sim, point, MeasuredCells::All, means, uniforms);
        };
        let cands = self.sim.candidates().of(serving);
        let best = cands.iter().fold(f64::NEG_INFINITY, |best, &cand| best.max(means[cand]));
        let edge = edge_margin_db.map_or(true, |margin| means[serving] - best <= margin);
        let nearest = if edge { self.sim.neighbor_index().nearest(pos, k) } else { &[] };
        fill_subset(subset, nearest, serving, cands);
        ue.measure(self.sim, point, MeasuredCells::Subset(subset), means, uniforms)
    }

    /// The scheduled-outage mask of `step` into `down`, one flag per
    /// cell; left empty when no outage window covers the step (always,
    /// on the static path).
    fn outage_mask(&self, step: u64, down: &mut Vec<bool>) {
        down.clear();
        for &(k, from, until) in &self.outages {
            if from <= step && step < until {
                down.resize(self.cfg.layout.len(), false);
                down[k] = true;
            }
        }
    }

    /// BS-failure plane: with the serving cell down the UE is
    /// force-evicted onto the strongest live candidate (hd 1.0, the
    /// forced-decision convention the baselines use) without consulting
    /// its policy; with any candidate down the neighbour is re-picked
    /// among live cells, so no policy ever hands over to a dead BS. No
    /// live target forces a stay.
    fn outage_override(
        &self,
        ue: &UeState,
        point: TracePoint,
        down: &[bool],
        report: &mut MeasurementReport,
    ) -> Option<Decision> {
        let serving = ue.serving_index();
        let serving_down = down[serving];
        if !serving_down && !self.sim.candidates().of(serving).iter().any(|&k| down[k]) {
            return None;
        }
        match ue.report(self.cfg, self.sim.candidates(), point, Some(down)) {
            Some(live_report) => {
                *report = live_report;
                serving_down.then_some(Decision::Handover { target: report.neighbor, hd: 1.0 })
            }
            None => Some(Decision::Stay(StayReason::ConditionNotMet)),
        }
    }
}

/// One chunk in flight: its live UEs in chunk order, its shared FLC
/// plan and lockstep step, over the borrowed pass context, the worker's
/// arena and its output part. Every lockstep step runs the five phase
/// methods in order — advance cursors, measure, pre-gate, batched FLC,
/// commit — and each phase hands the next one its per-step buffers in
/// the arena, indexed by `j`, the position in `arena.active`.
struct ChunkRun<'c, 't> {
    ctx: &'c PassCtx<'c>,
    /// Every UE of the chunk, in chunk order. Records never move: a
    /// retired or frozen one keeps its place until the chunk ends.
    ues: Vec<LiveUe<'t>>,
    /// Indices into `ues` of the UEs not yet retired, in chunk order.
    live: Vec<usize>,
    plan: Option<Arc<CompiledFis>>,
    step: u64,
    arena: &'c mut ChunkArena,
    part: &'c mut PassPart,
}

impl ChunkRun<'_, '_> {
    fn run(mut self) {
        loop {
            self.arena.step = self.step;
            // Chaos harness: fire any scripted stall/panic scheduled at
            // this lockstep step (one-shot, first worker wins; see
            // crate::resilience).
            if let Some(injector) = self.ctx.fault {
                injector.check_step(self.step);
            }
            if self.step >= self.ctx.params.max_steps {
                for &i in &self.live {
                    self.part.live.push(self.ues[i].freeze());
                }
                break;
            }
            let parked = self.advance_cursors();
            if self.arena.active.is_empty() {
                if parked == 0 {
                    break;
                }
                // Nothing is stepping yet but churned UEs are still due:
                // tick the lockstep clock without any engine work.
                self.step += 1;
                continue;
            }
            self.measure();
            self.pregate();
            self.evaluate_batch();
            self.commit();
            self.step += 1;
        }
        // Recycle every engine state for the worker's next chunk.
        self.arena.spare.extend(self.ues.drain(..).map(|ue| ue.state));
    }

    /// Phase 1: advance every live UE's resample cursor. A UE whose walk
    /// or churn lifetime is over retires into the part; one whose churn
    /// arrival is still ahead stays parked. The UEs that step keep their
    /// chunk order in `arena.active`, with their measurement points.
    /// Returns how many UEs are parked.
    fn advance_cursors(&mut self) -> usize {
        let (ctx, arena, part, step) = (self.ctx, &mut *self.arena, &mut *self.part, self.step);
        arena.active.clear();
        arena.points.clear();
        let (ues, mut parked) = (&mut self.ues, 0);
        self.live.retain(|&i| match ues[i].advance(step) {
            Advance::Parked => {
                parked += 1;
                true
            }
            Advance::At(point) => {
                arena.active.push(i);
                arena.points.push(point);
                true
            }
            Advance::Done => {
                let (outcome, trace) = ues[i].retire(ctx.cfg, ctx.tracing);
                part.outcomes.push(outcome);
                part.traces.extend(trace);
                false
            }
        });
        parked
    }

    /// Phase 2: measure every stepping UE (RNG, shadowing, noise) into
    /// `arena.reports`, one [`PassCtx::measure`] call per UE, and this
    /// step's outage mask into `arena.down`.
    fn measure(&mut self) {
        let (ctx, arena) = (self.ctx, &mut *self.arena);
        arena.reports.clear();
        ctx.outage_mask(self.step, &mut arena.down);
        // Chaos harness: a scripted allocation failure fires here, at the
        // start of a dense measure phase.
        if let (PrunePlan::Dense, Some(injector)) = (ctx.plan, ctx.fault) {
            injector.check_alloc_failure(self.step);
        }
        for (j, &i) in arena.active.iter().enumerate() {
            let (ue, point) = (&mut self.ues[i].state, arena.points[j]);
            let (means, subset) = (&mut arena.means, &mut arena.subset);
            arena.reports.push(ctx.measure(ue, point, means, subset, &mut arena.rng_scratch));
        }
    }

    /// Phase 3: the batchable front half of every stepping UE's policy,
    /// into `arena.pending`. A scheduled outage may force the decision
    /// ([`PassCtx::outage_override`]); otherwise a fuzzy policy on the
    /// chunk plan queues one row of FLC inputs for the batch, a fuzzy
    /// policy on another plane (LUT, Sugeno, custom FIS) evaluates through
    /// the controller itself, and any other policy decides outright.
    fn pregate(&mut self) {
        let (ctx, arena) = (self.ctx, &mut *self.arena);
        let outage = !arena.down.is_empty();
        arena.pending.clear();
        arena.batch_inputs.clear();
        arena.batch_prev.clear();
        for (j, &i) in arena.active.iter().enumerate() {
            let (ue, report) = (&mut self.ues[i], &mut arena.reports[j]);
            let forced = if outage {
                ctx.outage_override(&ue.state, arena.points[j], &arena.down, report)
            } else {
                None
            };
            let pending = match (forced, ue.policy.as_fuzzy()) {
                (Some(decision), _) => StepPending::Decided(decision),
                (None, None) => StepPending::Decided(ue.policy.decide(report)),
                (None, Some(fuzzy)) => match fuzzy.decide_pre(report) {
                    FlcStage::Resolved(decision) => StepPending::Decided(decision),
                    FlcStage::NeedsHd { inputs, prev_serving_rss } => {
                        let batchable = matches!(
                            (&self.plan, fuzzy.shared_plan()),
                            (Some(chunk), Some(own)) if Arc::ptr_eq(chunk, own)
                        );
                        if batchable {
                            arena.batch_inputs.extend(inputs.as_array());
                            arena.batch_prev.push(prev_serving_rss);
                            StepPending::AwaitHd(arena.batch_prev.len() - 1)
                        } else {
                            let hd = fuzzy.evaluate_hd(&inputs);
                            let decision = fuzzy.decide_with_hd(report, hd, prev_serving_rss);
                            StepPending::Decided(decision)
                        }
                    }
                },
            };
            arena.pending.push(pending);
        }
    }

    /// Phase 4: one batched FLC evaluation of every row phase 3 queued.
    fn evaluate_batch(&mut self) {
        let arena = &mut *self.arena;
        if arena.batch_prev.is_empty() {
            return;
        }
        // invariant: rows are only queued when the policy's shared plan
        // pointer-equals the chunk plan.
        let fis = self.plan.as_ref().expect("batched entries imply a chunk plan");
        arena.batch_hd.clear();
        arena.batch_hd.resize(arena.batch_prev.len(), 0.0);
        fis.evaluate_batch(&arena.batch_inputs, &mut arena.batch_hd, &mut arena.flc_scratch)
            // invariant: the paper rule base covers the whole input space,
            // so batched evaluation cannot fail on in-range inputs.
            .expect("the paper FLC fires on every input");
    }

    /// Phase 5: resolve every pending decision and commit the step —
    /// engine state, serving load, serving-cell trace and tallies.
    fn commit(&mut self) {
        let (ctx, arena, step) = (self.ctx, &*self.arena, self.step);
        for (j, &i) in arena.active.iter().enumerate() {
            let (ue, report, point) = (&mut self.ues[i], &arena.reports[j], arena.points[j]);
            let decision = match arena.pending[j] {
                StepPending::Decided(decision) => decision,
                StepPending::AwaitHd(k) => {
                    let fuzzy = ue.policy.as_fuzzy().expect("pending FLC entries are fuzzy");
                    fuzzy.decide_with_hd(report, arena.batch_hd[k], arena.batch_prev[k])
                }
            };
            let policy = ue.policy.as_mut();
            let hd = ue.state.finish_step(ctx.cfg, report, decision, point, policy);
            let serving = ue.state.serving_index();
            self.part.cell_load.record_index(serving);
            if ctx.tracing {
                // Change points are recorded at the *global* lockstep
                // step: without churn it equals the per-UE step counter
                // (every UE starts at step 0), with churn it puts
                // arrivals and handovers of different UEs on one shared
                // timeline for the replay.
                let cell = cell_index_u32(serving);
                if ue.trace.last().map_or(true, |&(_, c)| c != cell) {
                    ue.trace.push((step, cell));
                }
                ue.trace_steps = step + 1;
            }
            if let Some(hd) = hd {
                ue.hd_sum += hd;
                ue.hd_count += 1;
            }
            ue.travelled_km = point.cum_km;
        }
    }
}

/// Phase 2's pruned draw order for one UE: `nearest` (the `k`
/// index-nearest cells of a cell-edge UE, empty for an interior one),
/// then the serving cell, then its candidate table, each cell once.
fn fill_subset(subset: &mut Vec<u32>, nearest: &[u32], serving: usize, cands: &[usize]) {
    subset.clear();
    subset.extend_from_slice(nearest);
    for cell in std::iter::once(serving).chain(cands.iter().copied()) {
        let cell = cell_index_u32(cell);
        if !subset.contains(&cell) {
            subset.push(cell);
        }
    }
}

/// What a UE's resample cursor yields at one lockstep step.
enum Advance {
    /// Churn: the UE's arrival step is still ahead.
    Parked,
    /// The UE steps at this measurement point.
    At(TracePoint),
    /// The walk (or the churn lifetime) is over.
    Done,
}

/// One live UE of a chunk: its id, engine state, resample cursor,
/// policy, running tallies, serving-cell trace and churn window. Built
/// [`LiveUe::fresh`] or [`LiveUe::thaw`]ed from a checkpoint; leaves the
/// chunk by [`LiveUe::freeze`] or [`LiveUe::retire`], and hands its
/// engine state back to the arena for reuse when the chunk ends.
struct LiveUe<'t> {
    id: u64,
    state: UeState,
    /// Resample cursor over the UE's trajectory (owned by the chunk).
    cursor: ResampleIter<'t>,
    policy: Box<dyn HandoverPolicy + Send>,
    hd_sum: f64,
    hd_count: u64,
    travelled_km: f64,
    /// Run-length-encoded serving-cell trace, `(step, cell)` change
    /// points, and the steps it covers (tracing passes only; otherwise
    /// empty and 0).
    trace: Vec<(u64, u32)>,
    trace_steps: u64,
    /// Churn presence window `(arrival, lifetime)`, a pure function of
    /// the seed and id; `None` without churn.
    window: Option<(u64, u64)>,
}

impl<'t> LiveUe<'t> {
    /// A UE at the start of its walk, recycling a spare state when the
    /// arena has one (same layout, every allocation reused).
    fn fresh(
        ctx: &PassCtx<'_>,
        spec: &dyn UeSpec,
        id: u64,
        trajectory: &'t Trajectory,
        spare: &mut Vec<UeState>,
    ) -> Self {
        let (start, seed) = (trajectory.start(), ue_seed(ctx.params.base_seed, id));
        let state = match spare.pop() {
            Some(mut state) => {
                state.reset(ctx.cfg, start, seed);
                state
            }
            None => UeState::new(ctx.cfg, start, seed),
        };
        LiveUe::new(ctx, id, state, trajectory, spec.policy(id))
    }

    /// A UE restored from its checkpoint. It has already consumed as
    /// many measurement points as it took steps (without churn, the
    /// snapshot's step; with churn, fewer for a late arrival), so the
    /// regenerated cursor skips them; `nth` skips whole segments at a
    /// time.
    fn thaw(
        ctx: &PassCtx<'_>,
        spec: &dyn UeSpec,
        cp: &UeCheckpoint,
        trajectory: &'t Trajectory,
    ) -> Self {
        let mut policy = spec.policy(cp.ue_id);
        policy.restore_policy_checkpoint(&cp.policy);
        let state = UeState::from_snapshot(ctx.cfg, &cp.engine);
        let mut ue = LiveUe::new(ctx, cp.ue_id, state, trajectory, policy);
        if let Some(last) = cp.engine.steps.checked_sub(1) {
            ue.cursor.nth(usize::try_from(last).unwrap_or(usize::MAX));
        }
        (ue.hd_sum, ue.hd_count, ue.travelled_km) = (cp.hd_sum, cp.hd_count, cp.travelled_km);
        if ctx.tracing {
            (ue.trace, ue.trace_steps) = (cp.trace_changes.clone(), cp.trace_steps);
        }
        ue
    }

    fn new(
        ctx: &PassCtx<'_>,
        id: u64,
        state: UeState,
        trajectory: &'t Trajectory,
        mut policy: Box<dyn HandoverPolicy + Send>,
    ) -> Self {
        if let Some(field) = ctx.params.load_field {
            policy.set_load_field(field);
        }
        LiveUe {
            id,
            state,
            cursor: trajectory.resample_iter(ctx.cfg.sample_spacing_km),
            policy,
            hd_sum: 0.0,
            hd_count: 0,
            travelled_km: 0.0,
            trace: Vec::new(),
            trace_steps: 0,
            window: ctx.churn.map(|churn| churn.window(ctx.params.base_seed, id)),
        }
    }

    /// Phase 1 for this UE: one whose churn arrival is ahead stays
    /// parked; one past its churn lifetime departs exactly like one whose
    /// trajectory ended.
    fn advance(&mut self, step: u64) -> Advance {
        if let Some((arrival, lifetime)) = self.window {
            if step < arrival {
                return Advance::Parked;
            }
            if self.state.step_count() as u64 >= lifetime {
                return Advance::Done;
            }
        }
        self.cursor.next().map_or(Advance::Done, Advance::At)
    }

    /// Freeze the UE into its checkpoint (engine + policy + tallies +
    /// trace).
    fn freeze(&mut self) -> UeCheckpoint {
        UeCheckpoint {
            ue_id: self.id,
            engine: self.state.snapshot(),
            policy: self.policy.policy_checkpoint(),
            hd_sum: self.hd_sum,
            hd_count: self.hd_count,
            travelled_km: self.travelled_km,
            trace_steps: self.trace_steps,
            trace_changes: std::mem::take(&mut self.trace),
        }
    }

    /// Reduce a finished UE to its outcome, plus its serving-cell trace
    /// on a tracing pass.
    fn retire(&mut self, cfg: &SimConfig, tracing: bool) -> (UeOutcome, Option<UeTrace>) {
        let log = self.state.log();
        let outcome = UeOutcome {
            ue_id: self.id,
            steps: self.state.step_count() as u64,
            handovers: log.handover_count() as u64,
            ping_pongs: log.ping_pong_report(cfg.pingpong_window_steps).ping_pongs as u64,
            outage_steps: log.outage_step_count() as u64,
            hd_sum: self.hd_sum,
            hd_count: self.hd_count,
            travelled_km: self.travelled_km,
            final_serving: self.state.serving_cell(cfg),
        };
        let changes = std::mem::take(&mut self.trace);
        (outcome, tracing.then_some(UeTrace { ue_id: self.id, steps: self.trace_steps, changes }))
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
/// left for [`FleetSimulation::finish`].
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

    #[test]
    fn map_round_robin_returns_every_index_in_order() {
        for len in [0, 1, 2, 5, 17] {
            for workers in [0, 1, 2, 3, 64] {
                let want: Vec<usize> = (0..len).map(|k| 3 * k + 1).collect();
                let got = map_round_robin(len, workers, |k| 3 * k + 1);
                assert_eq!(got, want, "len={len} workers={workers}");
            }
        }
    }

    /// Shard 0 runs on the caller, the others on distinct spawned
    /// threads, and a spawned shard's panic reaches the caller with its
    /// own message.
    #[test]
    fn run_shards_keeps_shard_zero_on_the_caller_and_reraises_panics() {
        let caller = std::thread::current().id();
        let shards = run_shards(4, |w| (w, std::thread::current().id()));
        let order: Vec<usize> = shards.iter().map(|&(w, _)| w).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        assert_eq!(shards[0].1, caller);
        let others: std::collections::HashSet<_> = shards[1..].iter().map(|&(_, t)| t).collect();
        assert_eq!(others.len(), 3);
        assert!(!others.contains(&caller));

        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let died = std::panic::catch_unwind(|| {
            run_shards(3, |w| if w == 2 { panic!("shard {w} failed on purpose") } else { w })
        });
        std::panic::set_hook(prev_hook);
        let payload = died.expect_err("the shard's panic reaches the caller");
        assert_eq!(panic_message(payload.as_ref()), "shard 2 failed on purpose");
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

    #[test]
    fn population_validation_refuses_what_the_workers_would_panic_on() {
        let walk = RandomWalk::paper_default(4);
        let gm = GaussMarkov::vehicular(4);
        let grid = ManhattanGrid::downtown(4);
        let waypoint = RandomWaypoint::centered(2.0, 4);
        let nan = Vec2::new(f64::NAN, 0.0);
        let bad_mobility = [
            FleetMobility::RandomWalk(RandomWalk { n_walks: 0, ..walk }),
            FleetMobility::RandomWalk(RandomWalk { step_mean_km: 0.0, ..walk }),
            FleetMobility::RandomWalk(RandomWalk { step_std_km: -1.0, ..walk }),
            FleetMobility::RandomWalk(walk.with_start(nan)),
            FleetMobility::GaussMarkov(GaussMarkov { n_steps: 0, ..gm }),
            FleetMobility::GaussMarkov(GaussMarkov { alpha: 1.5, ..gm }),
            FleetMobility::GaussMarkov(GaussMarkov { mean_step_km: -0.6, ..gm }),
            FleetMobility::Manhattan(ManhattanGrid { n_blocks: 0, ..grid }),
            FleetMobility::Manhattan(ManhattanGrid { block_km: 0.0, ..grid }),
            FleetMobility::Manhattan(ManhattanGrid { turn_prob: f64::NAN, ..grid }),
            FleetMobility::Waypoint(RandomWaypoint { n_legs: 0, ..waypoint }),
            FleetMobility::Waypoint(RandomWaypoint { max: waypoint.min, ..waypoint }),
            FleetMobility::Waypoint(RandomWaypoint { start: nan, ..waypoint }),
            // Finite but huge: the summed waypoints overflow to infinity.
            FleetMobility::RandomWalk(RandomWalk { step_mean_km: 1e308, step_std_km: 0.0, ..walk }),
            FleetMobility::GaussMarkov(GaussMarkov { mean_step_km: 1e308, ..gm }),
            FleetMobility::Manhattan(ManhattanGrid { block_km: 1e308, turn_prob: 0.0, ..grid }),
        ];
        let bad_policy = [
            PolicyKind::Hysteresis { margin_db: -1.0 },
            PolicyKind::HysteresisThreshold { threshold_dbm: -90.0, margin_db: -0.5 },
            PolicyKind::LoadHysteresis { margin_db: -1.0, load_bias_db: 1.0 },
            PolicyKind::LoadHysteresis { margin_db: 1.0, load_bias_db: -1.0 },
        ];
        let fuzzy = fuzzy_walk_spec(3);
        let cases = (bad_mobility.iter().map(|&mobility| HomogeneousFleet { mobility, ..fuzzy }))
            .chain(bad_policy.iter().map(|&policy| HomogeneousFleet { policy, ..fuzzy }))
            .chain([HomogeneousFleet { cell_radius_km: 0.0, ..fuzzy }]);
        for spec in cases {
            assert!(spec.validated().is_err(), "{spec:?} passed validation");
            let unchecked = std::panic::catch_unwind(|| {
                spec.trajectory(0);
                spec.policy(0);
            });
            assert!(unchecked.is_err(), "{spec:?} does not panic unchecked");
        }

        for n in [1, 6, 10_000] {
            for mobility in FleetMobility::standard_four(n) {
                assert_eq!(mobility.validated(), Ok(()), "{mobility:?}");
            }
        }
        for policy in [
            PolicyKind::Fuzzy,
            PolicyKind::FuzzyLut,
            PolicyKind::Hysteresis { margin_db: 0.0 },
            PolicyKind::Threshold { threshold_dbm: -100.0 },
            PolicyKind::HysteresisThreshold { threshold_dbm: -100.0, margin_db: 3.0 },
            PolicyKind::LoadHysteresis { margin_db: 0.0, load_bias_db: 0.0 },
        ] {
            assert_eq!(HomogeneousFleet { policy, ..fuzzy }.validated(), Ok(()), "{policy:?}");
        }
        let policy = PolicyKind::Threshold { threshold_dbm: f64::NAN };
        let err = HomogeneousFleet { policy, ..fuzzy }.validated().unwrap_err();
        assert!(matches!(err, ConfigError::NotFinite { field: "handover threshold", .. }), "{err}");
    }

    #[test]
    fn extent_bounds_cover_the_generated_walks_and_refuse_past_the_ceiling() {
        let models = [
            FleetMobility::RandomWalk(RandomWalk {
                step_std_km: 0.5,
                ..RandomWalk::paper_default(40)
            }),
            FleetMobility::GaussMarkov(GaussMarkov { alpha: 0.99, ..GaussMarkov::vehicular(40) }),
            FleetMobility::GaussMarkov(GaussMarkov { alpha: 1.0, ..GaussMarkov::vehicular(40) }),
            FleetMobility::Manhattan(ManhattanGrid::downtown(40)),
            FleetMobility::Waypoint(RandomWaypoint::centered(3.0, 40)),
        ];
        for mobility in models {
            let bound = mobility.extent_bound_km();
            assert!(bound.is_finite() && bound > 0.0, "{mobility:?}: {bound}");
            for ue in 0..64 {
                let walk = mobility.generate(&mut StdRng::seed_from_u64(ue));
                let far = walk.waypoints().iter().map(|w| w.norm()).fold(0.0, f64::max);
                // A straight walk reaches the bound itself, up to rounding.
                let slack = bound * (1.0 + 1e-12);
                assert!(far <= slack, "{mobility:?}: waypoint {far} km past the bound {bound}");
            }
        }
        // The ceiling itself: a walk that could reach just past it is
        // refused with the exact bound, one just inside it passes.
        let walk = |step_mean_km| {
            FleetMobility::RandomWalk(RandomWalk {
                step_mean_km,
                step_std_km: 0.0,
                ..RandomWalk::paper_default(10)
            })
        };
        assert_eq!(walk(MAX_MOBILITY_EXTENT_KM / 10.0).validated(), Ok(()));
        let err = walk(MAX_MOBILITY_EXTENT_KM / 5.0).validated().unwrap_err();
        assert_eq!(
            err,
            ConfigError::OutOfRange {
                field: "mobility worst-case extent (km)",
                value: 2.0 * MAX_MOBILITY_EXTENT_KM,
                lo: 0.0,
                hi: MAX_MOBILITY_EXTENT_KM,
            }
        );
    }
}
