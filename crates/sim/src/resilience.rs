//! The fault-tolerance plane: typed configuration errors, a
//! deterministic fault-injection harness, and a supervised runner that
//! recovers from worker crashes, stalls and corrupted snapshots.
//!
//! The module turns the fleet engine from a batch job that panics on
//! the first fault into a component a long-running service can lean on:
//!
//! * [`ConfigError`] is the typed form of every configuration
//!   validation in the workspace — NaN sigmas, zero capacities and
//!   inverted windows surface as values instead of panics.
//!   [`validate_planes`] is the one check of a simulation plus its
//!   traffic and dynamics planes that every run entry shares.
//! * [`FaultPlan`] / [`FaultInjector`] script faults — a worker panic
//!   at a lockstep step, a forced allocation failure in the dense
//!   measure phase, a stalled worker, a flipped checkpoint byte — that fire
//!   **deterministically**: each fault triggers exactly once, at a
//!   step that does not depend on worker count, chunk size or thread
//!   scheduling, so chaos runs are exactly reproducible.
//! * [`FleetSimulation::run_supervised`] runs a fleet under a
//!   [`RetryPolicy`]: periodic checkpointing on a step cadence,
//!   panic/stall detection, restore-from-last-good-snapshot with
//!   bounded retries, deterministic *virtual-time* backoff, and
//!   graceful degradation (halving the worker count after repeated
//!   stalls — safe because fleet results are worker-count-invariant).
//!
//! The headline contract, pinned by `tests/resilience_props.rs`: for
//! any scripted [`FaultPlan`] of recoverable faults, the supervised
//! result is **bit-identical** to the fault-free
//! [`FleetSimulation::try_run_ids`] — every `f64` included. Recovery never
//! changes the answer, because every segment is replayed from a
//! checksummed snapshot whose resume path is itself bit-identical
//! (the PR 6 contract), and corrupted snapshots are always *detected*
//! (typed [`CheckpointError`](crate::checkpoint::CheckpointError)),
//! never silently resumed.

use crate::checkpoint::{unseal_payload, FleetCheckpoint};
use crate::dynamics::DynamicsConfig;
use crate::engine::SimConfig;
use crate::fleet::{FleetError, FleetResult, FleetSimulation, UeSpec};
use crate::traffic::TrafficConfig;
use radiolink::RssiSmoother;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Domain-separation constant for the fault-injection stream
/// (`b"faults!!"`), XORed into the base seed like
/// [`TRAFFIC_STREAM`](crate::traffic::TRAFFIC_STREAM) — chaos schedules
/// never correlate with measurement, trajectory, churn or service
/// draws.
pub const FAULT_STREAM: u64 = 0x6661_756C_7473_2121;

/// A typed configuration defect. Every `validated()` method in the
/// workspace returns one of these instead of panicking, and every run
/// entry reports it as [`FleetError::InvalidConfig`]. The `Display`
/// messages keep the phrases of the asserts they replaced.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field that must be finite is NaN or infinite.
    NotFinite {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field that must be strictly positive (and finite) is not.
    NonPositive {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field that must be non-negative (and finite) is not.
    Negative {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field outside its closed range.
    OutOfRange {
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// An integer field below its minimum.
    TooSmall {
        /// Human-readable field name (phrased to include the legacy
        /// assert message, e.g. "churn horizon").
        field: &'static str,
        /// Required minimum.
        minimum: u64,
        /// The offending value.
        got: u64,
    },
    /// A `[from, until)` window with `from >= until`.
    InvertedWindow {
        /// Human-readable window name.
        field: &'static str,
        /// Window start.
        from: u64,
        /// Window end (exclusive).
        until: u64,
    },
    /// Guard channels ≥ total channels: no room for new calls.
    GuardChannelsExhaustCapacity {
        /// Reserved guard channels.
        guard: u32,
        /// Total channels per cell.
        channels: u32,
    },
    /// A referenced cell is not in the layout.
    UnknownCell {
        /// What referenced the cell (e.g. "outage").
        what: &'static str,
        /// The missing cell.
        cell: cellgeom::Axial,
    },
    /// A traffic plane on [`FleetSimulation::run_streamed`], whose
    /// serving-cell traces would materialize per-UE state.
    StreamedTraffic,
    /// A layout that lists the same cell twice.
    DuplicateCell {
        /// The repeated cell.
        cell: cellgeom::Axial,
    },
    /// A smoothing template that already carries filter state (an EWMA
    /// value or window samples); every BS's filter must start empty.
    PrimedSmoother,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotFinite { field, value } => {
                write!(f, "{field} must be finite (got {value})")
            }
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be positive and finite (got {value})")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be non-negative and finite (got {value})")
            }
            ConfigError::OutOfRange { field, value, lo, hi } => {
                write!(f, "{field} must lie in [{lo}, {hi}] (got {value})")
            }
            ConfigError::TooSmall { field, minimum, got } => {
                write!(f, "{field} must be at least {minimum} (got {got})")
            }
            ConfigError::InvertedWindow { field, from, until } => {
                write!(f, "{field} window must be non-empty (from {from}, until {until})")
            }
            ConfigError::GuardChannelsExhaustCapacity { guard, channels } => {
                write!(
                    f,
                    "guard channels must leave room for new calls \
                     ({guard} guard of {channels} total)"
                )
            }
            ConfigError::UnknownCell { what, cell } => {
                write!(f, "{what} cell {cell:?} is not in the layout")
            }
            ConfigError::StreamedTraffic => write!(
                f,
                "the streaming path has no traffic plane (serving-cell traces would \
                 materialize per-UE state); use try_run_ids for traffic studies"
            ),
            ConfigError::DuplicateCell { cell } => {
                write!(f, "layout cell {cell:?} is listed twice")
            }
            ConfigError::PrimedSmoother => write!(f, "smoothing template must start empty"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validate a simulation and the planes attached to it: the
/// [`SimConfig`] (NaN/negative sigmas, non-positive spacing), its layout
/// (at least two distinct cells, a finite positive cell radius) and
/// smoothing template (an EWMA alpha in (0, 1], a window of at least one
/// sample, no filter state), the traffic plane (zero capacities,
/// exhausted guard channels), the dynamics plane (inverted windows,
/// out-of-range shares, invalid tides even when flat) and every outage
/// cell's membership in the layout.
/// [`FleetSimulation`]'s run entries, [`ScenarioMatrix::try_run`] and
/// the twin service's session configs all run this one check before any
/// work starts.
///
/// [`ScenarioMatrix::try_run`]: crate::matrix::ScenarioMatrix::try_run
pub fn validate_planes(
    sim: &SimConfig,
    traffic: Option<&TrafficConfig>,
    dynamics: Option<&DynamicsConfig>,
) -> Result<(), ConfigError> {
    sim.validated()?;
    validate_layout(&sim.layout)?;
    validate_smoothing(&sim.smoothing)?;
    if let Some(traffic) = traffic {
        traffic.validated()?;
    }
    if let Some(dynamics) = dynamics {
        dynamics.validated()?;
        dynamics.outage_indices(sim.layout.cells())?;
    }
    Ok(())
}

/// A layout the engine can measure on: at least two cells, so every
/// cell has a handover candidate, none listed twice, and a finite,
/// positive cell radius. `CellLayout::from_cells` guarantees the cells,
/// but a deserialized layout (a config file, a wire peer) bypasses it.
fn validate_layout(layout: &cellgeom::CellLayout) -> Result<(), ConfigError> {
    let cells = layout.cells();
    require_at_least("layout cell count", 2, cells.len() as u64)?;
    // Sorting, not hashing: a hash set seeds its keys from the OS on a
    // fresh thread, and every session spawn runs this check.
    let mut sorted = cells.to_vec();
    sorted.sort_unstable_by_key(|cell| (cell.q, cell.r));
    if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(ConfigError::DuplicateCell { cell: pair[0] });
    }
    require_positive("cell radius", layout.cell_radius_km())
}

/// A smoothing template every BS can start from: an EWMA `alpha` in
/// (0, 1] (a huge one overflows the filter to infinity), a window of at
/// least one sample (a zero window never drops one), and no filter
/// state.
fn validate_smoothing(smoothing: &RssiSmoother) -> Result<(), ConfigError> {
    let primed = match smoothing {
        RssiSmoother::None => false,
        RssiSmoother::Ewma { alpha, state } => {
            require_positive("EWMA alpha", *alpha)?;
            require_in_range("EWMA alpha", *alpha, 0.0, 1.0)?;
            state.is_some()
        }
        RssiSmoother::Window { capacity, buf } => {
            require_at_least("smoothing window capacity", 1, *capacity as u64)?;
            !buf.is_empty()
        }
    };
    if primed {
        Err(ConfigError::PrimedSmoother)
    } else {
        Ok(())
    }
}

/// Shorthand validators shared by the `validated()` implementations.
pub(crate) fn require_finite(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ConfigError::NotFinite { field, value })
    }
}

/// `value` must be finite and strictly positive.
pub(crate) fn require_positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositive { field, value })
    }
}

/// `value` must be finite and non-negative.
pub(crate) fn require_non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(ConfigError::Negative { field, value })
    }
}

/// `got` must be at least `minimum`.
pub(crate) fn require_at_least(
    field: &'static str,
    minimum: u64,
    got: u64,
) -> Result<(), ConfigError> {
    if got >= minimum {
        Ok(())
    } else {
        Err(ConfigError::TooSmall { field, minimum, got })
    }
}

/// `value` must lie in the closed range `[lo, hi]` (NaN never does).
pub(crate) fn require_in_range(
    field: &'static str,
    value: f64,
    lo: f64,
    hi: f64,
) -> Result<(), ConfigError> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError::OutOfRange { field, value, lo, hi })
    }
}

/// One scripted fault. Faults are *one-shot*: each fires exactly once
/// per [`FaultInjector`], at a deterministic point of the run, and the
/// retried segment then completes cleanly — which is what makes every
/// fault here *recoverable* and the supervised result bit-identical to
/// the clean run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Panic the first worker that steps lockstep step `at_step`
    /// (whole-worker-shard loss; the pass surfaces
    /// [`FleetError::WorkerPanic`]).
    WorkerPanic {
        /// Lockstep step at which the panic fires.
        at_step: u64,
    },
    /// Panic at the start of the dense measure phase of lockstep step
    /// `at_step`, simulating an allocation failure in a worker's
    /// measurement buffers. Inert under the pruned candidate modes
    /// (their measure phase has no such hook).
    AllocFailure {
        /// Lockstep step at which the forced allocation failure fires.
        at_step: u64,
    },
    /// Charge `delay_steps` of *virtual* wall-clock delay to the worker
    /// that steps `at_step` first. The supervisor's watchdog compares
    /// the accumulated delay of each segment against
    /// [`RetryPolicy::stall_deadline_steps`] and treats an over-deadline
    /// segment as failed ([`FleetError::WorkerStalled`]).
    StallWorker {
        /// Lockstep step at which the stall fires.
        at_step: u64,
        /// Virtual delay charged, in steps.
        delay_steps: u64,
    },
    /// Flip one byte of the `at_snapshot`-th sealed checkpoint (0-based,
    /// counting every snapshot the supervisor seals). The checksummed
    /// header guarantees the corruption is *detected* — the snapshot is
    /// quarantined, never resumed.
    CorruptCheckpoint {
        /// Index of the sealed snapshot to corrupt.
        at_snapshot: u64,
        /// Byte offset to flip (taken modulo the sealed length).
        byte_offset: u64,
    },
}

/// A deterministic fault schedule: either scripted explicitly or drawn
/// from the domain-separated [`FAULT_STREAM`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scripted faults, in script order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An explicit script.
    pub fn scripted(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// An empty plan (no faults — the supervisor runs clean).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Draw `n` recoverable faults (panics, stalls, allocation
    /// failures) over the first `horizon_steps` lockstep steps from the
    /// [`FAULT_STREAM`] — the same `seed` always yields the same chaos
    /// schedule, so a failing chaos run reproduces exactly.
    pub fn chaos(seed: u64, horizon_steps: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ FAULT_STREAM);
        let horizon = horizon_steps.max(1);
        let faults = (0..n)
            .map(|_| {
                let at_step = rng.next_u64() % horizon;
                match rng.next_u64() % 3 {
                    0 => Fault::WorkerPanic { at_step },
                    1 => Fault::AllocFailure { at_step },
                    _ => Fault::StallWorker {
                        at_step,
                        delay_steps: 1 + rng.next_u64() % horizon,
                    },
                }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Arm the plan: build the runtime injector the fleet engine hooks
    /// consult. One injector serves **one** run — the one-shot fired
    /// flags are not reset between runs.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

/// Armed runtime form of a [`FaultPlan`]: lock-free one-shot triggers
/// the fleet engine's hot loop consults (two relaxed atomic loads per
/// scheduled fault per step — zero cost when no injector is attached).
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// The scripted faults in script order, each with its fired flag.
    faults: Vec<(Fault, AtomicBool)>,
    /// Virtual delay accumulated since the last watchdog read.
    stall_steps: AtomicU64,
}

impl FaultInjector {
    fn new(plan: &FaultPlan) -> Self {
        let faults = plan.faults.iter().map(|&fault| (fault, AtomicBool::new(false))).collect();
        FaultInjector { faults, stall_steps: AtomicU64::new(0) }
    }

    /// The not-yet-fired faults `pick` selects, in script order, each
    /// marked fired as the iterator reaches it: the compare-exchange
    /// makes every fault one-shot even when several workers reach its
    /// trigger concurrently, and a fault the iterator is not advanced to
    /// stays pending.
    fn fire<'a, T>(
        &'a self,
        pick: impl Fn(Fault) -> Option<T> + 'a,
    ) -> impl Iterator<Item = T> + 'a {
        self.faults.iter().filter_map(move |(fault, fired)| {
            let hit = pick(*fault)?;
            let claimed = fired.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed);
            claimed.is_ok().then_some(hit)
        })
    }

    /// Step hook, called once per (worker, chunk, lockstep step). Fires
    /// every pending stall scheduled at `step` (accumulating virtual
    /// delay), then the first pending worker panic scheduled there.
    pub(crate) fn check_step(&self, step: u64) {
        let stalls = self.fire(|fault| match fault {
            Fault::StallWorker { at_step, delay_steps } if at_step == step => Some(delay_steps),
            _ => None,
        });
        for delay in stalls {
            self.stall_steps.fetch_add(delay, Ordering::Relaxed);
        }
        let mut panics =
            self.fire(|fault| (fault == Fault::WorkerPanic { at_step: step }).then_some(()));
        if panics.next().is_some() {
            panic!("injected fault: worker panic at step {step}");
        }
    }

    /// Allocation-failure hook, called at the start of every dense
    /// measure phase: fires the first pending failure scheduled at
    /// `step`.
    pub(crate) fn check_alloc_failure(&self, step: u64) {
        let mut failures =
            self.fire(|fault| (fault == Fault::AllocFailure { at_step: step }).then_some(()));
        if failures.next().is_some() {
            panic!("injected fault: arena allocation failure at step {step}");
        }
    }

    /// Apply every scheduled corruption to the `snapshot_index`-th sealed
    /// snapshot bytes. Returns `true` if a byte was flipped.
    pub fn corrupt_snapshot(&self, snapshot_index: u64, bytes: &mut [u8]) -> bool {
        if bytes.is_empty() {
            return false;
        }
        let offsets = self.fire(|fault| match fault {
            Fault::CorruptCheckpoint { at_snapshot, byte_offset }
                if at_snapshot == snapshot_index =>
            {
                Some(byte_offset)
            }
            _ => None,
        });
        let (len, mut hit) = (bytes.len() as u64, false);
        for offset in offsets {
            bytes[(offset % len) as usize] ^= 0xFF;
            hit = true;
        }
        hit
    }

    /// Read and reset the virtual stall delay accumulated since the
    /// last call (the supervisor's per-segment watchdog read).
    pub fn take_stall_steps(&self) -> u64 {
        self.stall_steps.swap(0, Ordering::Relaxed)
    }

    /// Whether every scripted fault has fired.
    pub fn exhausted(&self) -> bool {
        self.faults.iter().all(|(_, fired)| fired.load(Ordering::Relaxed))
    }
}

/// Supervision parameters for [`FleetSimulation::run_supervised`]. All
/// time quantities are *virtual* (lockstep steps), so supervised runs
/// are deterministic — no wall clocks anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Snapshot every this-many lockstep steps.
    pub checkpoint_cadence: u64,
    /// Give up (with [`FleetError::RetriesExhausted`]) after this many
    /// failed segment attempts in one [`Supervisor::advance_to`] or
    /// [`Supervisor::finish`] call (the whole run under
    /// [`FleetSimulation::run_supervised`]).
    pub max_retries: u32,
    /// A segment whose accumulated virtual stall delay exceeds this
    /// deadline counts as failed ([`FleetError::WorkerStalled`]).
    pub stall_deadline_steps: u64,
    /// Virtual backoff charged for the first consecutive failure.
    pub backoff_initial_steps: u64,
    /// Backoff multiplier per additional consecutive failure.
    pub backoff_multiplier: u64,
    /// Halve the worker count after this many over-deadline stalls
    /// (graceful degradation; results are worker-count-invariant, so
    /// degrading never changes the answer).
    pub degrade_after_stalls: u32,
    /// Keep at most this many recent good sealed snapshots during a
    /// supervisor call.
    pub keep_snapshots: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            checkpoint_cadence: 16,
            max_retries: 8,
            stall_deadline_steps: 64,
            backoff_initial_steps: 4,
            backoff_multiplier: 2,
            degrade_after_stalls: 2,
            keep_snapshots: 2,
        }
    }
}

impl RetryPolicy {
    /// Typed validation of the supervision parameters.
    pub fn validated(&self) -> Result<(), ConfigError> {
        require_at_least("checkpoint cadence", 1, self.checkpoint_cadence)?;
        require_at_least("stall deadline", 1, self.stall_deadline_steps)?;
        require_at_least("backoff multiplier", 1, self.backoff_multiplier)?;
        require_at_least("kept snapshots", 1, self.keep_snapshots as u64)
    }
}

/// What the supervisor did to finish a run — every counter is
/// deterministic for a given engine + [`FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// Segments completed (including the final assembly).
    pub segments: u64,
    /// Snapshots sealed (including later-corrupted ones).
    pub snapshots_taken: u64,
    /// Failed segment attempts (each consumed one retry).
    pub retries: u32,
    /// Failures classified as worker panics.
    pub worker_panics: u32,
    /// Failures classified as over-deadline stalls.
    pub stalls: u32,
    /// Corrupted snapshots detected (at seal or restore time) and
    /// quarantined.
    pub corrupt_snapshots_detected: u32,
    /// Retried attempts that resumed from a snapshot, a resumed run's
    /// starting one included (vs. restarting from scratch).
    pub restores: u32,
    /// Times the worker count was halved.
    pub degradations: u32,
    /// Total deterministic virtual backoff charged, in steps.
    pub virtual_backoff_steps: u64,
    /// Worker count at the end of the run (after degradations).
    pub final_workers: usize,
}

/// A supervised run's result: the (bit-identical-to-clean) fleet
/// result plus the supervision audit trail.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The fleet result — bit-identical to the fault-free
    /// [`FleetSimulation::try_run_ids`].
    pub result: FleetResult,
    /// What the supervisor did to get there.
    pub report: SupervisorReport,
}

/// The reusable single-tenant supervisor behind
/// [`FleetSimulation::run_supervised`], factored out so a long-lived
/// session can drive a fleet *incrementally*: advance to an arbitrary
/// step bound, inspect the current snapshot, then advance again — with
/// the same cadence checkpointing, sealed write-then-verify snapshots,
/// watchdog, bounded retries, virtual backoff and worker degradation
/// on every segment.
///
/// Write-verify checks a fresh seal's container header and XXH64
/// payload checksum ([`unseal_payload`]) without decoding it. The full
/// decode and validation ([`FleetCheckpoint::try_unseal`]) run whenever
/// a seal is read back: a restore from this call's seals after a
/// failure, and every [`Supervisor::resume`] and session hydrate, which
/// take a decoded snapshot.
///
/// It owns a run's snapshot, audit trail and worker count, and moves
/// the snapshot into each [`FleetSimulation::advance`]; a failed
/// attempt hands it back as its retry's restore point, unless that
/// snapshot's own seal failed write-verify: then the newest sealed
/// snapshot of the call that still verifies replaces it. Each
/// [`Supervisor::advance_to`] or [`Supervisor::finish`] call has its
/// own retry budget and drops its seals when it returns, so an idle
/// supervisor holds one snapshot and no seal.
///
/// Determinism contract (inherited from the PR 6 resume chain and
/// pinned by `tests/resilience_props.rs` / `tests/server_session.rs`):
/// for any sequence of `advance_to` bounds and any recoverable fault
/// schedule, [`Supervisor::finish`] returns a result bit-identical to
/// the fault-free batch [`FleetSimulation::try_run_ids`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    engine: FleetSimulation,
    policy: RetryPolicy,
    report: SupervisorReport,
    /// This call's sealed good snapshots, oldest first.
    history: VecDeque<Vec<u8>>,
    /// The newest snapshot this supervisor started from, produced or
    /// restored.
    current: Option<FleetCheckpoint>,
    /// `current`'s seal failed write-verify: a failure restores from
    /// `history` instead, if anything there verifies.
    current_unverified: bool,
    /// `report.retries` when the current call began.
    retries_before: u32,
    consecutive_failures: u32,
    stall_strikes: u32,
}

impl Supervisor {
    /// A supervisor for a fresh (not-yet-started) run. Validates the
    /// retry policy and the engine's configuration planes up front.
    pub fn new(engine: FleetSimulation, policy: RetryPolicy) -> Result<Self, FleetError> {
        Supervisor::resume(engine, policy, None, SupervisorReport::default())
    }

    /// Continue a run from the snapshot `from` (`None`: not started) and
    /// the audit trail `report`, validating the policy, the planes and
    /// the snapshot ([`FleetError::CorruptCheckpoint`]). Compiles
    /// nothing: each segment compiles its own measurement plane. A
    /// failure before any newer snapshot exists restores `from`, never
    /// step 0.
    pub fn resume(
        engine: FleetSimulation,
        policy: RetryPolicy,
        from: Option<FleetCheckpoint>,
        report: SupervisorReport,
    ) -> Result<Self, FleetError> {
        policy.validated()?;
        validate_planes(engine.config(), engine.traffic(), engine.dynamics())?;
        if let Some(cp) = &from {
            engine.check_checkpoint(cp).map_err(FleetError::CorruptCheckpoint)?;
        }
        Ok(Supervisor {
            engine,
            policy,
            report,
            history: VecDeque::new(),
            current: from,
            current_unverified: false,
            retries_before: 0,
            consecutive_failures: 0,
            stall_strikes: 0,
        })
    }

    /// The current snapshot (`None` until the first segment completes
    /// on a fresh run).
    pub fn checkpoint(&self) -> Option<&FleetCheckpoint> {
        self.current.as_ref()
    }

    /// The supervision audit trail so far.
    pub fn report(&self) -> &SupervisorReport {
        &self.report
    }

    /// Re-shard: set the worker count of later segments (clamped to at
    /// least 1). Results are worker-count-invariant.
    pub fn set_workers(&mut self, workers: usize) {
        self.engine.set_workers(workers);
    }

    /// Virtual watchdog, read after every attempt: a segment that
    /// accumulated more stall delay than the deadline is treated as
    /// failed even if it technically produced output — a real
    /// supervisor would have killed it mid-flight.
    fn watchdog(&self) -> Result<(), FleetError> {
        let stalled = self.engine.fault_injector().map_or(0, |f| f.take_stall_steps());
        if stalled > self.policy.stall_deadline_steps {
            Err(FleetError::WorkerStalled {
                stalled_steps: stalled,
                deadline_steps: self.policy.stall_deadline_steps,
            })
        } else {
            Ok(())
        }
    }

    /// Accept a completed segment's snapshot: seal, expose to scripted
    /// bit-rot, then write-verify — a corrupted seal is detected here
    /// and quarantined (the older good snapshot stays the restore
    /// point).
    ///
    /// Write-verify checks the container header and the XXH64 payload
    /// checksum ([`unseal_payload`]) and decodes nothing. The bytes were
    /// just sealed from a valid snapshot, so only bit-rot can fail them,
    /// and bit-rot fails the checksum: [`FleetCheckpoint::try_unseal`]
    /// runs the same check before its decode, so the full decode would
    /// catch nothing more (short of a 2⁻⁶⁴ hash collision). The full
    /// decode and validation run where a seal is read back: a restore
    /// from `history` ([`Supervisor::handle_failure`]), and every
    /// resume and hydrate, which start from a decoded snapshot.
    fn accept_snapshot(&mut self, cp: FleetCheckpoint) {
        self.report.segments += 1;
        self.consecutive_failures = 0;
        let mut sealed = cp.seal();
        let snapshot_index = self.report.snapshots_taken;
        self.report.snapshots_taken += 1;
        if let Some(injector) = self.engine.fault_injector() {
            injector.corrupt_snapshot(snapshot_index, &mut sealed);
        }
        self.current_unverified = unseal_payload(&sealed).is_err();
        if self.current_unverified {
            self.report.corrupt_snapshots_detected += 1;
        } else {
            self.history.push_back(sealed);
            while self.history.len() > self.policy.keep_snapshots {
                self.history.pop_front();
            }
        }
        self.current = Some(cp);
    }

    /// Account a failed segment attempt: if the current snapshot's seal
    /// failed, restore the newest sealed one that still verifies
    /// (quarantining any that rotted in memory), then charge the
    /// call's retry budget, deterministic virtual backoff and worker
    /// degradation after repeated stalls. Non-recoverable errors pass
    /// straight through after the restore.
    fn handle_failure(&mut self, err: FleetError) -> Result<(), FleetError> {
        while self.current_unverified {
            let Some(sealed) = self.history.back() else {
                break;
            };
            match FleetCheckpoint::try_unseal(sealed) {
                Ok(cp) => {
                    self.current = Some(cp);
                    self.current_unverified = false;
                }
                Err(_) => {
                    self.report.corrupt_snapshots_detected += 1;
                    self.history.pop_back();
                }
            }
        }
        if !err.is_recoverable() {
            return Err(err);
        }
        self.report.retries += 1;
        match &err {
            FleetError::WorkerPanic(_) => self.report.worker_panics += 1,
            FleetError::WorkerStalled { .. } => {
                self.report.stalls += 1;
                self.stall_strikes += 1;
            }
            _ => {}
        }
        let attempts = self.report.retries - self.retries_before;
        if attempts > self.policy.max_retries {
            return Err(FleetError::RetriesExhausted { attempts, last: Box::new(err) });
        }
        // Deterministic virtual-time backoff: no wall clock, just an
        // exponentially growing charge in the report.
        self.consecutive_failures += 1;
        self.report.virtual_backoff_steps += self.policy.backoff_initial_steps.saturating_mul(
            self.policy
                .backoff_multiplier
                .saturating_pow(self.consecutive_failures.saturating_sub(1)),
        );
        // Graceful degradation: repeated stalls halve the worker count
        // (results are worker-invariant).
        if self.stall_strikes >= self.policy.degrade_after_stalls && self.engine.workers() > 1 {
            self.engine.set_workers(self.engine.workers() / 2);
            self.report.degradations += 1;
            self.stall_strikes = 0;
        }
        self.report.restores += u32::from(self.current.is_some());
        Ok(())
    }

    /// Run `call` with a fresh retry budget, and drop its seals after:
    /// between calls the current snapshot is the only restore point.
    fn call<T>(
        &mut self,
        call: impl FnOnce(&mut Self) -> Result<T, FleetError>,
    ) -> Result<T, FleetError> {
        self.retries_before = self.report.retries;
        let out = call(self);
        self.history.clear();
        out
    }

    /// Cadence-sized supervised segments until the current snapshot
    /// reaches `target_step` or every UE has finished.
    fn segments(
        &mut self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        target_step: u64,
    ) -> Result<(), FleetError> {
        loop {
            let bound = match self.checkpoint() {
                Some(cp) if cp.live.is_empty() || cp.step >= target_step => return Ok(()),
                Some(cp) => cp.step.saturating_add(self.policy.checkpoint_cadence),
                None => self.policy.checkpoint_cadence,
            }
            .min(target_step);
            let from = self.current.take();
            let watchdog = || self.watchdog();
            match self.engine.advance_or_return(spec, from, ids, base_seed, bound, watchdog) {
                Ok(cp) => self.accept_snapshot(cp),
                Err(failed) => {
                    let (err, from) = *failed;
                    self.current = from;
                    self.handle_failure(err)?;
                }
            }
        }
    }

    /// Advance the run in cadence-sized supervised segments until the
    /// current snapshot reaches `target_step` or every UE has finished,
    /// whichever comes first. Returns the snapshot at the stopping
    /// point. On a fresh supervisor `ids`/`base_seed` start the run;
    /// on later calls (and after [`Supervisor::resume`]) the population
    /// and seed come from the snapshot itself. On an error the current
    /// snapshot is the failed attempt's restore point.
    pub fn advance_to(
        &mut self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        target_step: u64,
    ) -> Result<&FleetCheckpoint, FleetError> {
        self.call(|sup| sup.segments(spec, ids, base_seed, target_step))?;
        // invariant: `segments` only returns `Ok` with a snapshot in place.
        Ok(self.checkpoint().expect("advance_to leaves a checkpoint"))
    }

    /// Drive the remaining steps (supervised, cadence-segmented) until
    /// every UE has finished, then assemble the final [`FleetResult`]
    /// from the all-finished snapshot with the assembly every collected
    /// run shares — bit-identical to the uninterrupted batch run. The
    /// assembly (traffic replay, and the load-feedback rerun if
    /// configured) retries under the same policy as any other segment.
    pub fn finish(
        &mut self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
    ) -> Result<FleetResult, FleetError> {
        self.call(|sup| loop {
            sup.segments(spec, ids, base_seed, u64::MAX)?;
            let cp = sup.checkpoint().expect("segments leave a checkpoint").clone();
            let attempt = sup.engine.finish(spec, cp).map(Box::new);
            match sup.watchdog().and(attempt) {
                Ok(result) => {
                    sup.report.segments += 1;
                    sup.report.final_workers = sup.engine.workers();
                    return Ok(*result);
                }
                Err(err) => sup.handle_failure(err)?,
            }
        })
    }
}

impl FleetSimulation {
    /// Run `ids` to completion under supervision: checkpoint every
    /// [`RetryPolicy::checkpoint_cadence`] steps, detect worker panics
    /// (via the fallible pass plumbing) and stalls (via the virtual
    /// watchdog), recover from the most recent *verified* snapshot with
    /// bounded retries and deterministic virtual-time backoff, and
    /// degrade the worker count after repeated stalls.
    ///
    /// The result is **bit-identical** to the fault-free
    /// [`FleetSimulation::try_run_ids`] for any recoverable fault schedule,
    /// any cadence and any worker/chunk shape — recovery replays from
    /// snapshots whose resume path is itself bit-identical, and the
    /// checksummed seal format guarantees corrupted snapshots are
    /// detected and quarantined, never resumed.
    ///
    /// Faults come from the injector attached with
    /// [`FleetSimulation::with_fault_injection`] (none attached ⇒ a
    /// clean run that pays only the checkpointing overhead).
    pub fn run_supervised(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        policy: &RetryPolicy,
    ) -> Result<SupervisedRun, FleetError> {
        let mut supervisor = Supervisor::new(self.clone(), *policy)?;
        let result = supervisor.finish(spec, ids, base_seed)?;
        Ok(SupervisedRun { result, report: supervisor.report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::chaos(7, 100, 5);
        let b = FaultPlan::chaos(7, 100, 5);
        let c = FaultPlan::chaos(8, 100, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.faults.len(), 5);
        for fault in &a.faults {
            match *fault {
                Fault::WorkerPanic { at_step } | Fault::AllocFailure { at_step } => {
                    assert!(at_step < 100);
                }
                Fault::StallWorker { at_step, delay_steps } => {
                    assert!(at_step < 100 && delay_steps >= 1);
                }
                Fault::CorruptCheckpoint { .. } => panic!("chaos never scripts corruption"),
            }
        }
    }

    #[test]
    fn injector_faults_fire_exactly_once() {
        let plan = FaultPlan::scripted(vec![
            Fault::StallWorker { at_step: 3, delay_steps: 10 },
            Fault::CorruptCheckpoint { at_snapshot: 0, byte_offset: 2 },
        ]);
        let inj = plan.injector();
        inj.check_step(3);
        inj.check_step(3);
        assert_eq!(inj.take_stall_steps(), 10, "stall delay charged once");
        assert_eq!(inj.take_stall_steps(), 0, "watchdog read resets the charge");
        let mut bytes = vec![0u8; 8];
        assert!(inj.corrupt_snapshot(0, &mut bytes));
        assert_eq!(bytes[2], 0xFF);
        assert!(!inj.corrupt_snapshot(0, &mut bytes), "corruption is one-shot");
        assert!(inj.exhausted());
    }

    #[test]
    fn injected_panic_is_one_shot() {
        let plan = FaultPlan::scripted(vec![Fault::WorkerPanic { at_step: 5 }]);
        let inj = plan.injector();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.check_step(5)));
        assert!(err.is_err(), "scheduled step panics");
        inj.check_step(5); // second arrival: already fired, no panic
        assert!(inj.exhausted());
    }

    #[test]
    fn due_stalls_fire_before_one_panic_per_call_in_script_order() {
        let plan = FaultPlan::scripted(vec![
            Fault::WorkerPanic { at_step: 2 },
            Fault::StallWorker { at_step: 2, delay_steps: 3 },
            Fault::AllocFailure { at_step: 2 },
            Fault::WorkerPanic { at_step: 2 },
            Fault::StallWorker { at_step: 2, delay_steps: 4 },
        ]);
        let inj = plan.injector();
        let fire =
            |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        assert!(fire(&|| inj.check_step(2)), "the first pending panic fires");
        assert_eq!(inj.take_stall_steps(), 7, "every due stall fired before it");
        assert!(!inj.exhausted(), "the second panic is still pending");
        assert!(fire(&|| inj.check_step(2)), "the second panic fires on the next call");
        assert!(!fire(&|| inj.check_step(2)), "no panic is left at step 2");
        assert!(!fire(&|| inj.check_alloc_failure(1)), "failures fire only at their step");
        assert!(fire(&|| inj.check_alloc_failure(2)));
        assert!(inj.exhausted());
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::default().validated().is_ok());
        let bad = RetryPolicy { checkpoint_cadence: 0, ..RetryPolicy::default() };
        assert!(matches!(
            bad.validated(),
            Err(ConfigError::TooSmall { field: "checkpoint cadence", .. })
        ));
        let bad = RetryPolicy { keep_snapshots: 0, ..RetryPolicy::default() };
        assert!(bad.validated().is_err());
    }

    #[test]
    fn config_error_messages_keep_legacy_phrases() {
        // The Display strings keep the phrases of the asserts the typed
        // errors replaced.
        let msg = ConfigError::NonPositive { field: "sample spacing", value: 0.0 }.to_string();
        assert!(msg.contains("sample spacing must be positive"), "{msg}");
        let msg =
            ConfigError::GuardChannelsExhaustCapacity { guard: 3, channels: 3 }.to_string();
        assert!(msg.contains("guard channels must leave room for new calls"), "{msg}");
        let msg = ConfigError::InvertedWindow { field: "outage", from: 5, until: 5 }.to_string();
        assert!(msg.contains("non-empty"), "{msg}");
        let msg = ConfigError::OutOfRange {
            field: "tidal amplitude",
            value: 1.5,
            lo: 0.0,
            hi: 1.0,
        }
        .to_string();
        assert!(msg.contains("tidal amplitude must lie in [0, 1]"), "{msg}");
    }
}
