//! One tenant scenario: a fleet run driven incrementally under
//! supervision, with checkpoint persistence and deterministic mid-run
//! policy hot-swaps.
//!
//! ## Determinism contract
//!
//! A [`Session`] is a thin stateful wrapper over the fleet engine's
//! resume chain. It keeps one [`handover_sim::Supervisor`] for its whole
//! life, the one owner of the run's snapshot, audit trail and worker
//! count: every `advance_to` runs supervised cadence-sized segments from
//! the current [`FleetCheckpoint`] with its own retry budget, and a
//! failed segment restores the snapshot it started from. Between
//! advances the supervisor holds that one snapshot and no seal; what
//! else it keeps (its failure streak) is never sealed, so a session
//! driven by *any* interleaving of
//! [`Session::advance_to`] / [`Session::sealed`] / [`Session::hydrate`]
//! calls produces results **bit-identical** to the equivalent batch
//! [`FleetSimulation::try_run_ids`] — every `f64` included (pinned by
//! `tests/server_session.rs`).
//!
//! Policy hot-swaps keep that contract: a swap takes effect exactly at
//! the session's current step (a segment boundary), is recorded in the
//! session log ([`Session::policy_log`]), and on resume each UE's
//! policy is rebuilt from the *new* spec and fed the old policy's
//! checkpoint (implementations ignore foreign variants), so replaying
//! the log from scratch — or the equivalent manual
//! `advance(old spec, swap_step)` → `try_resume(new spec)` chain — is
//! bit-identical.
//!
//! ## Sealed layout (session payload v3)
//!
//! [`Session::sealed`] writes the same checksummed container as
//! [`FleetCheckpoint::seal`] (container v4, XXH64 checksum; a v3
//! container with an FNV-1a checksum still hydrates) around this
//! payload:
//! - a `u64` little-endian header length, then that many bytes of JSON:
//!   `{"version","config","policy_now","swaps","result","report"}`;
//! - one byte, 1 when a fleet checkpoint follows (0 before the first
//!   advance);
//! - the checkpoint's fixed-layout little-endian binary payload
//!   ([`FleetCheckpoint::write_payload`]), up to the end.
//!
//! ## Trajectory memo
//!
//! A session keeps each UE's trajectory after the engine first asks for
//! it, and hands later segments a clone instead of regenerating the
//! walk. The memo is filled during advances only (never by
//! [`Session::spawn`] or [`Session::hydrate`]), is never sealed, and
//! survives policy swaps, because a walk depends only on the mobility
//! model and the trajectory seed.

use handover_core::twin::{CellLoadReport, SessionStatus, UePhase, UeTwinReport};
use handover_core::HandoverPolicy;
use handover_sim::checkpoint::{seal_with, unseal_payload, CheckpointError};
use handover_sim::fleet::{
    CandidateMode, FleetError, FleetMobility, FleetResult, FleetSimulation, HomogeneousFleet,
    PolicyKind, Trajectory, UeOutcome, UeSpec,
};
use handover_sim::resilience::{
    validate_planes, ConfigError, RetryPolicy, Supervisor, SupervisorReport,
};
use handover_sim::{DynamicsConfig, FleetCheckpoint, SimConfig, TrafficConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Version tag of the sealed session snapshot payload (independent of
/// the sealed *container* version and the inner fleet checkpoint
/// version, which guard their own layers). Version 2 dropped the
/// config's `precision` field; the deserializer ignores unknown fields,
/// so without the bump a version-1 snapshot would hydrate silently.
/// Version 3 moved the fleet checkpoint out of the JSON into the
/// binary payload (see the module docs).
pub const SESSION_SNAPSHOT_VERSION: u32 = 3;

/// Why a session operation failed. The wire layer flattens these into
/// [`ServerError`](crate::server::ServerError) messages; in-process
/// callers get the full typed payload.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The scenario bundle failed typed validation.
    InvalidConfig(ConfigError),
    /// The underlying fleet engine failed (worker panic, retries
    /// exhausted, …).
    Engine(FleetError),
    /// A sealed session snapshot failed verification or deserialization.
    Corrupt(CheckpointError),
    /// The queried UE id is not part of the scenario.
    UnknownUe(u64),
    /// The session has not been advanced yet — there is no snapshot to
    /// query. Advance to any step (even 0) first.
    NotAdvanced,
    /// The session already ran to completion; the rejected operation
    /// (e.g. a policy swap) only makes sense mid-run.
    Complete,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidConfig(err) => write!(f, "invalid session config: {err}"),
            SessionError::Engine(err) => write!(f, "fleet engine error: {err}"),
            SessionError::Corrupt(err) => write!(f, "corrupt session snapshot: {err}"),
            SessionError::UnknownUe(id) => write!(f, "UE {id} is not part of this scenario"),
            SessionError::NotAdvanced => {
                write!(f, "session has no snapshot yet; advance_to any step first")
            }
            SessionError::Complete => write!(f, "session already ran to completion"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<FleetError> for SessionError {
    fn from(err: FleetError) -> Self {
        match err {
            FleetError::InvalidConfig(err) => SessionError::InvalidConfig(err),
            FleetError::CorruptCheckpoint(err) => SessionError::Corrupt(err),
            other => SessionError::Engine(other),
        }
    }
}

impl From<ConfigError> for SessionError {
    fn from(err: ConfigError) -> Self {
        SessionError::InvalidConfig(err)
    }
}

/// The validated scenario bundle a session is spawned from: the
/// simulation plus optional traffic/dynamics planes, the (homogeneous)
/// population, seeds, engine tuning and the supervision policy. Fully
/// serde — it travels inside both the wire `Spawn` request and the
/// sealed session snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Measurement/decision plane configuration.
    pub sim: SimConfig,
    /// Optional traffic plane (call sessions, admission, cell load).
    pub traffic: Option<TrafficConfig>,
    /// Optional dynamic-workload plane (churn, tides, outages, mixes).
    pub dynamics: Option<DynamicsConfig>,
    /// Mobility model shared by all UEs.
    pub mobility: FleetMobility,
    /// Initial handover policy (hot-swappable later).
    pub policy: PolicyKind,
    /// Number of UEs (ids `0..n_ues`).
    pub n_ues: u64,
    /// Measurement base seed.
    pub base_seed: u64,
    /// Trajectory base seed.
    pub trajectory_seed: u64,
    /// Cell radius for the fuzzy controller's DMB normalisation, km.
    pub cell_radius_km: f64,
    /// Candidate measurement mode.
    pub candidate_mode: CandidateMode,
    /// Per-worker chunk size.
    pub chunk_size: usize,
    /// Supervision parameters (checkpoint cadence, retries, backoff).
    pub retry: RetryPolicy,
}

impl SessionConfig {
    /// A bundle with engine defaults for everything beyond the
    /// required scenario inputs.
    pub fn new(
        sim: SimConfig,
        mobility: FleetMobility,
        policy: PolicyKind,
        n_ues: u64,
        base_seed: u64,
    ) -> Self {
        SessionConfig {
            sim,
            traffic: None,
            dynamics: None,
            mobility,
            policy,
            n_ues,
            base_seed,
            trajectory_seed: base_seed ^ 0x5EED,
            cell_radius_km: 1.0,
            candidate_mode: CandidateMode::All,
            chunk_size: 256,
            retry: RetryPolicy::default(),
        }
    }

    /// Typed validation of the whole bundle — the simulation and its
    /// planes ([`validate_planes`]), the supervision policy, the
    /// population ([`HomogeneousFleet::validated`]: mobility model,
    /// policy, cell radius) and the chunk size — so a malformed wire
    /// request is refused at spawn, before any fleet work.
    pub fn validated(&self) -> Result<(), ConfigError> {
        validate_planes(&self.sim, self.traffic.as_ref(), self.dynamics.as_ref())?;
        self.retry.validated()?;
        self.spec(self.policy).validated()?;
        if self.chunk_size < 1 {
            return Err(ConfigError::TooSmall {
                field: "chunk size",
                minimum: 1,
                got: self.chunk_size as u64,
            });
        }
        Ok(())
    }

    /// Build the fleet engine for this bundle. An invalid configuration
    /// or plane surfaces as [`FleetError::InvalidConfig`] when it runs.
    fn engine(&self, workers: usize) -> FleetSimulation {
        let mut engine = FleetSimulation::new(self.sim.clone())
            .with_workers(workers)
            .with_chunk_size(self.chunk_size)
            .with_candidate_mode(self.candidate_mode);
        if let Some(traffic) = self.traffic {
            engine = engine.with_traffic(traffic);
        }
        if let Some(dynamics) = &self.dynamics {
            engine = engine.with_dynamics(dynamics.clone());
        }
        engine
    }

    /// The homogeneous population spec under `policy` (the session's
    /// *current* policy, which may differ from the spawn-time one after
    /// hot-swaps).
    fn spec(&self, policy: PolicyKind) -> HomogeneousFleet {
        HomogeneousFleet {
            mobility: self.mobility,
            policy,
            trajectory_seed: self.trajectory_seed,
            cell_radius_km: self.cell_radius_km,
        }
    }
}

/// One recorded policy hot-swap: from `step` onwards the session runs
/// under `policy`. Replaying a session's swap log reproduces its
/// results bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicySwap {
    /// The segment-boundary step at which the swap took effect.
    pub step: u64,
    /// The policy in force from that step.
    pub policy: PolicyKind,
}

/// The JSON header of a sealed session: everything but the fleet
/// checkpoint. [`Session::sealed`] writes these keys in this order.
#[derive(Deserialize)]
struct SessionHeader {
    version: u32,
    config: SessionConfig,
    policy_now: PolicyKind,
    swaps: Vec<PolicySwap>,
    result: Option<FleetResult>,
    report: SupervisorReport,
}

/// A session's population: its [`HomogeneousFleet`] under the current
/// policy, with each UE's trajectory generated once per session and
/// cloned afterwards. A hydrated snapshot may name UE ids past
/// `n_ues`; those are generated every time.
struct MemoSpec<'a> {
    fleet: HomogeneousFleet,
    memo: &'a [OnceLock<Trajectory>],
}

impl UeSpec for MemoSpec<'_> {
    fn trajectory(&self, ue_id: u64) -> Trajectory {
        match usize::try_from(ue_id).ok().and_then(|k| self.memo.get(k)) {
            Some(slot) => slot.get_or_init(|| self.fleet.trajectory(ue_id)).clone(),
            None => self.fleet.trajectory(ue_id),
        }
    }

    fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        self.fleet.policy(ue_id)
    }
}

fn malformed(msg: String) -> SessionError {
    SessionError::Corrupt(CheckpointError::Malformed(msg))
}

/// A live tenant scenario. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct Session {
    config: SessionConfig,
    policy_now: PolicyKind,
    swaps: Vec<PolicySwap>,
    result: Option<FleetResult>,
    /// The run's snapshot, audit trail and worker count.
    supervisor: Supervisor,
    ids: Vec<u64>,
    /// Trajectory memo indexed by UE id; empty until the first advance.
    trajectories: Vec<OnceLock<Trajectory>>,
}

impl Session {
    /// Validate the bundle and create the session at step 0 (no fleet
    /// work happens until the first [`Session::advance_to`]).
    pub fn spawn(config: SessionConfig, workers: usize) -> Result<Session, SessionError> {
        config.validated()?;
        let supervisor = Supervisor::new(config.engine(workers), config.retry)?;
        let ids: Vec<u64> = (0..config.n_ues).collect();
        let policy_now = config.policy;
        Ok(Session {
            config,
            policy_now,
            swaps: Vec::new(),
            result: None,
            supervisor,
            ids,
            trajectories: Vec::new(),
        })
    }

    /// The spawn-time scenario bundle.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The policy currently in force.
    pub fn policy(&self) -> PolicyKind {
        self.policy_now
    }

    /// The hot-swap log, in step order.
    pub fn policy_log(&self) -> &[PolicySwap] {
        &self.swaps
    }

    /// The session's current lockstep step (0 before the first
    /// advance).
    pub fn step(&self) -> u64 {
        self.checkpoint().map_or(0, |cp| cp.step)
    }

    /// Whether the session ran to completion.
    pub fn is_complete(&self) -> bool {
        self.result.is_some()
    }

    /// The final result, once complete.
    pub fn result(&self) -> Option<&FleetResult> {
        self.result.as_ref()
    }

    /// The current fleet snapshot, if any.
    pub fn checkpoint(&self) -> Option<&FleetCheckpoint> {
        self.supervisor.checkpoint()
    }

    /// The accumulated supervision audit trail.
    pub fn report(&self) -> &SupervisorReport {
        self.supervisor.report()
    }

    /// Re-shard: set the worker count used by subsequent advances.
    /// Results are worker-count-invariant, so this only changes
    /// throughput, never bytes.
    pub fn set_workers(&mut self, workers: usize) {
        self.supervisor.set_workers(workers);
    }

    /// Compact status for dashboards and the wire `Status` request.
    pub fn status(&self) -> SessionStatus {
        let (live, finished) = match self.checkpoint() {
            Some(cp) => (cp.live.len() as u64, cp.finished.len() as u64),
            None => (self.config.n_ues, 0),
        };
        SessionStatus {
            step: self.step(),
            total_ues: self.config.n_ues,
            live_ues: if self.is_complete() { 0 } else { live },
            finished_ues: if self.is_complete() { self.config.n_ues } else { finished },
            complete: self.is_complete(),
            policy_swaps: self.swaps.len() as u64,
            segments: self.report().segments,
            retries: self.report().retries,
        }
    }

    /// Advance the scenario to `target_step` in supervised
    /// cadence-sized segments ([`RetryPolicy::checkpoint_cadence`]).
    /// When every UE finishes at or before the bound, the final result
    /// is assembled (traffic replay included) and the session becomes
    /// complete. Advancing a complete session is a no-op. The audit
    /// trail of the supervised segments accumulates in
    /// [`Session::report`]; after an error the session holds the failed
    /// segment's restore point.
    pub fn advance_to(&mut self, target_step: u64) -> Result<SessionStatus, SessionError> {
        if self.result.is_some() {
            return Ok(self.status());
        }
        if self.trajectories.len() != self.ids.len() {
            self.trajectories = self.ids.iter().map(|_| OnceLock::new()).collect();
        }
        let spec = MemoSpec { fleet: self.config.spec(self.policy_now), memo: &self.trajectories };
        let (ids, seed) = (&self.ids, self.config.base_seed);
        if self.supervisor.advance_to(&spec, ids, seed, target_step)?.live.is_empty() {
            self.result = Some(self.supervisor.finish(&spec, ids, seed)?);
        }
        Ok(self.status())
    }

    /// Run the scenario to completion (any number of remaining
    /// supervised segments plus the final assembly).
    pub fn run_to_completion(&mut self) -> Result<&FleetResult, SessionError> {
        self.advance_to(u64::MAX)?;
        self.result.as_ref().ok_or(SessionError::NotAdvanced)
    }

    /// Hot-swap the handover policy at the session's current step — a
    /// segment boundary by construction. The swap is recorded in the
    /// session log; replaying the log (or the equivalent manual
    /// `advance`/`try_resume` chain) is bit-identical. Rejected once
    /// the session is complete, and a policy that fails
    /// [`PolicyKind::validated`] is refused as
    /// [`SessionError::InvalidConfig`] without touching the session.
    pub fn swap_policy(&mut self, policy: PolicyKind) -> Result<PolicySwap, SessionError> {
        if self.result.is_some() {
            return Err(SessionError::Complete);
        }
        policy.validated()?;
        let swap = PolicySwap { step: self.step(), policy };
        self.swaps.push(swap);
        self.policy_now = policy;
        Ok(swap)
    }

    /// Per-cell load at the current step: cumulative served UE-steps
    /// plus the instantaneous live-UE count per cell, in layout order.
    pub fn query_cells(&self) -> Result<Vec<CellLoadReport>, SessionError> {
        let cells = self.config.sim.layout.cells();
        if let Some(result) = &self.result {
            return Ok(cells
                .iter()
                .zip(result.cell_load.iter().map(|(_, n)| n))
                .map(|(&cell, served)| CellLoadReport {
                    cell,
                    served_ue_steps: served,
                    live_ues: 0,
                })
                .collect());
        }
        let Some(cp) = self.checkpoint() else {
            return Err(SessionError::NotAdvanced);
        };
        let live = cp.live_serving_counts(cells.len());
        Ok(cells
            .iter()
            .zip(cp.cell_load.iter().map(|(_, n)| n))
            .zip(live)
            .map(|((&cell, served), live_ues)| CellLoadReport {
                cell,
                served_ue_steps: served,
                live_ues,
            })
            .collect())
    }

    /// Per-UE state at the current step. Finished UEs (and every UE of
    /// a complete session) report their final outcome; live UEs report
    /// their running tallies.
    pub fn query_ue(&self, ue_id: u64) -> Result<UeTwinReport, SessionError> {
        if ue_id >= self.config.n_ues {
            return Err(SessionError::UnknownUe(ue_id));
        }
        let finished = |outcome: &UeOutcome| UeTwinReport {
            ue_id,
            phase: UePhase::Finished,
            steps: outcome.steps,
            serving_cell: outcome.final_serving,
            handovers: outcome.handovers,
            ping_pongs: outcome.ping_pongs,
            outage_steps: outcome.outage_steps,
            hd_count: outcome.hd_count,
            hd_sum: outcome.hd_sum,
            travelled_km: outcome.travelled_km,
        };
        if let Some(result) = &self.result {
            let k = result.outcomes.binary_search_by_key(&ue_id, |o| o.ue_id);
            let k = k.map_err(|_| SessionError::UnknownUe(ue_id))?;
            return Ok(finished(&result.outcomes[k]));
        }
        let Some(cp) = self.checkpoint() else {
            return Err(SessionError::NotAdvanced);
        };
        if let Some(outcome) = cp.find_finished(ue_id) {
            return Ok(finished(outcome));
        }
        let ue = cp.find_live(ue_id).ok_or(SessionError::UnknownUe(ue_id))?;
        let cells = self.config.sim.layout.cells();
        let serving_cell = cells
            .get(ue.engine.serving_idx as usize)
            .copied()
            .ok_or_else(|| {
                SessionError::Corrupt(CheckpointError::ShapeMismatch(format!(
                    "live UE {ue_id}: serving index {} out of {} cells",
                    ue.engine.serving_idx,
                    cells.len()
                )))
            })?;
        let pp = ue.engine.log.ping_pong_report(self.config.sim.pingpong_window_steps);
        Ok(UeTwinReport {
            ue_id,
            phase: UePhase::Live,
            steps: ue.engine.steps,
            serving_cell,
            handovers: ue.engine.log.handover_count() as u64,
            ping_pongs: pp.ping_pongs as u64,
            outage_steps: ue.engine.log.outage_step_count() as u64,
            hd_count: ue.hd_count,
            hd_sum: ue.hd_sum,
            travelled_km: ue.travelled_km,
        })
    }

    /// Persist: the v3 session payload (see the module docs) in the
    /// v4 checksummed sealed container (same envelope as
    /// [`FleetCheckpoint::seal`], so restore verifies magic, length and
    /// checksum before touching the payload). Encodes straight from the
    /// session; nothing is cloned.
    pub fn sealed(&self) -> Vec<u8> {
        let mut header = serde::Writer::new();
        header.raw("{\"version\":");
        SESSION_SNAPSHOT_VERSION.serialize(&mut header);
        header.raw(",\"config\":");
        self.config.serialize(&mut header);
        header.raw(",\"policy_now\":");
        self.policy_now.serialize(&mut header);
        header.raw(",\"swaps\":");
        self.swaps.serialize(&mut header);
        header.raw(",\"result\":");
        self.result.serialize(&mut header);
        header.raw(",\"report\":");
        self.report().serialize(&mut header);
        header.raw("}");
        let header = header.into_string();
        seal_with(|out| {
            out.extend_from_slice(&(header.len() as u64).to_le_bytes());
            out.extend_from_slice(header.as_bytes());
            match self.checkpoint() {
                None => out.push(0),
                Some(cp) => {
                    out.push(1);
                    cp.write_payload(out);
                }
            }
        })
    }

    /// Rehydrate a sealed session. Total on arbitrary input: corrupt,
    /// truncated or foreign bytes surface as
    /// [`SessionError::Corrupt`], never a panic; the embedded config
    /// and the policy in force are re-validated, and the fleet
    /// checkpoint is checked against the config's layout and planes
    /// ([`FleetCheckpoint::check_engine`]), before the session is
    /// accepted. v4 and v3 containers are read; older containers and
    /// payload versions are refused with
    /// [`CheckpointError::UnsupportedVersion`].
    /// The session's supervisor continues the sealed audit trail from
    /// the checkpoint.
    pub fn hydrate(bytes: &[u8], workers: usize) -> Result<Session, SessionError> {
        let payload = unseal_payload(bytes).map_err(SessionError::Corrupt)?;
        let (len, rest) = (payload.get(..8), payload.get(8..).unwrap_or_default());
        let len = len
            .and_then(|word| <[u8; 8]>::try_from(word).ok())
            .map(u64::from_le_bytes)
            .ok_or_else(|| malformed("session payload has no header length".into()))?;
        let (header, fleet) = usize::try_from(len)
            .ok()
            .filter(|&len| len <= rest.len())
            .map(|len| rest.split_at(len))
            .ok_or_else(|| {
                malformed(format!("session header of {len} bytes overruns the payload"))
            })?;
        let header = std::str::from_utf8(header).map_err(|e| malformed(e.to_string()))?;
        let header: SessionHeader =
            serde_json::from_str(header).map_err(|e| malformed(e.to_string()))?;
        if header.version != SESSION_SNAPSHOT_VERSION {
            return Err(SessionError::Corrupt(CheckpointError::UnsupportedVersion {
                found: header.version,
                supported: SESSION_SNAPSHOT_VERSION,
            }));
        }
        header.config.validated()?;
        header.policy_now.validated()?;
        let current = match fleet.split_first() {
            Some((0, [])) => None,
            Some((1, fleet)) => {
                Some(FleetCheckpoint::try_from_payload(fleet).map_err(SessionError::Corrupt)?)
            }
            _ => return Err(malformed("session payload has no valid fleet marker".into())),
        };
        let engine = header.config.engine(workers);
        let supervisor = Supervisor::resume(engine, header.config.retry, current, header.report)?;
        let ids: Vec<u64> = (0..header.config.n_ues).collect();
        Ok(Session {
            config: header.config,
            policy_now: header.policy_now,
            swaps: header.swaps,
            result: header.result,
            supervisor,
            ids,
            trajectories: Vec::new(),
        })
    }
}
