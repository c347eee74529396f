//! One tenant scenario: a fleet run driven incrementally under
//! supervision, with checkpoint persistence and deterministic mid-run
//! policy hot-swaps.
//!
//! ## Determinism contract
//!
//! A [`Session`] is a thin stateful wrapper over the fleet engine's
//! resume chain: every `advance_to` runs supervised cadence-sized
//! segments ([`handover_sim::Supervisor`]) from the session's current
//! [`FleetCheckpoint`], so a session driven by *any* interleaving of
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

use handover_core::twin::{CellLoadReport, SessionStatus, UePhase, UeTwinReport};
use handover_sim::checkpoint::{seal_payload, unseal_payload, CheckpointError};
use handover_sim::fleet::{
    CandidateMode, FleetError, FleetMobility, FleetResult, FleetSimulation, HomogeneousFleet,
    PolicyKind,
};
use handover_sim::resilience::{ConfigError, RetryPolicy, Supervisor, SupervisorReport};
use handover_sim::{DynamicsConfig, FleetCheckpoint, SimConfig, TrafficConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version tag of the sealed session snapshot payload (independent of
/// the sealed *container* version and the inner fleet checkpoint
/// version, which guard their own layers). Version 2 dropped the
/// config's `precision` field; the deserializer ignores unknown fields,
/// so without the bump a version-1 snapshot would hydrate silently.
pub const SESSION_SNAPSHOT_VERSION: u32 = 2;

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

    /// Typed validation of the whole bundle — every plane, every outage
    /// cell's layout membership, the supervision policy and the spec
    /// parameters. Runs *before* any panicking engine builder, so a
    /// malformed wire request surfaces as a typed error, never a server
    /// panic.
    pub fn validated(&self) -> Result<(), ConfigError> {
        self.sim.validated()?;
        if let Some(traffic) = &self.traffic {
            traffic.validated()?;
        }
        if let Some(dynamics) = &self.dynamics {
            dynamics.validated()?;
            for outage in &dynamics.failures {
                if !self.sim.layout.cells().contains(&outage.cell) {
                    return Err(ConfigError::UnknownCell { what: "outage", cell: outage.cell });
                }
            }
        }
        self.retry.validated()?;
        if !(self.cell_radius_km.is_finite() && self.cell_radius_km > 0.0) {
            return Err(ConfigError::NonPositive {
                field: "cell radius",
                value: self.cell_radius_km,
            });
        }
        if self.chunk_size < 1 {
            return Err(ConfigError::TooSmall {
                field: "chunk size",
                minimum: 1,
                got: self.chunk_size as u64,
            });
        }
        Ok(())
    }

    /// Build the fleet engine for this bundle (call
    /// [`SessionConfig::validated`] first — the plane builders panic on
    /// invalid input).
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

/// Everything a session is, frozen: serialized to JSON and sealed in
/// the same checksummed container as fleet checkpoints
/// ([`handover_sim::seal_payload`]), so persisted sessions inherit the
/// write-then-verify bit-rot detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot payload version ([`SESSION_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The spawn-time scenario bundle.
    pub config: SessionConfig,
    /// The policy currently in force (after swaps).
    pub policy_now: PolicyKind,
    /// The hot-swap log, in step order.
    pub swaps: Vec<PolicySwap>,
    /// The fleet state at the current step (`None` before the first
    /// advance).
    pub fleet: Option<FleetCheckpoint>,
    /// The final result, if the session ran to completion.
    pub result: Option<FleetResult>,
    /// Accumulated supervision audit trail.
    pub report: SupervisorReport,
}

/// A live tenant scenario. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct Session {
    config: SessionConfig,
    policy_now: PolicyKind,
    swaps: Vec<PolicySwap>,
    current: Option<FleetCheckpoint>,
    result: Option<FleetResult>,
    report: SupervisorReport,
    workers: usize,
    ids: Vec<u64>,
}

impl Session {
    /// Validate the bundle and create the session at step 0 (no fleet
    /// work happens until the first [`Session::advance_to`]).
    pub fn spawn(config: SessionConfig, workers: usize) -> Result<Session, SessionError> {
        config.validated()?;
        let ids: Vec<u64> = (0..config.n_ues).collect();
        let policy_now = config.policy;
        Ok(Session {
            config,
            policy_now,
            swaps: Vec::new(),
            current: None,
            result: None,
            report: SupervisorReport::default(),
            workers: workers.max(1),
            ids,
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
        self.current.as_ref().map_or(0, |cp| cp.step)
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
        self.current.as_ref()
    }

    /// The accumulated supervision audit trail.
    pub fn report(&self) -> &SupervisorReport {
        &self.report
    }

    /// Re-shard: set the worker count used by subsequent advances.
    /// Results are worker-count-invariant, so this only changes
    /// throughput, never bytes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Compact status for dashboards and the wire `Status` request.
    pub fn status(&self) -> SessionStatus {
        let (live, finished) = match &self.current {
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
            segments: self.report.segments,
            retries: self.report.retries,
        }
    }

    /// Advance the scenario to `target_step` in supervised
    /// cadence-sized segments ([`RetryPolicy::checkpoint_cadence`]).
    /// When every UE finishes at or before the bound, the final result
    /// is assembled (traffic replay included) and the session becomes
    /// complete. Advancing a complete session is a no-op. The audit
    /// trail of the supervised segments accumulates in
    /// [`Session::report`].
    pub fn advance_to(&mut self, target_step: u64) -> Result<SessionStatus, SessionError> {
        if self.result.is_some() {
            return Ok(self.status());
        }
        let engine = self.config.engine(self.workers);
        let mut sup = match self.current.take() {
            Some(cp) => Supervisor::from_checkpoint(engine, self.config.retry, cp),
            None => Supervisor::new(engine, self.config.retry),
        }
        .map_err(SessionError::from)?;
        let spec = self.config.spec(self.policy_now);
        let advanced = sup
            .advance_to(&spec, &self.ids, self.config.base_seed, target_step)
            .map(|_| ())
            .map_err(SessionError::from);
        let finished = if advanced.is_ok() && sup.all_finished() {
            sup.finish(&spec, &self.ids, self.config.base_seed)
                .map(|result| self.result = Some(result))
                .map_err(SessionError::from)
        } else {
            Ok(())
        };
        let (cp, report) = sup.into_parts();
        self.current = cp;
        self.report.absorb(&report);
        advanced.and(finished)?;
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
    /// the session is complete.
    pub fn swap_policy(&mut self, policy: PolicyKind) -> Result<PolicySwap, SessionError> {
        if self.result.is_some() {
            return Err(SessionError::Complete);
        }
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
        let Some(cp) = &self.current else {
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
        if let Some(result) = &self.result {
            let outcome = result
                .outcomes
                .binary_search_by_key(&ue_id, |o| o.ue_id)
                .ok()
                .map(|k| &result.outcomes[k])
                .ok_or(SessionError::UnknownUe(ue_id))?;
            return Ok(UeTwinReport {
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
            });
        }
        let Some(cp) = &self.current else {
            return Err(SessionError::NotAdvanced);
        };
        if let Some(outcome) = cp.find_finished(ue_id) {
            return Ok(UeTwinReport {
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
            });
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

    /// Freeze the session into its serializable snapshot form.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            version: SESSION_SNAPSHOT_VERSION,
            config: self.config.clone(),
            policy_now: self.policy_now,
            swaps: self.swaps.clone(),
            fleet: self.current.clone(),
            result: self.result.clone(),
            report: self.report.clone(),
        }
    }

    /// Persist: snapshot → JSON → the checksummed sealed container
    /// (same envelope as [`FleetCheckpoint::seal`], so restore verifies
    /// magic, length and checksum before touching the payload).
    pub fn sealed(&self) -> Vec<u8> {
        let payload =
            serde_json::to_string(&self.snapshot()).expect("session snapshots serialize to JSON");
        seal_payload(payload.as_bytes())
    }

    /// Rehydrate a sealed session. Total on arbitrary input: corrupt,
    /// truncated or foreign bytes surface as
    /// [`SessionError::Corrupt`], never a panic; the embedded config
    /// and fleet checkpoint are re-validated before the session is
    /// accepted.
    pub fn hydrate(bytes: &[u8], workers: usize) -> Result<Session, SessionError> {
        let payload = unseal_payload(bytes).map_err(SessionError::Corrupt)?;
        let text = std::str::from_utf8(payload)
            .map_err(|e| SessionError::Corrupt(CheckpointError::Malformed(e.to_string())))?;
        let snap: SessionSnapshot = serde_json::from_str(text)
            .map_err(|e| SessionError::Corrupt(CheckpointError::Malformed(e.to_string())))?;
        if snap.version != SESSION_SNAPSHOT_VERSION {
            return Err(SessionError::Corrupt(CheckpointError::UnsupportedVersion {
                found: snap.version,
                supported: SESSION_SNAPSHOT_VERSION,
            }));
        }
        snap.config.validated()?;
        if let Some(cp) = &snap.fleet {
            cp.try_validate().map_err(SessionError::Corrupt)?;
            let tracing = snap.config.traffic.is_some() || snap.config.dynamics.is_some();
            if cp.tracing != tracing {
                return Err(SessionError::Corrupt(CheckpointError::PlaneMismatch {
                    checkpoint_tracing: cp.tracing,
                    engine_tracing: tracing,
                }));
            }
        }
        let ids: Vec<u64> = (0..snap.config.n_ues).collect();
        Ok(Session {
            config: snap.config,
            policy_now: snap.policy_now,
            swaps: snap.swaps,
            current: snap.fleet,
            result: snap.result,
            report: snap.report,
            workers: workers.max(1),
            ids,
        })
    }
}
