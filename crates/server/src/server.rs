//! The multi-tenant twin server: a registry of concurrent [`Session`]s
//! sharing the worker pool, plus the request dispatcher the wire layer
//! drives.
//!
//! Tenants are *isolated by construction*: every session owns its
//! complete scenario state (config, fleet checkpoint, policy log) and
//! each UE's streams are derived from the session's own seeds, so no
//! interleaving of operations across sessions can perturb another
//! session's bytes (pinned by `tests/server_session.rs`). The only
//! shared resource is the worker budget, and fleet results are
//! worker-count-invariant — re-sharding changes throughput, never
//! results.

use crate::session::{Session, SessionConfig, SessionError};
use crate::wire::{Request, Response};
use handover_core::twin::SessionStatus;
use handover_sim::fleet::PolicyKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one tenant session for the lifetime of a server.
pub type SessionId = u64;

/// The wire-facing error form: serializable, with typed variants for
/// the cases a client can act on and flattened messages for the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerError {
    /// No session with that id (never spawned, or already dropped).
    UnknownSession {
        /// The offending id.
        session: SessionId,
    },
    /// A session-level failure (validation, engine, corrupt snapshot,
    /// unknown UE, …); `message` is the typed
    /// [`SessionError`]'s display form.
    Session {
        /// The session the operation targeted (0 for hydrate failures,
        /// which have no session yet).
        session: SessionId,
        /// Human-readable cause.
        message: String,
    },
    /// The request itself was malformed (e.g. an unknown frame).
    BadRequest {
        /// Human-readable cause.
        message: String,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServerError::Session { session, message } => {
                write!(f, "session {session}: {message}")
            }
            ServerError::BadRequest { message } => write!(f, "bad request: {message}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// The session registry + dispatcher. Single-threaded by design: the
/// parallelism lives *inside* each advance (the fleet worker pool), so
/// one server thread drives many tenants without locks — and without
/// any cross-tenant ordering effects, because sessions are isolated by
/// construction.
#[derive(Debug)]
pub struct TwinServer {
    worker_budget: usize,
    next_id: SessionId,
    sessions: BTreeMap<SessionId, Session>,
}

impl TwinServer {
    /// A server sharing `worker_budget` fleet workers across its
    /// tenants (clamped to at least 1).
    pub fn new(worker_budget: usize) -> Self {
        TwinServer { worker_budget: worker_budget.max(1), next_id: 1, sessions: BTreeMap::new() }
    }

    /// The configured worker budget.
    pub fn worker_budget(&self) -> usize {
        self.worker_budget
    }

    /// Tenant count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Even worker split: every tenant gets at least one worker, and
    /// the budget is divided across tenants. Results are
    /// worker-invariant, so rebalancing is invisible in the bytes.
    fn rebalance(&mut self) {
        let n = self.sessions.len().max(1);
        let per_session = (self.worker_budget / n).max(1);
        for session in self.sessions.values_mut() {
            session.set_workers(per_session);
        }
    }

    fn session_error(session: SessionId, err: SessionError) -> ServerError {
        ServerError::Session { session, message: err.to_string() }
    }

    /// Spawn a tenant scenario from a validated bundle.
    pub fn spawn(&mut self, config: SessionConfig) -> Result<SessionId, ServerError> {
        let session =
            Session::spawn(config, 1).map_err(|err| Self::session_error(0, err))?;
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, session);
        self.rebalance();
        Ok(id)
    }

    /// Rehydrate a previously sealed session as a new tenant.
    pub fn hydrate(&mut self, bytes: &[u8]) -> Result<SessionId, ServerError> {
        let session =
            Session::hydrate(bytes, 1).map_err(|err| Self::session_error(0, err))?;
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, session);
        self.rebalance();
        Ok(id)
    }

    /// Borrow a session.
    pub fn session(&self, id: SessionId) -> Result<&Session, ServerError> {
        self.sessions.get(&id).ok_or(ServerError::UnknownSession { session: id })
    }

    /// Borrow a session mutably.
    pub fn session_mut(&mut self, id: SessionId) -> Result<&mut Session, ServerError> {
        self.sessions.get_mut(&id).ok_or(ServerError::UnknownSession { session: id })
    }

    /// Advance a tenant to `step` (supervised segments; see
    /// [`Session::advance_to`]).
    pub fn advance_to(
        &mut self,
        id: SessionId,
        step: u64,
    ) -> Result<SessionStatus, ServerError> {
        self.session_mut(id)?.advance_to(step).map_err(|err| Self::session_error(id, err))
    }

    /// Hot-swap a tenant's policy at its current step.
    pub fn swap_policy(
        &mut self,
        id: SessionId,
        policy: PolicyKind,
    ) -> Result<crate::session::PolicySwap, ServerError> {
        self.session_mut(id)?.swap_policy(policy).map_err(|err| Self::session_error(id, err))
    }

    /// Seal a tenant into persistable bytes (the session stays live).
    pub fn checkpoint(&self, id: SessionId) -> Result<Vec<u8>, ServerError> {
        Ok(self.session(id)?.sealed())
    }

    /// Drop a tenant, freeing its worker share.
    pub fn drop_session(&mut self, id: SessionId) -> Result<(), ServerError> {
        self.sessions
            .remove(&id)
            .map(|_| self.rebalance())
            .ok_or(ServerError::UnknownSession { session: id })
    }

    /// `(id, status)` of every tenant, ascending by id.
    pub fn sessions(&self) -> Vec<(SessionId, SessionStatus)> {
        self.sessions.iter().map(|(&id, s)| (id, s.status())).collect()
    }

    /// Dispatch one wire request. `Shutdown` is answered here too —
    /// closing the loop is the transport's job (see
    /// [`crate::wire::serve`]).
    pub fn handle(&mut self, request: Request) -> Response {
        self.dispatch(request).unwrap_or_else(|error| Response::Error { error })
    }

    /// [`TwinServer::handle`] with every failure on one error path.
    fn dispatch(&mut self, request: Request) -> Result<Response, ServerError> {
        Ok(match request {
            Request::Spawn { config } => Response::Spawned { session: self.spawn(*config)? },
            Request::AdvanceTo { session, step } => {
                Response::Advanced { session, status: self.advance_to(session, step)? }
            }
            Request::QueryCells { session } => {
                let cells = self.session(session)?.query_cells();
                let cells = cells.map_err(|e| Self::session_error(session, e))?;
                Response::Cells { session, cells }
            }
            Request::QueryUe { session, ue_id } => {
                let report = self.session(session)?.query_ue(ue_id);
                let report = report.map_err(|e| Self::session_error(session, e))?;
                Response::Ue { session, report: Box::new(report) }
            }
            Request::SwapPolicy { session, policy } => {
                Response::Swapped { session, swap: self.swap_policy(session, policy)? }
            }
            Request::QueryResult { session } => {
                let result = self.session(session)?.result().cloned();
                let result = result
                    .ok_or_else(|| Self::session_error(session, SessionError::NotAdvanced))?;
                Response::Result { session, result: Box::new(result) }
            }
            Request::Checkpoint { session } => {
                Response::Checkpointed { session, bytes: self.checkpoint(session)? }
            }
            Request::Hydrate { bytes } => Response::Hydrated { session: self.hydrate(&bytes)? },
            Request::Drop { session } => {
                self.drop_session(session)?;
                Response::Dropped { session }
            }
            Request::Status { session } => {
                Response::Status { session, status: self.session(session)?.status() }
            }
            Request::List => Response::Sessions { sessions: self.sessions() },
            Request::Shutdown => Response::ShuttingDown,
        })
    }
}
