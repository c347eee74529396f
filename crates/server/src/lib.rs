//! # handover-server
//!
//! The digital-twin simulation service: the batch fleet engine
//! ([`handover_sim`]) wrapped in a session-oriented, incremental API —
//! the simulator becomes something you run *against*, not just run.
//!
//! * [`session`] — one tenant scenario: spawn from a validated
//!   [`SessionConfig`] bundle, [`Session::advance_to`] arbitrary step
//!   bounds in supervised cadence-sized segments (the PR 9
//!   [`handover_sim::Supervisor`] machinery per session), query
//!   per-cell load and per-UE state at the current step, hot-swap the
//!   [`PolicyKind`](handover_sim::fleet::PolicyKind) mid-run at a
//!   segment boundary, and persist/hydrate through the sealed
//!   checksummed container.
//! * [`server`] — [`TwinServer`]: the multi-tenant registry sharing
//!   the worker pool across concurrent sessions (isolated by
//!   construction; re-sharding never changes bytes), plus the request
//!   dispatcher.
//! * [`wire`] — the compact length-prefixed request/response codec,
//!   the [`wire::serve`] loop, a typed [`TwinClient`], and the
//!   in-process pipe transport ([`wire::spawn_in_process`]); the
//!   `handover_serverd` example speaks the same codec over a Unix
//!   socket.
//! * [`cli`] — typed flag parsing for the example binaries (usage +
//!   exit(2) instead of panics on malformed input).
//!
//! ## Determinism contract
//!
//! A session driven by **any** interleaving of `advance_to`,
//! checkpoint, hydrate and (logged) policy-swap calls produces results
//! bit-identical to the equivalent batch
//! [`FleetSimulation`](handover_sim::fleet::FleetSimulation) run —
//! every `f64` included. Pinned by `tests/server_session.rs`.

#![deny(missing_docs)]
#![warn(clippy::all)]
#![deny(clippy::too_many_lines)]

pub mod cli;
pub mod server;
pub mod session;
pub mod wire;

pub use server::{ServerError, SessionId, TwinServer};
pub use session::{
    PolicySwap, Session, SessionConfig, SessionError, SESSION_SNAPSHOT_VERSION,
};
pub use wire::{
    pipe, read_frame, serve, spawn_in_process, write_frame, ClientError, InProcessServer,
    PipeReader, PipeWriter, Request, Response, TwinClient, WireError, MAX_FRAME_LEN,
};
