//! The compact length-prefixed wire codec and its transports.
//!
//! One frame = a `u32` little-endian payload length followed by the
//! payload: the serde-JSON encoding of one [`Request`] or [`Response`].
//! The same codec serves every transport — the in-process byte pipe
//! ([`spawn_in_process`]) the tests drive, the Unix socket the
//! `handover_serverd` example listens on, and any future network
//! transport — so protocol behaviour is pinned once, in process, and
//! carries over unchanged.
//!
//! Framing is defensive in both directions: lengths above
//! [`MAX_FRAME_LEN`] are rejected before allocation, a frame's buffer
//! grows only with the bytes that actually arrive (a bare header cannot
//! make the reader allocate its declared length), truncated frames
//! surface as [`WireError::Io`], and malformed payloads as
//! [`WireError::Malformed`] — a garbage peer cannot panic the server.

use crate::server::{ServerError, SessionId, TwinServer};
use crate::session::{PolicySwap, SessionConfig};
use handover_core::twin::{CellLoadReport, SessionStatus, UeTwinReport};
use handover_sim::fleet::{FleetResult, PolicyKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// Upper bound on one frame's payload, bytes. Generous for sealed
/// million-UE sessions while still refusing absurd lengths before any
/// allocation happens.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// A transport or framing failure (distinct from [`ServerError`],
/// which is the *server's* in-protocol answer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying reader/writer failed (or a frame was truncated).
    Io(String),
    /// The peer declared a frame longer than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Declared payload length.
        declared: u32,
    },
    /// The payload bytes did not decode as the expected message.
    Malformed(String),
    /// The server answered with a response the request cannot produce.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "wire I/O error: {msg}"),
            WireError::FrameTooLarge { declared } => {
                write!(f, "frame of {declared} bytes exceeds the {MAX_FRAME_LEN} byte cap")
            }
            WireError::Malformed(msg) => write!(f, "malformed frame payload: {msg}"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Everything a client can ask a [`TwinServer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Spawn a tenant scenario.
    Spawn {
        /// The validated scenario bundle.
        config: Box<SessionConfig>,
    },
    /// Advance a tenant to a step bound.
    AdvanceTo {
        /// Target session.
        session: SessionId,
        /// Target lockstep step.
        step: u64,
    },
    /// Per-cell load at the tenant's current step.
    QueryCells {
        /// Target session.
        session: SessionId,
    },
    /// Per-UE state at the tenant's current step.
    QueryUe {
        /// Target session.
        session: SessionId,
        /// The UE to report.
        ue_id: u64,
    },
    /// Hot-swap the tenant's policy at its current step.
    SwapPolicy {
        /// Target session.
        session: SessionId,
        /// The policy to switch to.
        policy: PolicyKind,
    },
    /// The final result of a completed tenant.
    QueryResult {
        /// Target session.
        session: SessionId,
    },
    /// Seal the tenant into persistable bytes (tenant stays live).
    Checkpoint {
        /// Target session.
        session: SessionId,
    },
    /// Rehydrate sealed bytes as a new tenant.
    Hydrate {
        /// A [`crate::session::Session::sealed`] container.
        bytes: Vec<u8>,
    },
    /// Drop a tenant.
    Drop {
        /// Target session.
        session: SessionId,
    },
    /// Compact status of one tenant.
    Status {
        /// Target session.
        session: SessionId,
    },
    /// `(id, status)` of every tenant.
    List,
    /// Stop serving this connection.
    Shutdown,
}

/// The server's answer to each [`Request`] variant (plus `Error`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Spawned a tenant.
    Spawned {
        /// The new session's id.
        session: SessionId,
    },
    /// Advanced a tenant.
    Advanced {
        /// The session.
        session: SessionId,
        /// Status at the stopping point.
        status: SessionStatus,
    },
    /// Per-cell load reports, in layout order.
    Cells {
        /// The session.
        session: SessionId,
        /// One report per layout cell.
        cells: Vec<CellLoadReport>,
    },
    /// One UE's twin report.
    Ue {
        /// The session.
        session: SessionId,
        /// The report.
        report: Box<UeTwinReport>,
    },
    /// Recorded a policy swap.
    Swapped {
        /// The session.
        session: SessionId,
        /// The recorded swap (step + policy).
        swap: PolicySwap,
    },
    /// A completed tenant's final result.
    Result {
        /// The session.
        session: SessionId,
        /// The batch-equivalent fleet result.
        result: Box<FleetResult>,
    },
    /// Sealed tenant bytes.
    Checkpointed {
        /// The session.
        session: SessionId,
        /// The sealed container.
        bytes: Vec<u8>,
    },
    /// Rehydrated a tenant.
    Hydrated {
        /// The new session's id.
        session: SessionId,
    },
    /// Dropped a tenant.
    Dropped {
        /// The dropped session's id.
        session: SessionId,
    },
    /// One tenant's status.
    Status {
        /// The session.
        session: SessionId,
        /// Its status.
        status: SessionStatus,
    },
    /// Every tenant's status.
    Sessions {
        /// `(id, status)` pairs, ascending by id.
        sessions: Vec<(SessionId, SessionStatus)>,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Why.
        error: ServerError,
    },
    /// Acknowledges [`Request::Shutdown`]; the server closes the
    /// connection after sending this.
    ShuttingDown,
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), WireError> {
    let text = serde_json::to_string(msg).map_err(|e| WireError::Malformed(e.to_string()))?;
    let len = u32::try_from(text.len()).map_err(|_| WireError::FrameTooLarge {
        declared: u32::MAX,
    })?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { declared: len });
    }
    w.write_all(&len.to_le_bytes()).map_err(|e| WireError::Io(e.to_string()))?;
    w.write_all(text.as_bytes()).map_err(|e| WireError::Io(e.to_string()))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))?;
    Ok(())
}

/// Read one length-prefixed frame. `Ok(None)` is a clean end of
/// stream (the peer closed between frames); a close *inside* a frame
/// is an error.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, WireError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(format!(
                    "stream closed {filled} bytes into a frame header"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { declared: len });
    }
    // Grow the buffer with the bytes that actually arrive: a bare header
    // declaring a huge frame costs nothing until the peer sends it.
    let mut payload = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut payload).map_err(|e| WireError::Io(e.to_string()))?;
    if payload.len() != len as usize {
        return Err(WireError::Io(format!(
            "stream closed {} bytes into a {len}-byte frame",
            payload.len()
        )));
    }
    let text =
        std::str::from_utf8(&payload).map_err(|e| WireError::Malformed(e.to_string()))?;
    let msg = serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))?;
    Ok(Some(msg))
}

/// Serve one connection: read requests, dispatch to the server, write
/// responses — until the peer closes (`Ok(false)`) or sends
/// [`Request::Shutdown`] (`Ok(true)`, after acknowledging). A decode
/// failure answers with a [`ServerError::BadRequest`] frame and keeps
/// the connection open; transport failures end it.
pub fn serve<R: Read, W: Write>(
    server: &mut TwinServer,
    mut reader: R,
    mut writer: W,
) -> Result<bool, WireError> {
    loop {
        let request: Option<Request> = match read_frame(&mut reader) {
            Ok(req) => req,
            Err(WireError::Malformed(msg)) => {
                let response = Response::Error {
                    error: ServerError::BadRequest { message: msg },
                };
                write_frame(&mut writer, &response)?;
                continue;
            }
            Err(err) => return Err(err),
        };
        let Some(request) = request else {
            return Ok(false);
        };
        let shutdown = request == Request::Shutdown;
        let response = server.handle(request);
        write_frame(&mut writer, &response)?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// A typed client over any frame transport.
#[derive(Debug)]
pub struct TwinClient<R: Read, W: Write> {
    reader: R,
    writer: W,
}

impl<R: Read, W: Write> TwinClient<R, W> {
    /// Wrap a transport's read/write halves.
    pub fn new(reader: R, writer: W) -> Self {
        TwinClient { reader, writer }
    }

    /// One raw round trip.
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        write_frame(&mut self.writer, request)?;
        read_frame(&mut self.reader)?
            .ok_or_else(|| WireError::Io("server closed mid-conversation".into()))
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        let response = self.request(request)?;
        match pick(response) {
            Ok(value) => Ok(value),
            Err(Response::Error { error }) => Err(ClientError::Server(error)),
            Err(other) => Err(ClientError::Wire(WireError::Protocol(format!(
                "unexpected response {other:?}"
            )))),
        }
    }

    /// Spawn a tenant scenario; returns its session id.
    pub fn spawn(&mut self, config: SessionConfig) -> Result<SessionId, ClientError> {
        self.expect(&Request::Spawn { config: Box::new(config) }, |r| match r {
            Response::Spawned { session } => Ok(session),
            other => Err(other),
        })
    }

    /// Advance a tenant to `step`.
    pub fn advance_to(
        &mut self,
        session: SessionId,
        step: u64,
    ) -> Result<SessionStatus, ClientError> {
        self.expect(&Request::AdvanceTo { session, step }, |r| match r {
            Response::Advanced { status, .. } => Ok(status),
            other => Err(other),
        })
    }

    /// Per-cell load at the tenant's current step.
    pub fn query_cells(&mut self, session: SessionId) -> Result<Vec<CellLoadReport>, ClientError> {
        self.expect(&Request::QueryCells { session }, |r| match r {
            Response::Cells { cells, .. } => Ok(cells),
            other => Err(other),
        })
    }

    /// One UE's twin report.
    pub fn query_ue(
        &mut self,
        session: SessionId,
        ue_id: u64,
    ) -> Result<UeTwinReport, ClientError> {
        self.expect(&Request::QueryUe { session, ue_id }, |r| match r {
            Response::Ue { report, .. } => Ok(*report),
            other => Err(other),
        })
    }

    /// Hot-swap the tenant's policy at its current step.
    pub fn swap_policy(
        &mut self,
        session: SessionId,
        policy: PolicyKind,
    ) -> Result<PolicySwap, ClientError> {
        self.expect(&Request::SwapPolicy { session, policy }, |r| match r {
            Response::Swapped { swap, .. } => Ok(swap),
            other => Err(other),
        })
    }

    /// A completed tenant's final result.
    pub fn query_result(&mut self, session: SessionId) -> Result<FleetResult, ClientError> {
        self.expect(&Request::QueryResult { session }, |r| match r {
            Response::Result { result, .. } => Ok(*result),
            other => Err(other),
        })
    }

    /// Seal a tenant into persistable bytes.
    pub fn checkpoint(&mut self, session: SessionId) -> Result<Vec<u8>, ClientError> {
        self.expect(&Request::Checkpoint { session }, |r| match r {
            Response::Checkpointed { bytes, .. } => Ok(bytes),
            other => Err(other),
        })
    }

    /// Rehydrate sealed bytes as a new tenant; returns the new id.
    pub fn hydrate(&mut self, bytes: Vec<u8>) -> Result<SessionId, ClientError> {
        self.expect(&Request::Hydrate { bytes }, |r| match r {
            Response::Hydrated { session } => Ok(session),
            other => Err(other),
        })
    }

    /// Drop a tenant.
    pub fn drop_session(&mut self, session: SessionId) -> Result<(), ClientError> {
        self.expect(&Request::Drop { session }, |r| match r {
            Response::Dropped { .. } => Ok(()),
            other => Err(other),
        })
    }

    /// One tenant's status.
    pub fn status(&mut self, session: SessionId) -> Result<SessionStatus, ClientError> {
        self.expect(&Request::Status { session }, |r| match r {
            Response::Status { status, .. } => Ok(status),
            other => Err(other),
        })
    }

    /// Every tenant's `(id, status)`.
    pub fn list(&mut self) -> Result<Vec<(SessionId, SessionStatus)>, ClientError> {
        self.expect(&Request::List, |r| match r {
            Response::Sessions { sessions } => Ok(sessions),
            other => Err(other),
        })
    }

    /// Ask the server to stop serving this connection.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, |r| match r {
            Response::ShuttingDown => Ok(()),
            other => Err(other),
        })
    }
}

/// A client-side failure: transport, in-protocol server error, or a
/// response/request mismatch.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with an in-protocol error.
    Server(ServerError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(err) => write!(f, "{err}"),
            ClientError::Server(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

/// Shared state of one in-process pipe direction.
#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// The read half of an in-process byte pipe.
#[derive(Debug)]
pub struct PipeReader(Arc<(Mutex<PipeState>, Condvar)>);

/// The write half of an in-process byte pipe. Dropping it closes the
/// pipe (the reader sees end-of-stream once the buffer drains).
#[derive(Debug)]
pub struct PipeWriter(Arc<(Mutex<PipeState>, Condvar)>);

/// An in-process unidirectional byte pipe: what `std::io::pipe` would
/// be, without the OS. Blocking reads, unbounded writes — exactly
/// enough to run the full wire protocol between two threads.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let shared = Arc::new((Mutex::new(PipeState::default()), Condvar::new()));
    (PipeWriter(Arc::clone(&shared)), PipeReader(shared))
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let (lock, cond) = &*self.0;
        let mut state = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = state.buf.pop_front().expect("checked non-empty");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = cond.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let (lock, cond) = &*self.0;
        let mut state = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        state.buf.extend(bytes);
        cond.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let (lock, cond) = &*self.0;
        let mut state = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        state.closed = true;
        cond.notify_all();
    }
}

/// A running in-process server: the client half plus the join handle
/// that returns the [`TwinServer`] on shutdown.
#[derive(Debug)]
pub struct InProcessServer {
    /// The connected client.
    pub client: TwinClient<PipeReader, PipeWriter>,
    thread: std::thread::JoinHandle<TwinServer>,
}

impl InProcessServer {
    /// Send [`Request::Shutdown`], join the server thread and get the
    /// server (with all its sessions) back.
    pub fn shutdown(mut self) -> Result<TwinServer, ClientError> {
        self.client.shutdown()?;
        self.thread
            .join()
            .map_err(|_| ClientError::Wire(WireError::Io("server thread panicked".into())))
    }
}

/// Run a [`TwinServer`] on a background thread, speaking the wire
/// protocol over an in-process pipe pair; returns the connected
/// client. The same [`serve`] loop (and therefore the same protocol
/// behaviour) backs the Unix-socket example binary.
pub fn spawn_in_process(mut server: TwinServer) -> InProcessServer {
    let (client_writer, server_reader) = pipe();
    let (server_writer, client_reader) = pipe();
    let thread = std::thread::spawn(move || {
        let _ = serve(&mut server, server_reader, server_writer);
        server
    });
    InProcessServer { client: TwinClient::new(client_reader, client_writer), thread }
}
