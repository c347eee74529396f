//! The one module through which the benchmark calls the engine and the
//! twin service.
//!
//! Every fleet run, checkpoint operation and wire round trip the benchmark makes goes through a function here, so a
//! change to the engine's run surface (collapsing the `FleetSimulation`
//! entry points, deleting a precision mode) is a one-place edit in the
//! benchmark. Only [`FleetPrecision::Full`] is ever requested.

use handover_core::FleetSummary;
use handover_server::{
    pipe, read_frame, spawn_in_process, write_frame, InProcessServer, Request, Response, Session,
    SessionConfig, TwinServer,
};
use handover_sim::fleet::{
    CandidateMode, FleetPrecision, FleetResult, FleetSimulation, HomogeneousFleet, UeOutcome,
    UeSpec,
};
use handover_sim::{FleetCheckpoint, SimConfig, TrafficConfig};
use std::io::{Read, Write};
use std::time::Instant;

/// A fleet engine on `cfg` with the given worker count and candidate
/// mode, at full precision and the default chunk size.
pub fn fleet_engine(cfg: &SimConfig, workers: usize, candidate: CandidateMode) -> FleetSimulation {
    FleetSimulation::new(cfg.clone())
        .with_workers(workers)
        .with_candidate_mode(candidate)
        .with_precision(FleetPrecision::Full)
}

/// The engine a twin session builds on every advance: the session's
/// simulation, chunk size, candidate mode and traffic plane.
pub fn session_engine(config: &SessionConfig, workers: usize) -> FleetSimulation {
    let mut engine = FleetSimulation::new(config.sim.clone())
        .with_workers(workers)
        .with_chunk_size(config.chunk_size)
        .with_candidate_mode(config.candidate_mode)
        .with_precision(FleetPrecision::Full);
    if let Some(traffic) = config.traffic {
        engine = engine.with_traffic(traffic);
    }
    engine
}

/// The population a twin session runs, under `policy_now`.
pub fn session_spec(
    config: &SessionConfig,
    policy_now: handover_sim::fleet::PolicyKind,
) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: config.mobility,
        policy: policy_now,
        trajectory_seed: config.trajectory_seed,
        cell_radius_km: config.cell_radius_km,
    }
}

/// Memory-bounded run of UEs `0..n_ues` (`FleetSimulation::run_streamed`).
pub fn run_streamed(
    engine: &FleetSimulation,
    spec: &dyn UeSpec,
    n_ues: u64,
    seed: u64,
) -> Result<FleetSummary, String> {
    engine
        .run_streamed(spec, n_ues, seed)
        .map(|s| s.summary)
        .map_err(|e| e.to_string())
}

/// Run an explicit UE id set to completion, keeping per-UE outcomes.
pub fn run_ids(
    engine: &FleetSimulation,
    spec: &dyn UeSpec,
    ids: &[u64],
    seed: u64,
) -> Result<FleetResult, String> {
    engine
        .try_run_ids(spec, ids, seed)
        .map_err(|e| e.to_string())
}

/// Per-UE outcomes of an explicit id set, ascending by id.
pub fn run_outcomes(
    engine: &FleetSimulation,
    spec: &dyn UeSpec,
    ids: &[u64],
    seed: u64,
) -> Result<Vec<UeOutcome>, String> {
    run_ids(engine, spec, ids, seed).map(|r| r.outcomes)
}

/// Freeze a run after `step` lockstep steps (a bound past every walk's
/// end finishes every UE and keeps their traces).
pub fn run_partial(
    engine: &FleetSimulation,
    spec: &dyn UeSpec,
    ids: &[u64],
    seed: u64,
    step: u64,
) -> Result<FleetCheckpoint, String> {
    engine
        .advance(spec, None, ids, seed, step)
        .map_err(|e| e.to_string())
}

/// The batch equivalent of a twin session with one policy swap: run
/// `ids` under `before` up to `swap_step`, then finish under `after`.
pub fn batch_with_swap(
    engine: &FleetSimulation,
    before: &dyn UeSpec,
    after: &dyn UeSpec,
    ids: &[u64],
    seed: u64,
    swap_step: u64,
) -> Result<FleetResult, String> {
    let cp = run_partial(engine, before, ids, seed, swap_step)?;
    engine.try_resume(after, &cp).map_err(|e| e.to_string())
}

/// Seal a fleet checkpoint into its checksummed container.
pub fn seal(cp: &FleetCheckpoint) -> Vec<u8> {
    cp.seal()
}

/// Verify and decode a sealed fleet checkpoint.
pub fn unseal(bytes: &[u8]) -> Result<FleetCheckpoint, String> {
    FleetCheckpoint::try_unseal(bytes).map_err(|e| e.to_string())
}

/// Replay a finished run's serving-cell traces against the traffic
/// plane's channel capacities.
pub fn replay_traffic(
    traffic: &TrafficConfig,
    cfg: &SimConfig,
    cp: &FleetCheckpoint,
    seed: u64,
) -> handover_core::TrafficReport {
    handover_sim::traffic::replay_traffic(traffic, cfg.layout.cells(), &cp.finished_traces, seed).0
}

/// A twin session driven directly (no server, no wire).
pub fn session_spawn(config: &SessionConfig) -> Result<Session, String> {
    Session::spawn(config.clone(), 1).map_err(|e| e.to_string())
}

/// Advance a directly driven session to `step`.
pub fn session_advance(session: &mut Session, step: u64) -> Result<bool, String> {
    session
        .advance_to(step)
        .map(|s| s.complete)
        .map_err(|e| e.to_string())
}

/// Seal a directly driven session.
pub fn session_sealed(session: &Session) -> Vec<u8> {
    session.sealed()
}

/// Rehydrate a sealed session.
pub fn session_hydrate(bytes: &[u8]) -> Result<Session, String> {
    Session::hydrate(bytes, 1).map_err(|e| e.to_string())
}

/// A twin server with a one-worker budget on its own thread, connected
/// to one client over the in-process pipe.
pub fn spawn_server() -> InProcessServer {
    spawn_in_process(TwinServer::new(1))
}

/// Stop a server spawned by [`spawn_server`] and join its thread.
pub fn stop_server(server: InProcessServer) -> Result<(), String> {
    server.shutdown().map(|_| ()).map_err(|e| e.to_string())
}

/// One wire round trip. An error response or a transport failure is an
/// `Err`.
pub fn request(server: &mut InProcessServer, request: &Request) -> Result<Response, String> {
    match server.client.request(request) {
        Ok(Response::Error { error }) => Err(error.to_string()),
        Ok(response) => Ok(response),
        Err(err) => Err(err.to_string()),
    }
}

/// A server driven in-process without a thread: dispatch one request.
pub fn handle(server: &mut TwinServer, request: Request) -> Response {
    server.handle(request)
}

/// Encode one message as a wire frame.
pub fn encode<T: serde::Serialize>(msg: &T) -> Result<Vec<u8>, String> {
    let mut frame = Vec::new();
    write_frame(&mut frame, msg).map_err(|e| e.to_string())?;
    Ok(frame)
}

/// Decode one wire frame.
pub fn decode<T: serde::Deserialize>(frame: &[u8]) -> Result<T, String> {
    let mut reader = frame;
    read_frame(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame".to_string())
}

/// The transport's share of a round trip: `trips` times, write a
/// `request_len`-byte frame into the in-process pipe, let a second
/// thread read it whole and answer with `response_len` bytes, and read
/// those back. Returns each round trip's milliseconds.
pub fn pipe_round_trip(
    request_len: usize,
    response_len: usize,
    trips: usize,
) -> Result<Vec<f64>, String> {
    let (mut to_echo, mut echo_in) = pipe();
    let (mut echo_out, mut from_echo) = pipe();
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let mut request = vec![0u8; request_len];
        let response = vec![1u8; response_len];
        for _ in 0..trips {
            echo_in.read_exact(&mut request)?;
            echo_out.write_all(&response)?;
        }
        Ok(())
    });
    let request = vec![2u8; request_len];
    let mut response = vec![0u8; response_len];
    let mut times = Vec::with_capacity(trips);
    let mut failure = None;
    for _ in 0..trips {
        let t = Instant::now();
        let trip = to_echo
            .write_all(&request)
            .and_then(|()| from_echo.read_exact(&mut response));
        if let Err(err) = trip {
            failure = Some(err.to_string());
            break;
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(to_echo);
    let joined = echo
        .join()
        .map_err(|_| "pipe echo thread panicked".to_string())?;
    match (failure, joined) {
        (Some(err), _) => Err(err),
        (None, Err(err)) => Err(err.to_string()),
        (None, Ok(())) => Ok(times),
    }
}
