//! `handover-serverd`: the digital-twin service over a Unix socket.
//!
//! Speaks the same length-prefixed wire codec as the in-process
//! transport (`fuzzy_handover::server::wire`), so every protocol
//! behaviour pinned by the server test suite carries over unchanged.
//!
//! Two modes:
//!
//! * default — bind `--socket PATH` and serve connections until a
//!   client sends `Shutdown`;
//! * `--demo` — self-driving CI smoke: start the daemon, connect over
//!   the socket, and drive a full tenant lifecycle (spawn → advance →
//!   query cells/UE → policy hot-swap → checkpoint → drop → hydrate →
//!   run to completion), then assert the served result is
//!   **bit-identical** to the equivalent in-process batch
//!   `advance` → `try_resume` chain.
//!
//! Flags: `--socket PATH` (default under the temp dir), `--workers N`
//! (default 4), `--ues N` (default 24), `--walks N` (default 6),
//! `--seed N` (default 11), `--demo`. Malformed input never panics: a
//! bad flag prints the typed error plus the usage line and exits with
//! status 2; runtime failures exit with status 1.

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::cli::{has_flag, parse_flag, ArgError};
use fuzzy_handover::server::{serve, SessionConfig, TwinClient, TwinServer};
use fuzzy_handover::sim::fleet::{
    FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::{SimConfig, TrafficConfig};
use std::error::Error;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

const USAGE: &str = "usage: handover_serverd [--socket PATH] [--workers N] [--demo] \
[--ues N] [--walks N] [--seed N]";

struct Opts {
    socket: PathBuf,
    workers: usize,
    demo: bool,
    ues: u64,
    walks: usize,
    seed: u64,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, ArgError> {
        let default_socket = std::env::temp_dir()
            .join(format!("handover-serverd-{}.sock", std::process::id()));
        let socket = parse_flag(
            args,
            "--socket",
            default_socket.to_string_lossy().into_owned(),
        )?;
        Ok(Opts {
            socket: PathBuf::from(socket),
            workers: parse_flag(args, "--workers", 4)?,
            demo: has_flag(args, "--demo"),
            ues: parse_flag(args, "--ues", 24)?,
            walks: parse_flag(args, "--walks", 6)?,
            seed: parse_flag(args, "--seed", 11)?,
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("handover_serverd: {err}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if opts.demo { demo(&opts) } else { listen(&opts) };
    let _ = std::fs::remove_file(&opts.socket);
    if let Err(err) = outcome {
        eprintln!("handover_serverd: {err}");
        std::process::exit(1);
    }
}

/// Bind the socket and serve connections one at a time until a client
/// sends `Shutdown`. One server thread, many tenants: the parallelism
/// lives inside each advance (the fleet worker pool).
fn serve_connections(listener: UnixListener, workers: usize) -> Result<(), std::io::Error> {
    let mut server = TwinServer::new(workers);
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = stream.try_clone()?;
        match serve(&mut server, reader, stream) {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(err) => eprintln!("handover_serverd: connection ended: {err}"),
        }
    }
    Ok(())
}

fn bind(opts: &Opts) -> Result<UnixListener, Box<dyn Error>> {
    let _ = std::fs::remove_file(&opts.socket);
    Ok(UnixListener::bind(&opts.socket)?)
}

fn listen(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let listener = bind(opts)?;
    println!("handover_serverd: listening on {}", opts.socket.display());
    Ok(serve_connections(listener, opts.workers)?)
}

/// The demo scenario bundle: the paper's measurement plane with
/// moderate shadowing and measurement noise, a traffic plane, and a
/// short supervision cadence so even a small run crosses several
/// segment boundaries.
fn demo_config(opts: &Opts) -> (SessionConfig, TrafficConfig) {
    let mut sim = SimConfig::paper_default();
    sim.shadowing = ShadowingConfig::moderate();
    sim.noise = MeasurementNoise::new(1.0);
    let traffic = TrafficConfig::erlang(8, 1, 0.35, 30.0);
    let mobility = FleetMobility::RandomWalk(
        fuzzy_handover::mobility::RandomWalk::paper_default(opts.walks),
    );
    let mut config =
        SessionConfig::new(sim, mobility, PolicyKind::Fuzzy, opts.ues, opts.seed);
    config.traffic = Some(traffic);
    config.retry.checkpoint_cadence = 4;
    (config, traffic)
}

fn demo(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let listener = bind(opts)?;
    let workers = opts.workers;
    let daemon = std::thread::spawn(move || serve_connections(listener, workers));

    let stream = UnixStream::connect(&opts.socket)?;
    let mut client = TwinClient::new(stream.try_clone()?, stream);
    let (config, _traffic) = demo_config(opts);

    // Full tenant lifecycle over the socket.
    let session = client.spawn(config.clone())?;
    let status = client.advance_to(session, 6)?;
    println!(
        "demo: session {session} at step {} ({} live / {} finished)",
        status.step, status.live_ues, status.finished_ues
    );
    let cells = client.query_cells(session)?;
    let live_total: u64 = cells.iter().map(|c| c.live_ues).sum();
    println!("demo: {} cells report {live_total} live UEs", cells.len());
    let ue = client.query_ue(session, 0)?;
    println!(
        "demo: UE 0 is {:?} at step {} serving {:?}",
        ue.phase, ue.steps, ue.serving_cell
    );

    let swap = client.swap_policy(session, PolicyKind::Hysteresis { margin_db: 4.0 })?;
    println!("demo: hot-swapped to {:?} at step {}", swap.policy, swap.step);

    // Persist → drop → rehydrate as a new tenant, then finish.
    let sealed = client.checkpoint(session)?;
    let sealed_len = sealed.len();
    client.drop_session(session)?;
    let revived = client.hydrate(sealed)?;
    println!("demo: rehydrated {sealed_len} sealed bytes as session {revived}");
    let status = client.advance_to(revived, u64::MAX)?;
    assert!(status.complete, "demo session did not run to completion");
    let served = client.query_result(revived)?;
    client.shutdown()?;
    daemon
        .join()
        .map_err(|_| "daemon thread panicked")??;

    // The batch equivalent of the swap log: run the fuzzy spec to the
    // swap step, then resume under hysteresis. Bit-identical or bust.
    let (config, traffic) = demo_config(opts);
    let engine = FleetSimulation::new(config.sim.clone())
        .with_workers(opts.workers)
        .with_chunk_size(config.chunk_size)
        .with_candidate_mode(config.candidate_mode)
        .with_traffic(traffic);
    let ids: Vec<u64> = (0..opts.ues).collect();
    let spec = |policy| HomogeneousFleet {
        mobility: config.mobility,
        policy,
        trajectory_seed: config.trajectory_seed,
        cell_radius_km: config.cell_radius_km,
    };
    let cp = engine.advance(&spec(PolicyKind::Fuzzy), None, &ids, opts.seed, swap.step)?;
    let batch = engine.try_resume(&spec(PolicyKind::Hysteresis { margin_db: 4.0 }), &cp)?;
    assert_eq!(
        served, batch,
        "served lifecycle result differs from the batch advance→try_resume chain"
    );
    println!(
        "demo: served result is bit-identical to the batch chain \
         ({} UEs, {} handovers, mean HD {:.6})",
        served.summary.ues,
        served.summary.handovers,
        served.summary.mean_hd().unwrap_or(f64::NAN)
    );
    Ok(())
}
