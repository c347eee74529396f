//! The digital-twin service's determinism contract (PR 10):
//!
//! 1. **The headline**: a session driven by an *arbitrary* interleaving
//!    of `advance_to` segmentations, with at least one
//!    checkpoint → drop → hydrate cycle, is bit-identical to the
//!    equivalent batch [`FleetSimulation::try_run_ids`] — every `f64`
//!    included — for any checkpoint cadence and worker shape.
//! 2. Two concurrent tenants on one [`TwinServer`] do not perturb each
//!    other: a tenant interleaved with a busy neighbour produces
//!    exactly the bytes it produces alone.
//! 3. A mid-run policy hot-swap is replay-deterministic: re-driving the
//!    recorded swap log reproduces the session's result bit for bit,
//!    and both equal the manual `advance(old) → try_resume(new)`
//!    chain.
//! 4. The wire protocol round-trips the whole lifecycle: the same
//!    results arrive through the length-prefixed codec as through
//!    direct calls, and a malformed frame answers `BadRequest` without
//!    killing the connection.
//! 5. A snapshot of an older payload version is refused with a typed
//!    error instead of hydrating with its fields silently dropped.
//! 6. Hostile frames — nesting far past the reader's depth limit, or a
//!    megabyte of wrongly typed payload — answer a short `BadRequest`
//!    and the connection keeps serving.
//! 7. What a session's long-lived supervisor keeps between advances
//!    (its failure streak, its engine) never reaches the sealed bytes:
//!    a session driven continuously seals exactly like one sealed and
//!    hydrated after every advance.
//! 8. Population defects are refused at the door: a spawn with an
//!    invalid mobility model or policy, or a swap to an invalid policy,
//!    is a typed config error, and a refused swap leaves the session
//!    running to the never-swapped batch result.

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::{
    read_frame, serve, spawn_in_process, write_frame, Request, Response, ServerError, Session,
    SessionConfig, SessionError, TwinServer, SESSION_SNAPSHOT_VERSION,
};
use fuzzy_handover::sim::fleet::{
    FleetMobility, FleetResult, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::{
    seal_payload, unseal_payload, CheckpointError, SimConfig, TrafficConfig, SEALED_FORMAT_VERSION,
};
use proptest::prelude::*;

/// Shadowing + measurement noise so every per-UE RNG stream is live,
/// plus a traffic plane so the sealed snapshot carries traced state.
fn noisy_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn traffic_plane() -> TrafficConfig {
    TrafficConfig::erlang(8, 1, 0.35, 30.0)
}

fn session_config(n_ues: u64, seed: u64, cadence: u64) -> SessionConfig {
    let sim = noisy_config();
    let mobility = FleetMobility::standard_four(6)[0];
    let mut config = SessionConfig::new(sim, mobility, PolicyKind::Fuzzy, n_ues, seed);
    config.traffic = Some(traffic_plane());
    config.retry.checkpoint_cadence = cadence;
    config
}

/// The engine a [`SessionConfig`] drives, rebuilt by hand — the batch
/// reference never goes through the session layer.
fn batch_engine(config: &SessionConfig, workers: usize) -> FleetSimulation {
    let mut engine = FleetSimulation::new(config.sim.clone())
        .with_workers(workers)
        .with_chunk_size(config.chunk_size)
        .with_candidate_mode(config.candidate_mode);
    if let Some(traffic) = config.traffic {
        engine = engine.with_traffic(traffic);
    }
    engine
}

fn batch_spec(config: &SessionConfig, policy: PolicyKind) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: config.mobility,
        policy,
        trajectory_seed: config.trajectory_seed,
        cell_radius_km: config.cell_radius_km,
    }
}

fn batch_run(config: &SessionConfig, workers: usize) -> FleetResult {
    let ids: Vec<u64> = (0..config.n_ues).collect();
    batch_engine(config, workers)
        .try_run_ids(&batch_spec(config, config.policy), &ids, config.base_seed)
        .expect("batch run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1 — the headline: any segmentation × (≥1) seal/hydrate
    /// cycle × cadence × workers ≡ the batch run, bit for bit.
    #[test]
    fn segmented_session_with_hydrate_cycle_is_bit_identical_to_batch(
        seed in 0u64..1_000,
        n_ues in 4u64..12,
        cadence in 1u64..6,
        workers in 1usize..4,
        n_increments in 1usize..5,
        increment_seed in 0u64..u64::MAX,
        hydrate_after in 0usize..5,
    ) {
        // Derive the segmentation from a drawn seed (the vendored
        // proptest draws scalars; collections are derived).
        let mut state = increment_seed | 1;
        let increments: Vec<u64> = (0..n_increments)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                1 + (state >> 32) % 5
            })
            .collect();
        let config = session_config(n_ues, seed, cadence);
        let batch = batch_run(&config, 2);

        let mut session = Session::spawn(config, workers).unwrap();
        let mut step = 0u64;
        for (i, inc) in increments.iter().enumerate() {
            step += inc;
            session.advance_to(step).unwrap();
            if i == hydrate_after.min(increments.len() - 1) {
                // Persist, drop the live session, rehydrate from bytes.
                let sealed = session.sealed();
                session = Session::hydrate(&sealed, workers).unwrap();
            }
        }
        let result = session.run_to_completion().unwrap().clone();
        prop_assert_eq!(result, batch);
    }

    /// Property 3 — hot-swap replay determinism: the session's swap log
    /// replayed from scratch, and the manual partial/resume chain, all
    /// produce the same bytes.
    #[test]
    fn hot_swap_replay_is_bit_identical(
        seed in 0u64..1_000,
        n_ues in 4u64..10,
        cadence in 1u64..5,
        swap_step in 1u64..10,
        margin_db in 1u32..8,
    ) {
        let config = session_config(n_ues, seed, cadence);
        let new_policy = PolicyKind::Hysteresis { margin_db: f64::from(margin_db) };

        // The original run: advance, swap, finish. (Skip draws where
        // every walk already ended before the swap step — a swap only
        // makes sense mid-run.)
        let mut session = Session::spawn(config.clone(), 2).unwrap();
        session.advance_to(swap_step).unwrap();
        prop_assume!(!session.is_complete());
        let swap = session.swap_policy(new_policy).unwrap();
        let original = session.run_to_completion().unwrap().clone();
        let expected_log = [swap];
        prop_assert_eq!(session.policy_log(), expected_log.as_slice());

        // Replay the recorded log on a fresh session (different worker
        // count and a different segmentation on the tail).
        let mut replay = Session::spawn(config.clone(), 3).unwrap();
        replay.advance_to(swap.step).unwrap();
        replay.swap_policy(swap.policy).unwrap();
        replay.advance_to(swap.step + 1).unwrap();
        let replayed = replay.run_to_completion().unwrap().clone();
        prop_assert_eq!(&replayed, &original);

        // The manual batch chain under the same log.
        let engine = batch_engine(&config, 2);
        let ids: Vec<u64> = (0..config.n_ues).collect();
        let cp = engine
            .advance(&batch_spec(&config, PolicyKind::Fuzzy), None, &ids, seed, swap.step)
            .unwrap();
        let manual = engine.try_resume(&batch_spec(&config, new_policy), &cp).unwrap();
        prop_assert_eq!(&manual, &original);
    }

    /// Property 2 — tenant isolation: a tenant advanced in lockstep
    /// with a busy neighbour on the same server produces exactly the
    /// bytes it produces alone.
    #[test]
    fn concurrent_tenants_do_not_perturb_each_other(
        seed_a in 0u64..500,
        seed_b in 500u64..1_000,
        n_ues in 4u64..10,
        cadence in 1u64..5,
    ) {
        let config_a = session_config(n_ues, seed_a, cadence);
        let mut config_b = session_config(n_ues + 2, seed_b, cadence);
        config_b.policy = PolicyKind::Hysteresis { margin_db: 4.0 };
        let solo_a = batch_run(&config_a, 2);
        let solo_b = batch_run(&config_b, 2);

        let mut server = TwinServer::new(4);
        let a = server.spawn(config_a).unwrap();
        let b = server.spawn(config_b).unwrap();
        // Interleave the tenants' advances, with a seal/hydrate cycle
        // on A while B keeps running.
        server.advance_to(a, 3).unwrap();
        server.advance_to(b, 5).unwrap();
        server.advance_to(a, 7).unwrap();
        let sealed_a = server.checkpoint(a).unwrap();
        server.drop_session(a).unwrap();
        server.advance_to(b, u64::MAX).unwrap();
        let a2 = server.hydrate(&sealed_a).unwrap();
        server.advance_to(a2, u64::MAX).unwrap();

        prop_assert_eq!(server.session(a2).unwrap().result().unwrap(), &solo_a);
        prop_assert_eq!(server.session(b).unwrap().result().unwrap(), &solo_b);
    }
}

/// Property 7 — one session kept alive and one rebuilt from its own
/// sealed bytes after every single-step advance, through a policy swap
/// and a worker change, seal to the same bytes at every step and end
/// on the same result.
#[test]
fn continuous_and_rehydrated_sessions_seal_the_same_bytes() {
    let config = session_config(8, 41, 2);
    let mut workers = 2;
    let mut continuous = Session::spawn(config.clone(), workers).unwrap();
    let mut cycled = Session::spawn(config, workers).unwrap();
    let swap = PolicyKind::Hysteresis { margin_db: 3.0 };
    for step in 1..=1_000u64 {
        if step == 3 {
            continuous.swap_policy(swap).unwrap();
            cycled.swap_policy(swap).unwrap();
        }
        if step == 5 {
            workers = 3;
            continuous.set_workers(workers);
            cycled.set_workers(workers);
        }
        continuous.advance_to(step).unwrap();
        cycled.advance_to(step).unwrap();
        let sealed = cycled.sealed();
        assert_eq!(continuous.sealed(), sealed, "step {step}");
        cycled = Session::hydrate(&sealed, workers).unwrap();
        if continuous.is_complete() {
            break;
        }
    }
    assert!(continuous.is_complete() && cycled.is_complete(), "the run ended");
    assert!(continuous.policy_log().len() == 1, "the swap happened mid-run");
    assert_eq!(continuous.result(), cycled.result());
    assert_eq!(continuous.sealed(), cycled.sealed());
}

/// Property 4 — the full lifecycle through the wire codec equals the
/// batch run, and typed errors travel in-protocol.
#[test]
fn wire_lifecycle_round_trips_and_reports_typed_errors() {
    let config = session_config(8, 42, 3);
    let batch = batch_run(&config, 2);

    let mut remote = spawn_in_process(TwinServer::new(2));
    let client = &mut remote.client;
    let session = client.spawn(config).unwrap();

    // Errors are in-protocol answers, not connection failures.
    let err = client.advance_to(999, 5).unwrap_err();
    assert!(
        matches!(
            err,
            fuzzy_handover::server::ClientError::Server(ServerError::UnknownSession {
                session: 999
            })
        ),
        "{err:?}"
    );

    let status = client.advance_to(session, 4).unwrap();
    assert_eq!(status.step, 4);
    let cells = client.query_cells(session).unwrap();
    let live_total: u64 = cells.iter().map(|c| c.live_ues).sum();
    assert_eq!(live_total, status.live_ues, "live UEs must reconcile across queries");
    let ue = client.query_ue(session, 0).unwrap();
    assert_eq!(ue.ue_id, 0);

    // Seal → drop → hydrate over the wire, then finish.
    let sealed = client.checkpoint(session).unwrap();
    client.drop_session(session).unwrap();
    let revived = client.hydrate(sealed).unwrap();
    let status = client.advance_to(revived, u64::MAX).unwrap();
    assert!(status.complete);
    let result = client.query_result(revived).unwrap();
    assert_eq!(result, batch);

    let listed = client.list().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].0, revived);

    let server = remote.shutdown().unwrap();
    assert_eq!(server.session_count(), 1);
}

/// A malformed frame answers `BadRequest` and the connection stays
/// usable for the next, well-formed request.
#[test]
fn malformed_frame_answers_bad_request_and_keeps_serving() {
    let mut input: Vec<u8> = Vec::new();
    let garbage = b"this is not json";
    input.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
    input.extend_from_slice(garbage);
    write_frame(&mut input, &Request::List).unwrap();
    write_frame(&mut input, &Request::Shutdown).unwrap();

    let mut server = TwinServer::new(1);
    let mut output: Vec<u8> = Vec::new();
    let shutdown = serve(&mut server, input.as_slice(), &mut output).unwrap();
    assert!(shutdown, "the shutdown frame must end the loop");

    let mut frames = output.as_slice();
    let first: Response = read_frame(&mut frames).unwrap().unwrap();
    assert!(
        matches!(first, Response::Error { error: ServerError::BadRequest { .. } }),
        "{first:?}"
    );
    let second: Response = read_frame(&mut frames).unwrap().unwrap();
    assert!(matches!(second, Response::Sessions { ref sessions } if sessions.is_empty()));
    let third: Response = read_frame(&mut frames).unwrap().unwrap();
    assert!(matches!(third, Response::ShuttingDown));
}

/// Property 5 — a version-1 snapshot (whose config still carried the
/// removed `precision` field) is refused, not hydrated at the current
/// precision with the field ignored. The forgery keeps today's v3
/// layout (JSON header, then the binary fleet checkpoint) and rewrites
/// only the header's version and config; a v2 container (the JSON
/// payload of the previous format) is refused at the container header.
#[test]
fn version_one_snapshot_is_refused_with_a_typed_error() {
    assert_eq!(SESSION_SNAPSHOT_VERSION, 3);
    let mut session = Session::spawn(session_config(4, 3, 2), 1).unwrap();
    session.advance_to(2).unwrap();
    let sealed = session.sealed();
    let payload = unseal_payload(&sealed).unwrap();
    let (len, rest) = payload.split_at(8);
    let (header, fleet) = rest.split_at(u64::from_le_bytes(len.try_into().unwrap()) as usize);
    let header = std::str::from_utf8(header).unwrap();
    let current = format!("{{\"version\":{SESSION_SNAPSHOT_VERSION},\"config\":{{");
    assert!(header.starts_with(&current), "{}", &header[..40]);
    let v1 = header.replacen(&current, "{\"version\":1,\"config\":{\"precision\":\"Compact\",", 1);
    let mut forged = (v1.len() as u64).to_le_bytes().to_vec();
    forged.extend_from_slice(v1.as_bytes());
    forged.extend_from_slice(fleet);
    let err = Session::hydrate(&seal_payload(&forged), 1).unwrap_err();
    assert_eq!(
        err,
        SessionError::Corrupt(CheckpointError::UnsupportedVersion { found: 1, supported: 3 })
    );

    let mut v2 = sealed.clone();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        Session::hydrate(&v2, 1).unwrap_err(),
        SessionError::Corrupt(CheckpointError::UnsupportedVersion {
            found: 2,
            supported: SEALED_FORMAT_VERSION
        })
    );
    assert_eq!(Session::hydrate(&sealed, 1).unwrap().step(), 2);
}

/// Serve `frames` (raw payloads, then `List` and `Shutdown`) on a
/// thread with the default 2 MiB stack, and return every response.
fn serve_raw_frames(frames: Vec<Vec<u8>>) -> Vec<Response> {
    let mut input: Vec<u8> = Vec::new();
    for payload in &frames {
        input.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        input.extend_from_slice(payload);
    }
    write_frame(&mut input, &Request::List).unwrap();
    write_frame(&mut input, &Request::Shutdown).unwrap();
    let output = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut server = TwinServer::new(1);
            let mut output: Vec<u8> = Vec::new();
            assert!(serve(&mut server, input.as_slice(), &mut output).unwrap());
            output
        })
        .unwrap()
        .join()
        .expect("serving hostile frames must not crash the thread");
    let mut frames = output.as_slice();
    let mut responses = Vec::new();
    while let Some(response) = read_frame(&mut frames).unwrap() {
        responses.push(response);
    }
    responses
}

/// The `BadRequest` message of `response`, or a panic.
fn bad_request(response: &Response) -> &str {
    match response {
        Response::Error { error: ServerError::BadRequest { message } } => message,
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

/// Check the responses after the hostile frames: `List` and `Shutdown`
/// are still answered.
fn assert_still_serving(responses: &[Response]) {
    assert!(
        matches!(&responses[0], Response::Sessions { sessions } if sessions.is_empty()),
        "{:?}",
        responses[0]
    );
    assert!(matches!(responses[1], Response::ShuttingDown));
}

/// Property 6a — 100 000 nested `[` and a `Spawn` whose config is a
/// 100 000-deep `PolicyCheckpoint::Streak` chain each answer
/// `BadRequest` instead of overflowing the serving thread's stack.
#[test]
fn deeply_nested_frames_answer_bad_request_and_keep_serving() {
    let brackets = vec![b'['; 100_000];
    let depth = 100_000;
    let mut streak = String::from("{\"Spawn\":{\"config\":");
    streak.push_str(&"{\"Streak\":{\"streak\":1,\"inner\":".repeat(depth));
    streak.push_str("\"Stateless\"");
    streak.push_str(&"}}".repeat(depth));
    streak.push_str("}}");

    let responses = serve_raw_frames(vec![brackets, streak.into_bytes()]);
    assert_eq!(responses.len(), 4);
    bad_request(&responses[0]);
    let message = bad_request(&responses[1]);
    assert!(message.contains("nesting"), "{message}");
    assert_still_serving(&responses[2..]);
}

/// Property 6b — a 1.3 MB `Spawn` frame whose config is a number array
/// gets an error naming the offset and the token, not an echo of the
/// payload.
#[test]
fn wrongly_typed_megabyte_frame_gets_a_short_error() {
    let mut frame = String::from("{\"Spawn\":{\"config\":[");
    frame.push_str(&vec!["255"; 320_000].join(","));
    frame.push_str("]}}");
    assert!(frame.len() > 1_200_000);

    let responses = serve_raw_frames(vec![frame.into_bytes()]);
    assert_eq!(responses.len(), 3);
    let message = bad_request(&responses[0]);
    assert!(message.len() <= 1024, "{} byte error message", message.len());
    assert!(message.contains("at byte 19"), "{message}");
    assert_still_serving(&responses[1..]);
}

/// Property 8: each population defect is a typed config error at spawn
/// (not a run of worker panics the supervisor retries until it gives
/// up), and a refused swap changes nothing.
#[test]
fn population_defects_are_refused_at_the_door() {
    use fuzzy_handover::mobility::RandomWalk;
    use fuzzy_handover::sim::resilience::ConfigError;

    let hysteresis = PolicyKind::Hysteresis { margin_db: -1.0 };
    let load = PolicyKind::LoadHysteresis { margin_db: 1.0, load_bias_db: -1.0 };
    let no_walks = FleetMobility::RandomWalk(RandomWalk::paper_default(0));
    let huge_steps = FleetMobility::RandomWalk(RandomWalk {
        step_mean_km: 1e308,
        step_std_km: 0.0,
        ..RandomWalk::paper_default(10)
    });
    let base = session_config(12, 5, 4);
    for config in [
        SessionConfig { policy: hysteresis, ..base.clone() },
        SessionConfig { policy: load, ..base.clone() },
        SessionConfig { mobility: no_walks, ..base.clone() },
        SessionConfig { mobility: huge_steps, ..base.clone() },
        SessionConfig { cell_radius_km: f64::NAN, ..base.clone() },
    ] {
        match Session::spawn(config.clone(), 1) {
            Err(SessionError::InvalidConfig(_)) => {}
            other => panic!("{:?}: expected a config error, got {:?}", config.policy, other.err()),
        }
    }

    let mut session = Session::spawn(base.clone(), 1).expect("valid config");
    session.advance_to(3).expect("advance");
    let refused = session.swap_policy(PolicyKind::Hysteresis { margin_db: -3.0 });
    assert_eq!(
        refused,
        Err(SessionError::InvalidConfig(ConfigError::Negative {
            field: "hysteresis margin",
            value: -3.0
        }))
    );
    assert!(session.policy_log().is_empty());
    assert_eq!(session.policy(), PolicyKind::Fuzzy);
    let result = session.run_to_completion().expect("the session still runs").clone();
    assert_eq!(result, batch_run(&base, 1));
}
