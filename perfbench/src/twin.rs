//! The `twin_session_loop` workload: one client, one connection, one
//! tenant driven step by step through the twin server's wire protocol.
//!
//! Per step: `AdvanceTo(step + 1)`, `QueryCells`, `QueryUe`. Every
//! [`CHECKPOINT_EVERY`] steps: `Checkpoint`, `Hydrate` (a second
//! tenant), `Status` and `Drop` of that tenant. One `SwapPolicy` to
//! hysteresis at [`Sizes::twin_swap_step`], and `QueryResult` once the
//! tenant completes.

use crate::adapter;
use crate::fleet::{compile_flc, SetupSampler, SETUP_PER_PASS};
use crate::layers::{self, Population};
use crate::probe::{median, ms, percentile, CpuInstant};
use crate::report::{Run, KINDS};
use crate::traced::TracedSpec;
use crate::workloads::{self as wl, Digest, Sizes};
use handover_server::{InProcessServer, Request, Response, SessionConfig, TwinServer};
use handover_sim::fleet::{FleetResult, PolicyKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// Round trips per kind of the pipe hand-off measurement.
const HANDOFF_TRIPS: usize = 21;

/// Checkpoint/hydrate cadence of the loop, in steps.
pub const CHECKPOINT_EVERY: u64 = 10;

/// The request kinds the latencies are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Advance,
    Query,
    Checkpoint,
    Hydrate,
    Other,
}

impl Kind {
    fn of(request: &Request) -> Kind {
        match request {
            Request::AdvanceTo { .. } => Kind::Advance,
            Request::QueryCells { .. } | Request::QueryUe { .. } => Kind::Query,
            Request::Checkpoint { .. } => Kind::Checkpoint,
            Request::Hydrate { .. } => Kind::Hydrate,
            _ => Kind::Other,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Advance => KINDS[0],
            Kind::Query => KINDS[1],
            Kind::Checkpoint => KINDS[2],
            Kind::Hydrate => KINDS[3],
            Kind::Other => "other",
        }
    }
}

/// Something that answers one request: the threaded server over the
/// wire, or a traced in-process replay of it.
trait Endpoint {
    fn call(&mut self, request: Request) -> Result<Response, String>;
}

/// The real client over the in-process pipe, timing each round trip on
/// the wall clock, and each advance also on the process CPU clock
/// (client and server threads together).
struct Wire<'a> {
    server: &'a mut InProcessServer,
    latencies: &'a mut BTreeMap<Kind, Vec<f64>>,
    advance_cpu_ms: &'a mut Vec<f64>,
}

impl Endpoint for Wire<'_> {
    fn call(&mut self, request: Request) -> Result<Response, String> {
        let kind = Kind::of(&request);
        let t = Instant::now();
        let cpu = CpuInstant::now();
        let response = adapter::request(self.server, &request);
        let cpu = cpu.elapsed();
        let elapsed = t.elapsed();
        self.latencies.entry(kind).or_default().push(ms(elapsed));
        if kind == Kind::Advance {
            self.advance_cpu_ms.push(ms(cpu));
        }
        response
    }
}

/// The same protocol replayed in-process with spans around the codec
/// and the dispatcher: encode and decode of both frames, and
/// `TwinServer::handle`.
struct Replayed {
    server: TwinServer,
    encode_ms: BTreeMap<Kind, Vec<f64>>,
    decode_ms: BTreeMap<Kind, Vec<f64>>,
    handle_ms: BTreeMap<Kind, Vec<f64>>,
    request_bytes: BTreeMap<Kind, Vec<f64>>,
    response_bytes: BTreeMap<Kind, Vec<f64>>,
}

impl Endpoint for Replayed {
    fn call(&mut self, request: Request) -> Result<Response, String> {
        let kind = Kind::of(&request);
        let t = Instant::now();
        let req_frame = adapter::encode(&request)?;
        let enc_req = t.elapsed();
        let t = Instant::now();
        let decoded: Request = adapter::decode(&req_frame)?;
        let dec_req = t.elapsed();
        let t = Instant::now();
        let response = adapter::handle(&mut self.server, decoded);
        let handled = t.elapsed();
        let t = Instant::now();
        let resp_frame = adapter::encode(&response)?;
        let enc_resp = t.elapsed();
        let t = Instant::now();
        let response: Response = adapter::decode(&resp_frame)?;
        let dec_resp = t.elapsed();
        self.encode_ms
            .entry(kind)
            .or_default()
            .push(ms(enc_req + enc_resp));
        self.decode_ms
            .entry(kind)
            .or_default()
            .push(ms(dec_req + dec_resp));
        self.handle_ms.entry(kind).or_default().push(ms(handled));
        self.request_bytes
            .entry(kind)
            .or_default()
            .push(req_frame.len() as f64);
        self.response_bytes
            .entry(kind)
            .or_default()
            .push(resp_frame.len() as f64);
        match response {
            Response::Error { error } => Err(error.to_string()),
            other => Ok(other),
        }
    }
}

/// What one tenant's life produced.
struct SessionOutcome {
    result: FleetResult,
    first_snapshot_bytes: usize,
}

fn unexpected(what: &str, response: &Response) -> String {
    format!("expected {what}, got {response:?}")
}

/// Drive one tenant from spawn to its final result.
fn drive(
    endpoint: &mut dyn Endpoint,
    config: &SessionConfig,
    sizes: &Sizes,
    run: &mut Run,
) -> Result<SessionOutcome, String> {
    let mut ok = 0u64;
    let session = match endpoint.call(Request::Spawn {
        config: Box::new(config.clone()),
    })? {
        Response::Spawned { session } => session,
        other => return Err(unexpected("Spawned", &other)),
    };
    let mut step = 0u64;
    let mut first_snapshot_bytes = 0;
    // A walk ends long before this; the bound only stops a runaway loop.
    let max_steps = 20 * sizes.twin_walks as u64 + 100;
    loop {
        step += 1;
        let complete = match endpoint.call(Request::AdvanceTo { session, step })? {
            Response::Advanced { status, .. } => status.complete,
            other => return Err(unexpected("Advanced", &other)),
        };
        endpoint.call(Request::QueryCells { session })?;
        let ue_id = step % config.n_ues;
        match endpoint.call(Request::QueryUe { session, ue_id })? {
            Response::Ue { report, .. } if report.ue_id == ue_id => {}
            other => return Err(unexpected("Ue", &other)),
        }
        ok += 3;
        if complete {
            break;
        }
        if step == sizes.twin_swap_step {
            endpoint.call(Request::SwapPolicy {
                session,
                policy: wl::TWIN_SWAP_POLICY,
            })?;
            ok += 1;
        }
        if step % CHECKPOINT_EVERY == 0 {
            let bytes = match endpoint.call(Request::Checkpoint { session })? {
                Response::Checkpointed { bytes, .. } => bytes,
                other => return Err(unexpected("Checkpointed", &other)),
            };
            if first_snapshot_bytes == 0 {
                first_snapshot_bytes = bytes.len();
            }
            let copy = match endpoint.call(Request::Hydrate { bytes })? {
                Response::Hydrated { session } => session,
                other => return Err(unexpected("Hydrated", &other)),
            };
            match endpoint.call(Request::Status { session: copy })? {
                Response::Status { status, .. } if status.step == step => {}
                other => return Err(unexpected("Status at the checkpoint step", &other)),
            }
            endpoint.call(Request::Drop { session: copy })?;
            ok += 4;
        }
        if step >= max_steps {
            return Err(format!("tenant still live after {step} steps"));
        }
    }
    let result = match endpoint.call(Request::QueryResult { session })? {
        Response::Result { result, .. } => *result,
        other => return Err(unexpected("Result", &other)),
    };
    endpoint.call(Request::Drop { session })?;
    run.succeeded(ok + 3);
    Ok(SessionOutcome {
        result,
        first_snapshot_bytes,
    })
}

/// The batch equivalent of the loop's tenant: the same population run
/// to the swap step under the fuzzy policy, then finished under the
/// swapped-in policy.
fn reference(config: &SessionConfig, sizes: &Sizes) -> Result<FleetResult, String> {
    let engine = adapter::session_engine(config, 1);
    let ids: Vec<u64> = (0..config.n_ues).collect();
    adapter::batch_with_swap(
        &engine,
        &adapter::session_spec(config, config.policy),
        &adapter::session_spec(config, wl::TWIN_SWAP_POLICY),
        &ids,
        config.base_seed,
        sizes.twin_swap_step,
    )
}

/// Check a tenant's final result against the batch reference, bit for
/// bit on the HD sums.
fn check_result(run: &mut Run, got: &FleetResult, want: &FleetResult) {
    let same = got == want
        && got
            .outcomes
            .iter()
            .zip(&want.outcomes)
            .all(|(a, b)| a.hd_sum.to_bits() == b.hd_sum.to_bits())
        && Digest::of(&got.summary) == Digest::of(&want.summary);
    run.check(same, || {
        format!(
            "twin result {:?} != batch reference {:?}",
            got.summary, want.summary
        )
    });
    run.check(got.traffic.is_some(), || {
        "twin result lacks its traffic report".into()
    });
}

/// What the tenants of one connection produced.
struct LoopOutcome {
    /// Round-trip wall latencies by request kind, ms.
    latencies: BTreeMap<Kind, Vec<f64>>,
    /// Process CPU time of each `AdvanceTo` round trip, ms.
    advance_cpu_ms: Vec<f64>,
    /// The first tenant's outcome.
    first: SessionOutcome,
    /// UE-steps advanced over all tenants.
    steps: u64,
}

/// Run tenants on one connection until the time is up and enough
/// advances were made, calling `between` after each tenant. With
/// `warm_up`, the first tenant's timings are dropped: it fills the
/// allocator and caches, and its result is still checked.
fn session_loop(
    run: &mut Run,
    config: &SessionConfig,
    sizes: &Sizes,
    seconds: f64,
    warm_up: bool,
    between: &mut dyn FnMut(),
) -> Option<LoopOutcome> {
    let mut server = adapter::spawn_server();
    let mut latencies: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut advance_cpu_ms = Vec::new();
    let mut first: Option<SessionOutcome> = None;
    let mut steps = 0u64;
    let start = Instant::now();
    while advance_cpu_ms.len() < sizes.twin_min_advances || start.elapsed().as_secs_f64() < seconds
    {
        let mut wire = Wire {
            server: &mut server,
            latencies: &mut latencies,
            advance_cpu_ms: &mut advance_cpu_ms,
        };
        let outcome = drive(&mut wire, config, sizes, run);
        let Some(outcome) = run.op(outcome) else {
            break;
        };
        steps += outcome.result.summary.steps;
        match &first {
            None if warm_up => {
                latencies.clear();
                advance_cpu_ms.clear();
                steps = 0;
                first = Some(outcome);
            }
            None => first = Some(outcome),
            Some(f) => run.check(f.result == outcome.result, || {
                "tenants of one run produced different results".into()
            }),
        }
        between();
    }
    run.op(adapter::stop_server(server));
    first.map(|first| LoopOutcome {
        latencies,
        advance_cpu_ms,
        first,
        steps,
    })
}

/// The untraced run.
pub fn timed(run: &mut Run, sizes: &Sizes, seed: u64, seconds: f64) {
    let config = wl::twin_config(sizes, seed);
    let mut setup_ok = true;
    let mut setup = SetupSampler::new(|| {
        compile_flc();
        let mut server = adapter::spawn_server();
        let spawned = adapter::request(
            &mut server,
            &Request::Spawn {
                config: Box::new(config.clone()),
            },
        );
        setup_ok &= spawned.is_ok() && adapter::stop_server(server).is_ok();
    });
    let looped = session_loop(run, &config, sizes, seconds, true, &mut || {
        setup.sample(SETUP_PER_PASS)
    });
    setup.record(run);
    drop(setup);
    run.check(setup_ok, || "set-up could not spawn the tenant".into());
    let Some(LoopOutcome {
        latencies,
        advance_cpu_ms: advance,
        first,
        steps,
    }) = looped
    else {
        return;
    };
    if let Some(want) = run.op(reference(&config, sizes)) {
        check_result(run, &first.result, &want);
    }
    run.check(advance.len() >= sizes.twin_min_advances, || {
        format!("only {} advances", advance.len())
    });
    let advance_cpu_s: f64 = advance.iter().sum::<f64>() / 1e3;
    run.metric("ue_steps_per_cpu_s", steps as f64 / advance_cpu_s / 1e6);
    run.metric("advance_cpu_p50_ms", median(&advance));
    run.samples("advance_cpu_p50_ms", advance.len());
    run.samples("ue_steps_per_cpu_s", advance.len());
    let wall = latencies.get(&Kind::Advance).cloned().unwrap_or_default();
    run.note("advance_wall_p50_ms", median(&wall));
    run.note("twin.snapshot_bytes", first.first_snapshot_bytes);
    run.note(
        "twin.digest",
        format!("{:?}", Digest::of(&first.result.summary)),
    );
}

/// The traced run: latencies of the real loop, the traced replay of the
/// same requests, the session and checkpoint layers driven directly, the
/// traffic replay, and the engine half shared with the fleet workload.
pub fn traced(run: &mut Run, sizes: &Sizes, seed: u64) {
    let config = wl::twin_config(sizes, seed);

    // The real loop: one tenant over the threaded server.
    let Some(LoopOutcome {
        latencies, first, ..
    }) = session_loop(run, &config, sizes, 0.0, false, &mut || {})
    else {
        return;
    };
    let lat = |k: Kind| latencies.get(&k).cloned().unwrap_or_default();
    run.metric("twin.advance_p90_ms", percentile(&lat(Kind::Advance), 90.0));
    run.metric("twin.query_p50_ms", median(&lat(Kind::Query)));
    run.metric("twin.query_p95_ms", percentile(&lat(Kind::Query), 95.0));
    run.metric("twin.checkpoint_p50_ms", median(&lat(Kind::Checkpoint)));
    run.metric("twin.hydrate_p50_ms", median(&lat(Kind::Hydrate)));
    run.metric("twin.snapshot_bytes", first.first_snapshot_bytes as f64);
    for k in [Kind::Advance, Kind::Query, Kind::Checkpoint, Kind::Hydrate] {
        run.samples(&format!("twin.latency.{}", k.name()), lat(k).len());
    }
    layers::statistics(run, &first.result.summary);

    // The same requests, replayed in-process with codec and dispatch spans.
    let mut replayed = Replayed {
        server: TwinServer::new(1),
        encode_ms: BTreeMap::new(),
        decode_ms: BTreeMap::new(),
        handle_ms: BTreeMap::new(),
        request_bytes: BTreeMap::new(),
        response_bytes: BTreeMap::new(),
    };
    let outcome = drive(&mut replayed, &config, sizes, run);
    if let Some(outcome) = run.op(outcome) {
        run.check(outcome.result == first.result, || {
            "replayed tenant diverged".into()
        });
    }
    for k in [Kind::Advance, Kind::Query, Kind::Checkpoint, Kind::Hydrate] {
        let med = |m: &BTreeMap<Kind, Vec<f64>>| median(m.get(&k).map_or(&[][..], |v| &v[..]));
        let (enc, dec, handle) = (
            med(&replayed.encode_ms),
            med(&replayed.decode_ms),
            med(&replayed.handle_ms),
        );
        run.metric(&format!("server.handle_us.{}", k.name()), handle * 1e3);
        run.metric(&format!("wire.encode_ms.{}", k.name()), enc);
        run.metric(&format!("wire.decode_ms.{}", k.name()), dec);
        let (req, resp) = (med(&replayed.request_bytes), med(&replayed.response_bytes));
        run.metric(&format!("wire.frame_bytes.{}", k.name()), req + resp);
        let handoff = run.op(adapter::pipe_round_trip(
            req as usize,
            resp as usize,
            HANDOFF_TRIPS,
        ));
        run.metric(
            &format!("wire.handoff_ms.{}", k.name()),
            handoff.map_or(0.0, |t| median(&t)),
        );
    }

    session_layers(run, &config, sizes);
    traffic_layer(run, &config);

    // The engine half: the tenant's population (spawn policy, no traffic
    // plane: outcomes are identical without load feedback).
    let pop = Population {
        cfg: config.sim.clone(),
        spec: adapter::session_spec(&config, config.policy),
        seed: config.base_seed,
        candidate: config.candidate_mode,
        chunk_size: config.chunk_size,
        n_ues: config.n_ues,
    };
    let engine = pop.engine();
    let ids: Vec<u64> = (0..pop.n_ues).collect();
    let t = Instant::now();
    let untraced = run.op(adapter::run_ids(&engine, &pop.spec, &ids, pop.seed));
    let untraced_s = t.elapsed().as_secs_f64();
    let spec = TracedSpec::new(&pop.spec);
    let t = Instant::now();
    let traced = run.op(adapter::run_ids(&engine, &spec, &ids, pop.seed));
    let traced_s = t.elapsed().as_secs_f64();
    if let (Some(u), Some(t)) = (untraced, traced) {
        run.check(u == t, || "traced engine run diverged".into());
    }
    run.metric("trace.overhead", traced_s / untraced_s);
    layers::callback_metrics(run, spec.spans());
    layers::replay_metrics(run, &[pop], sizes.replay_ues);
}

/// The session and checkpoint layers, driven directly along the loop's
/// step sequence.
fn session_layers(run: &mut Run, config: &SessionConfig, sizes: &Sizes) {
    let mut builds = Vec::new();
    for _ in 0..51 {
        let t = Instant::now();
        std::hint::black_box(adapter::session_engine(config, 1));
        builds.push(ms(t.elapsed()));
    }
    run.metric("session.engine_build_ms", median(&builds));

    let Some(mut session) = run.op(adapter::session_spawn(config)) else {
        return;
    };
    let mut advance_ms = Vec::new();
    let (mut sealed_ms, mut hydrate_ms, mut seal_ms, mut unseal_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sealed_bytes = 0usize;
    let mut step = 0u64;
    loop {
        step += 1;
        let t = Instant::now();
        let Some(complete) = run.op(adapter::session_advance(&mut session, step)) else {
            return;
        };
        advance_ms.push(ms(t.elapsed()));
        if complete || step > 20 * sizes.twin_walks as u64 + 100 {
            break;
        }
        if step == sizes.twin_swap_step {
            run.op(session
                .swap_policy(wl::TWIN_SWAP_POLICY)
                .map_err(|e| e.to_string()));
        }
        if step % CHECKPOINT_EVERY == 0 {
            let t = Instant::now();
            let bytes = adapter::session_sealed(&session);
            sealed_ms.push(ms(t.elapsed()));
            let t = Instant::now();
            let copy = run.op(adapter::session_hydrate(&bytes));
            hydrate_ms.push(ms(t.elapsed()));
            run.check(copy.is_some_and(|c| c.step() == step), || {
                "hydrated step differs".into()
            });
            if let Some(cp) = session.checkpoint() {
                let t = Instant::now();
                let sealed = adapter::seal(cp);
                seal_ms.push(ms(t.elapsed()));
                sealed_bytes = sealed_bytes.max(sealed.len());
                let t = Instant::now();
                let back = run.op(adapter::unseal(&sealed));
                unseal_ms.push(ms(t.elapsed()));
                run.check(back.as_ref() == Some(cp), || {
                    "unsealed checkpoint differs".into()
                });
            }
        }
    }
    let report = session.report();
    let advances = advance_ms.len().max(1) as f64;
    run.metric("session.advance_ms", median(&advance_ms));
    run.metric(
        "session.segments_per_advance",
        report.segments as f64 / advances,
    );
    run.metric(
        "session.snapshots_per_advance",
        report.snapshots_taken as f64 / advances,
    );
    run.metric("session.sealed_ms", median(&sealed_ms));
    run.metric("session.hydrate_ms", median(&hydrate_ms));
    run.metric("checkpoint.seal_ms", median(&seal_ms));
    run.metric("checkpoint.unseal_ms", median(&unseal_ms));
    run.metric("checkpoint.sealed_bytes", sealed_bytes as f64);
    run.samples("session.advance_ms", advance_ms.len());
    run.samples("session.sealed_ms", sealed_ms.len());
}

/// The traffic replay of the finished tenant (what the completing
/// advance runs).
fn traffic_layer(run: &mut Run, config: &SessionConfig) {
    let Some(traffic) = config.traffic else {
        return;
    };
    let engine = adapter::session_engine(config, 1);
    let ids: Vec<u64> = (0..config.n_ues).collect();
    let spec = adapter::session_spec(config, PolicyKind::Fuzzy);
    let Some(cp) = run.op(adapter::run_partial(
        &engine,
        &spec,
        &ids,
        config.base_seed,
        u64::MAX,
    )) else {
        return;
    };
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(adapter::replay_traffic(
                &traffic,
                &config.sim,
                &cp,
                config.base_seed,
            ));
            ms(t.elapsed())
        })
        .collect();
    run.metric("traffic.replay_ms", median(&times));
}
