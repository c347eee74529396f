//! Digital-twin service overhead: the incremental session layer
//! (supervised cadence-sized segments, seal/hydrate persistence, the
//! length-prefixed wire codec) against the raw batch fleet engine it
//! wraps. The determinism contract says the *bytes* are identical —
//! these benches pin what the service costs in time.

use criterion::{criterion_group, criterion_main, Criterion};
use handover_server::{
    read_frame, write_frame, Request, Session, SessionConfig, TwinServer,
};
use handover_sim::fleet::{
    FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use handover_sim::SimConfig;
use mobility::RandomWalk;
use radiolink::{MeasurementNoise, ShadowingConfig};
use std::hint::black_box;

const UES: u64 = 500;

fn bench_config() -> SessionConfig {
    let mut sim = SimConfig::paper_default();
    sim.shadowing = ShadowingConfig::moderate();
    sim.noise = MeasurementNoise::new(1.0);
    let mobility = FleetMobility::RandomWalk(RandomWalk::paper_default(6));
    let mut config = SessionConfig::new(sim, mobility, PolicyKind::Fuzzy, UES, 21);
    config.retry.checkpoint_cadence = 8;
    config
}

/// The batch baseline vs the same scenario driven through the session
/// layer in supervised segments.
fn bench_session_vs_batch(c: &mut Criterion) {
    let config = bench_config();
    let engine = FleetSimulation::new(config.sim.clone())
        .with_workers(4)
        .with_chunk_size(config.chunk_size)
        .with_candidate_mode(config.candidate_mode);
    let spec = HomogeneousFleet {
        mobility: config.mobility,
        policy: config.policy,
        trajectory_seed: config.trajectory_seed,
        cell_radius_km: config.cell_radius_km,
    };
    let ids: Vec<u64> = (0..UES).collect();

    let batch = engine
        .try_run_ids(&spec, &ids, config.base_seed)
        .expect("fleet run");
    let mut session = Session::spawn(config.clone(), 4).expect("valid config");
    let incremental = session.run_to_completion().expect("session completes");
    assert_eq!(incremental, &batch, "the service must not change the bytes");

    let mut g = c.benchmark_group("server");
    g.sample_size(10);
    g.bench_function("batch_500_ues", |b| {
        b.iter(|| {
            black_box(
                engine
                    .try_run_ids(&spec, &ids, config.base_seed)
                    .expect("fleet run"),
            )
        })
    });
    g.bench_function("session_segments_500_ues", |b| {
        b.iter(|| {
            let mut session = Session::spawn(config.clone(), 4).expect("valid config");
            let mut step = 0;
            while !session.is_complete() {
                step += 8;
                session.advance_to(step).expect("advance");
            }
            black_box(session.status())
        })
    });
    g.finish();
}

/// Persistence: seal a mid-run session and rehydrate it.
fn bench_seal_hydrate(c: &mut Criterion) {
    let mut session = Session::spawn(bench_config(), 4).expect("valid config");
    session.advance_to(5).expect("advance");
    let sealed = session.sealed();
    assert!(Session::hydrate(&sealed, 4).is_ok(), "sealed bytes must hydrate");

    let mut g = c.benchmark_group("server");
    g.sample_size(10);
    g.bench_function("seal_midrun_500_ues", |b| b.iter(|| black_box(session.sealed())));
    g.bench_function("hydrate_midrun_500_ues", |b| {
        b.iter(|| black_box(Session::hydrate(&sealed, 4).expect("hydrate")))
    });
    g.finish();
}

/// The wire codec on a fat frame: a `Hydrate` request carrying a whole
/// sealed mid-run session.
fn bench_wire_codec(c: &mut Criterion) {
    let mut session = Session::spawn(bench_config(), 4).expect("valid config");
    session.advance_to(5).expect("advance");
    let request = Request::Hydrate { bytes: session.sealed() };

    let mut encoded: Vec<u8> = Vec::new();
    write_frame(&mut encoded, &request).expect("encode");
    let decoded: Request =
        read_frame(&mut encoded.as_slice()).expect("decode").expect("one frame");
    assert_eq!(decoded, request, "codec must round-trip");

    let mut g = c.benchmark_group("server");
    g.bench_function("wire_frame_round_trip", |b| {
        b.iter(|| {
            let mut buf: Vec<u8> = Vec::new();
            write_frame(&mut buf, &request).expect("encode");
            let back: Option<Request> = read_frame(&mut buf.as_slice()).expect("decode");
            black_box(back)
        })
    });
    g.finish();
}

/// Multi-tenant dispatch: two interleaved tenants through the
/// [`TwinServer`] request path.
fn bench_two_tenants(c: &mut Criterion) {
    let config = bench_config();
    let mut small = config.clone();
    small.n_ues = 100;

    let mut g = c.benchmark_group("server");
    g.sample_size(10);
    g.bench_function("two_tenants_interleaved", |b| {
        b.iter(|| {
            let mut server = TwinServer::new(4);
            let a = server.spawn(small.clone()).expect("spawn a");
            let b2 = server.spawn(small.clone()).expect("spawn b");
            let mut step = 0;
            loop {
                step += 8;
                let sa = server.advance_to(a, step).expect("advance a");
                let sb = server.advance_to(b2, step).expect("advance b");
                if sa.complete && sb.complete {
                    break;
                }
            }
            black_box(server.session_count())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_session_vs_batch,
    bench_seal_hydrate,
    bench_wire_codec,
    bench_two_tenants
);
criterion_main!(benches);
