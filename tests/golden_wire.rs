//! Golden wire corpus: one frame of every [`Request`] and [`Response`]
//! variant, pinned byte for byte.
//!
//! The corpus is produced by driving a [`TwinServer`] through a fixed
//! request script (spawn, advance, query, swap, checkpoint, hydrate,
//! drop, status, list, finish, an error and a shutdown), so it holds
//! real payloads — including a mid-run `Checkpointed` whose sealed v4
//! container (XXH64 checksum) holds a v3 session payload (a JSON header,
//! then the binary fleet checkpoint). The suite pins three things:
//! the serialized corpus equals the file, re-serializing the parsed
//! file reproduces it exactly, and every frame survives the
//! length-prefixed codec. The same session sealed in the v3 container
//! (FNV-1a checksum), `session.sealed.v3.bin`, must still hydrate.
//! Refresh after an *intentional* protocol change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_wire
//! ```

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::{
    read_frame, write_frame, Request, Response, Session, SessionConfig, TwinServer,
};
use fuzzy_handover::sim::fleet::{FleetMobility, PolicyKind};
use fuzzy_handover::sim::SimConfig;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One request and the server's answer to it.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WireExchange {
    request: Request,
    response: Response,
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden_wire").join("frames.json")
}

/// The corpus's mid-run checkpoint as a previous build sealed it: a v3
/// container (FNV-1a checksum) around the same session payload.
fn sealed_v3_fixture_path() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden_wire");
    dir.join("session.sealed.v3.bin")
}

fn session_config() -> SessionConfig {
    let mut sim = SimConfig::paper_default();
    sim.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    sim.noise = MeasurementNoise::new(1.0);
    let mobility = FleetMobility::standard_four(6)[0];
    let mut config = SessionConfig::new(sim, mobility, PolicyKind::Fuzzy, 3, 0x3172E);
    config.retry.checkpoint_cadence = 2;
    config
}

/// Drive the script through `TwinServer::handle` and record every
/// exchange. Covers all 12 request and all 13 response variants.
fn exchanges() -> Vec<WireExchange> {
    let mut server = TwinServer::new(2);
    let mut log = Vec::new();
    let mut send = |server: &mut TwinServer, request: Request| {
        let response = server.handle(request.clone());
        log.push(WireExchange { request, response: response.clone() });
        response
    };
    send(&mut server, Request::Spawn { config: Box::new(session_config()) });
    send(&mut server, Request::AdvanceTo { session: 1, step: 3 });
    send(&mut server, Request::QueryCells { session: 1 });
    send(&mut server, Request::QueryUe { session: 1, ue_id: 0 });
    let swap = PolicyKind::Hysteresis { margin_db: 2.5 };
    send(&mut server, Request::SwapPolicy { session: 1, policy: swap });
    let bytes = match send(&mut server, Request::Checkpoint { session: 1 }) {
        Response::Checkpointed { bytes, .. } => bytes,
        other => panic!("checkpoint failed: {other:?}"),
    };
    send(&mut server, Request::Hydrate { bytes });
    send(&mut server, Request::Drop { session: 1 });
    send(&mut server, Request::Status { session: 2 });
    send(&mut server, Request::List);
    send(&mut server, Request::AdvanceTo { session: 2, step: u64::MAX });
    send(&mut server, Request::QueryResult { session: 2 });
    send(&mut server, Request::QueryResult { session: 99 });
    send(&mut server, Request::Shutdown);
    log
}

#[test]
fn wire_corpus_matches_golden_and_reserializes() {
    let fresh_exchanges = exchanges();
    let fresh = serde_json::to_string(&fresh_exchanges).expect("serialize corpus") + "\n";

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create dir");
        std::fs::write(&path, &fresh).expect("write golden");
        println!("refreshed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden file {} ({err}); generate with UPDATE_GOLDEN=1 cargo test --test golden_wire",
            path.display()
        )
    });
    if golden != fresh {
        let at = golden
            .bytes()
            .zip(fresh.bytes())
            .position(|(g, f)| g != f)
            .unwrap_or_else(|| golden.len().min(fresh.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "wire corpus drifted at byte {at}:\n  golden: …{}…\n  fresh : …{}…\n\
             A peer built from an older tree would no longer read these frames.\n\
             If the change is intended, refresh with UPDATE_GOLDEN=1 cargo test --test golden_wire",
            &golden[lo..(at + 60).min(golden.len())],
            &fresh[lo..(at + 60).min(fresh.len())],
        );
    }

    let parsed: Vec<WireExchange> = serde_json::from_str(&golden).expect("parse golden");
    assert_eq!(parsed, fresh_exchanges, "the pinned corpus parses back to the same frames");
    let again = serde_json::to_string(&parsed).expect("re-serialize corpus") + "\n";
    assert!(again == golden, "re-serializing the parsed corpus changed its bytes");
}

#[test]
fn every_corpus_frame_survives_the_codec() {
    for exchange in exchanges() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &exchange.request).expect("encode request");
        write_frame(&mut wire, &exchange.response).expect("encode response");
        let mut frames = wire.as_slice();
        let request: Request = read_frame(&mut frames).expect("decode").expect("frame");
        let response: Response = read_frame(&mut frames).expect("decode").expect("frame");
        assert_eq!(request, exchange.request);
        assert_eq!(response, exchange.response);
        assert!(frames.is_empty());
    }
}

/// The sealed bytes of the corpus's mid-run `Checkpointed` frame.
fn checkpointed_bytes() -> Vec<u8> {
    exchanges()
        .into_iter()
        .find_map(|e| match e.response {
            Response::Checkpointed { bytes, .. } => Some(bytes),
            _ => None,
        })
        .expect("the script checkpoints once")
}

/// The sealed bytes of the mid-run `Checkpointed` frame hold a v3
/// session payload: hydrating them and sealing again reproduces them.
#[test]
fn checkpointed_frame_reseals_to_the_same_bytes() {
    let bytes = checkpointed_bytes();
    let session = Session::hydrate(&bytes, 1).expect("hydrate corpus checkpoint");
    assert!(!session.is_complete(), "the pinned checkpoint is mid-run");
    assert!(session.sealed() == bytes, "hydrate → seal changed the sealed bytes");
}

/// The v3 container a previous build sealed still hydrates, and sealing
/// the hydrated session writes the corpus's v4 bytes: the same payload
/// under a new version and checksum.
#[test]
fn v3_session_fixture_hydrates_and_reseals_as_v4() {
    let fixture = std::fs::read(sealed_v3_fixture_path()).expect("v3 session fixture present");
    assert_eq!(u32::from_le_bytes(fixture[8..12].try_into().expect("4 version bytes")), 3);
    let session = Session::hydrate(&fixture, 1).expect("hydrate the v3 fixture");
    assert!(!session.is_complete(), "the fixture is mid-run");
    let bytes = checkpointed_bytes();
    assert!(session.sealed() == bytes, "resealing the v3 fixture must give the v4 corpus bytes");
}
