//! Golden-file regression harness for the fleet checkpoint format.
//!
//! The checkpoint is an on-disk artifact: a snapshot written by one
//! build must resume under a later build (or fail loudly via the
//! version tag). This suite pins the serialized [`FleetCheckpoint`]
//! bytes of a small mid-run snapshot — RNG block positions, shadowing
//! lanes, smoother filters, policy state, traces and tallies — and
//! additionally proves the *pinned* bytes still resume bit-identically
//! to the uninterrupted run. Refresh after an *intentional* format
//! change (and a `CHECKPOINT_VERSION` bump) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_fleet
//! ```

use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::checkpoint::{
    CheckpointError, SEALED_FORMAT_VERSION, SEALED_HEADER_LEN, SEALED_MAGIC,
};
use fuzzy_handover::sim::fleet::{FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind};
use fuzzy_handover::sim::{FleetCheckpoint, SimConfig, TrafficConfig};
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_fleet")
        .join("checkpoint.json")
}

fn sealed_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_fleet")
        .join("checkpoint.sealed.bin")
}

fn engine() -> FleetSimulation {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    FleetSimulation::new(cfg)
        .with_workers(3)
        .with_chunk_size(4)
        .with_traffic(TrafficConfig {
            channels_per_cell: 3,
            guard_channels: 1,
            mean_idle_steps: 5.0,
            mean_holding_steps: 4.0,
            load_feedback: false,
        })
}

fn spec() -> HomogeneousFleet {
    HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 0x601D,
        cell_radius_km: 2.0,
    }
}

const BASE_SEED: u64 = 0xC4EC_4101;
const SNAP_STEP: u64 = 7;
const N_UES: u64 = 12;

#[test]
fn checkpoint_format_matches_golden_and_resumes() {
    let engine = engine();
    let spec = spec();
    let ids: Vec<u64> = (0..N_UES).collect();
    let cp = engine
        .advance(&spec, None, &ids, BASE_SEED, SNAP_STEP)
        .expect("partial run");
    let fresh = serde_json::to_string(&cp).expect("serialize checkpoint") + "\n";

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create dir");
        std::fs::write(&path, &fresh).expect("write golden");
        println!("refreshed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden file {} ({err}); generate with UPDATE_GOLDEN=1 cargo test --test golden_fleet",
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
            "checkpoint format drifted at byte {at}:\n  golden: …{}…\n  fresh : …{}…\n\
             An on-disk snapshot from an older build would no longer restore these\n\
             bytes. If the change is intended, bump CHECKPOINT_VERSION and refresh\n\
             with UPDATE_GOLDEN=1 cargo test --test golden_fleet",
            &golden[lo..(at + 60).min(golden.len())],
            &fresh[lo..(at + 60).min(fresh.len())],
        );
    }

    // The pinned bytes are not just stable — they still resume into the
    // exact uninterrupted result.
    let parsed: FleetCheckpoint = serde_json::from_str(&golden).expect("parse golden");
    let resumed = engine.try_resume(&spec, &parsed).expect("resume golden");
    let full = engine
        .try_run_ids(&spec, &ids, BASE_SEED)
        .expect("fleet run");
    assert_eq!(
        full, resumed,
        "golden checkpoint no longer resumes bit-identically"
    );
}

/// The checksummed sealed container (format v2) is itself a pinned
/// on-disk artifact: magic + version + length + FNV-1a checksum +
/// payload, byte for byte — and the pinned bytes still unseal and
/// resume into the exact uninterrupted result.
#[test]
fn sealed_checkpoint_matches_golden_and_restores() {
    let engine = engine();
    let spec = spec();
    let ids: Vec<u64> = (0..N_UES).collect();
    let cp = engine
        .advance(&spec, None, &ids, BASE_SEED, SNAP_STEP)
        .expect("partial run");
    let fresh = cp.seal();

    let path = sealed_golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create dir");
        std::fs::write(&path, &fresh).expect("write sealed golden");
        println!("refreshed {}", path.display());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|err| {
        panic!(
            "missing sealed golden {} ({err}); generate with UPDATE_GOLDEN=1 cargo test --test golden_fleet",
            path.display()
        )
    });
    if golden != fresh {
        let at = golden
            .iter()
            .zip(&fresh)
            .position(|(g, f)| g != f)
            .unwrap_or_else(|| golden.len().min(fresh.len()));
        panic!(
            "sealed checkpoint container drifted at byte {at} \
             (golden {} bytes, fresh {} bytes). A sealed snapshot written by an \
             older build would no longer restore. If the change is intended, bump \
             SEALED_FORMAT_VERSION and refresh with UPDATE_GOLDEN=1",
            golden.len(),
            fresh.len(),
        );
    }

    // Header invariants are part of the pinned contract.
    assert_eq!(&golden[..8], &SEALED_MAGIC);
    let version = u32::from_le_bytes(golden[8..12].try_into().expect("4 version bytes"));
    assert_eq!(version, SEALED_FORMAT_VERSION);
    let payload_len = u64::from_le_bytes(golden[12..20].try_into().expect("8 length bytes"));
    assert_eq!(golden.len(), SEALED_HEADER_LEN + payload_len as usize);

    // And the pinned container still restores bit-identically.
    let parsed = FleetCheckpoint::try_unseal(&golden).expect("unseal golden");
    let resumed = engine
        .try_resume(&spec, &parsed)
        .expect("resume sealed golden");
    let full = engine
        .try_run_ids(&spec, &ids, BASE_SEED)
        .expect("fleet run");
    assert_eq!(
        full, resumed,
        "sealed golden no longer resumes bit-identically"
    );
}

/// Forward-compatibility gate: the v1 bare-JSON golden — exactly what a
/// pre-seal build wrote to disk — comes back as a *typed*
/// [`CheckpointError::UnsupportedVersion`], never a parse panic and
/// never a silent wrong restore.
#[test]
fn v1_bare_json_golden_yields_typed_unsupported_version() {
    let golden = std::fs::read(golden_path()).expect("v1 JSON golden present");
    match FleetCheckpoint::try_unseal(&golden) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 1, "bare JSON is recognized as the v1 container");
            assert_eq!(supported, SEALED_FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion for v1 bytes, got {other:?}"),
    }
}
