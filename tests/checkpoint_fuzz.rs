//! Fuzz-style totality tests for the sealed-container ingest path
//! (PR 10 bugfix sweep): [`FleetCheckpoint::try_unseal`] and
//! [`Session::hydrate`] must be *total* on arbitrary byte strings —
//! every input returns `Ok` or a typed error, never a panic, never an
//! out-of-bounds slice.
//!
//! Three adversaries:
//!
//! 1. pure noise — random bytes of random length (including the empty
//!    string and headers shorter than the 28-byte envelope);
//! 2. truncation — every random prefix of a *valid* sealed container;
//! 3. corruption — a valid sealed container with one byte XOR-flipped
//!    at a random offset (header, length field, checksum or payload).
//!
//! Corruption must additionally be *detected*: a flipped byte yields a
//! typed [`CheckpointError`], never a silently wrong restore. Nesting
//! deeper than the JSON reader's limit is a typed error too, never a
//! stack overflow.

use fuzzy_handover::core::PolicyCheckpoint;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::{Session, SessionConfig};
use fuzzy_handover::sim::checkpoint::{FleetCheckpoint, SEALED_HEADER_LEN};
use fuzzy_handover::sim::fleet::{FleetMobility, FleetSimulation, PolicyKind};
use fuzzy_handover::sim::{seal_payload, CheckpointError, SimConfig};
use proptest::prelude::*;

/// Deterministic byte noise from a drawn seed (the vendored proptest
/// draws scalars; collections are derived).
fn noise_bytes(mut state: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

fn noisy_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

/// A small but real sealed fleet checkpoint (live + finished UEs).
fn sealed_fleet(seed: u64) -> Vec<u8> {
    let cfg = noisy_config();
    let spec = fuzzy_handover::sim::fleet::HomogeneousFleet {
        mobility: FleetMobility::standard_four(6)[0],
        policy: PolicyKind::Fuzzy,
        trajectory_seed: seed,
        cell_radius_km: cfg.layout.cell_radius_km(),
    };
    let ids: Vec<u64> = (0..6).collect();
    FleetSimulation::new(cfg)
        .advance(&spec, None, &ids, seed, 5)
        .expect("valid partial run")
        .seal()
}

/// A small but real sealed session snapshot (config + fleet state).
fn sealed_session(seed: u64) -> Vec<u8> {
    let config = SessionConfig::new(
        noisy_config(),
        FleetMobility::standard_four(6)[0],
        PolicyKind::Fuzzy,
        6,
        seed,
    );
    let mut session = Session::spawn(config, 1).expect("valid config");
    session.advance_to(5).expect("advance");
    session.sealed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adversary 1 — pure noise never panics either ingest path.
    #[test]
    fn arbitrary_bytes_never_panic_ingest(
        seed in 0u64..u64::MAX,
        len in 0usize..256,
    ) {
        // `Ok` on random noise would be astonishing but is not the
        // property under test — totality is.
        let bytes = noise_bytes(seed | 1, len);
        let _ = FleetCheckpoint::try_unseal(&bytes);
        let _ = Session::hydrate(&bytes, 1);
    }

    /// Adversary 1b — noise behind a *plausible* header: the right
    /// magic, arbitrary version/length/checksum words. Exercises the
    /// length-field arithmetic against overflow and truncation.
    #[test]
    fn forged_headers_never_panic_ingest(
        version in 0u32..=u32::MAX,
        declared_len in 0u64..u64::MAX,
        checksum in 0u64..u64::MAX,
        payload_seed in 0u64..u64::MAX,
        payload_len in 0usize..64,
    ) {
        let payload = noise_bytes(payload_seed | 1, payload_len);
        let mut bytes = Vec::with_capacity(SEALED_HEADER_LEN + payload.len());
        bytes.extend_from_slice(b"FZHOCKPT");
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&declared_len.to_le_bytes());
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = FleetCheckpoint::try_unseal(&bytes);
        let _ = Session::hydrate(&bytes, 1);
    }

    /// Adversary 2 — every truncation of a valid container is a typed
    /// error (a strict prefix can never verify: the checksum covers the
    /// full declared payload).
    #[test]
    fn truncated_valid_containers_are_typed_errors(
        seed in 0u64..100,
        frac in 0.0f64..1.0,
    ) {
        let sealed = sealed_fleet(seed);
        let cut = ((sealed.len() as f64) * frac) as usize;
        prop_assume!(cut < sealed.len());
        let err = FleetCheckpoint::try_unseal(&sealed[..cut]);
        prop_assert!(err.is_err(), "a {cut}-byte prefix of {} unsealed", sealed.len());

        let sealed = sealed_session(seed);
        let cut = ((sealed.len() as f64) * frac) as usize;
        let err = Session::hydrate(&sealed[..cut], 1);
        prop_assert!(err.is_err(), "a {cut}-byte prefix of {} hydrated", sealed.len());
    }

    /// Adversary 3 — any single flipped byte of a valid container is
    /// *detected* (typed error, never a silently wrong restore) and
    /// never panics.
    #[test]
    fn single_byte_corruption_is_detected(
        seed in 0u64..100,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut sealed = sealed_session(seed);
        let offset = ((sealed.len() as f64) * offset_frac) as usize % sealed.len();
        sealed[offset] ^= flip;
        let outcome = Session::hydrate(&sealed, 1);
        prop_assert!(
            outcome.is_err(),
            "flipping byte {offset} by {flip:#04x} went undetected"
        );
    }
}

/// `depth` nested `PolicyCheckpoint::Streak` wrappers around `Stateless`.
fn nested_streak(depth: usize) -> String {
    let open = "{\"Streak\":{\"streak\":1,\"inner\":".repeat(depth);
    format!("{open}\"Stateless\"{}", "}}".repeat(depth))
}

/// `PolicyCheckpoint::Streak` is the one recursive type in a checkpoint.
/// A 100 000-deep chain is refused at the reader's nesting limit —
/// read on its own or inside a sealed checkpoint — instead of
/// overflowing the stack; a shallow chain still reads.
#[test]
fn deeply_nested_policy_state_is_a_typed_error() {
    let deep = nested_streak(100_000);
    let err = serde_json::from_str::<PolicyCheckpoint>(&deep).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    assert!(serde_json::from_str::<PolicyCheckpoint>(&nested_streak(20)).is_ok());

    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_fleet/checkpoint.json"
    ))
    .expect("golden checkpoint");
    let hostile = golden.replacen(
        "\"policy\":{\"Fuzzy\":{\"prev_serving_rss\":null}}",
        &format!("\"policy\":{deep}"),
        1,
    );
    assert_ne!(hostile, golden);
    match FleetCheckpoint::try_unseal(&seal_payload(hostile.as_bytes())) {
        Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("nesting"), "{msg}"),
        other => panic!("expected a Malformed error, got {other:?}"),
    }
}
