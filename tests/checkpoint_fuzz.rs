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
//! typed [`CheckpointError`], never a silently wrong restore.
//!
//! Behind a *valid* checksum the binary payload decoder is the only guard,
//! so it gets its own adversaries: random payload bytes, every
//! truncation of a real payload, element counts near `u64::MAX`, and a
//! 100 000-deep `PolicyCheckpoint::Streak` chain. Each must be a typed
//! [`CheckpointError`] — no panic, no stack overflow, and no allocation
//! out of proportion to the input (a counting allocator records the
//! largest single allocation of the decoding thread). The same
//! allocator pins `read_frame`: a wire header declaring
//! [`MAX_FRAME_LEN`] costs only the bytes that actually arrive.

use fuzzy_handover::core::PolicyCheckpoint;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::geometry::CellLayout;
use fuzzy_handover::server::{
    read_frame, write_frame, Request, Session, SessionConfig, SessionError, WireError,
    MAX_FRAME_LEN,
};
use fuzzy_handover::sim::checkpoint::{
    fnv1a64, FleetCheckpoint, FNV_FORMAT_VERSION, SEALED_HEADER_LEN,
};
use fuzzy_handover::sim::fleet::{FleetError, FleetMobility, FleetSimulation, PolicyKind};
use fuzzy_handover::sim::resilience::{RetryPolicy, Supervisor, SupervisorReport};
use fuzzy_handover::sim::{seal_payload, unseal_payload, CheckpointError, SimConfig};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, recording the largest single allocation a thread makes
/// while it measures (other test threads cannot disturb the figure).
struct PeakAllocator;

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Run `f` and return its value with the largest allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    MEASURING.with(|m| m.set(true));
    let value = f();
    MEASURING.with(|m| m.set(false));
    (value, LARGEST.with(Cell::get))
}

/// Unseal `sealed` as both a fleet checkpoint and a session, and check
/// that both fail with a typed error while allocating at most a fixed
/// multiple of the input (one byte of payload decodes to at most one
/// 40-byte smoother) plus a small constant.
fn assert_refused_within_budget(sealed: &[u8], case: &str) {
    let budget = 64 * sealed.len() + 64 * 1024;
    let (fleet, largest) = largest_allocation(|| FleetCheckpoint::try_unseal(sealed));
    assert!(fleet.is_err(), "{case}: fleet checkpoint accepted");
    assert!(largest <= budget, "{case}: fleet decode allocated {largest} bytes");
    let (session, largest) = largest_allocation(|| Session::hydrate(sealed, 1));
    assert!(session.is_err(), "{case}: session accepted");
    assert!(largest <= budget, "{case}: session decode allocated {largest} bytes");
}

/// The binary payload inside a sealed container.
fn payload_of(sealed: &[u8]) -> Vec<u8> {
    unseal_payload(sealed).expect("a valid sealed container").to_vec()
}

/// `sealed` re-headed as a v3 container: version 3 and the FNV-1a
/// checksum of the same payload, as a previous build wrote it.
fn as_v3(sealed: &[u8]) -> Vec<u8> {
    let mut v3 = sealed.to_vec();
    let checksum = fnv1a64(&sealed[SEALED_HEADER_LEN..]);
    v3[8..12].copy_from_slice(&FNV_FORMAT_VERSION.to_le_bytes());
    v3[20..SEALED_HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    v3
}

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

    /// Adversary 3 — any single flipped byte of a valid container, v4
    /// or the still-readable v3, is *detected* (typed error, never a
    /// silently wrong restore) and never panics.
    #[test]
    fn single_byte_corruption_is_detected(
        seed in 0u64..100,
        offset_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let v4 = sealed_session(seed);
        for (format, mut sealed) in [("v3", as_v3(&v4)), ("v4", v4)] {
            prop_assert!(Session::hydrate(&sealed, 1).is_ok(), "the clean {format} container");
            let offset = ((sealed.len() as f64) * offset_frac) as usize % sealed.len();
            sealed[offset] ^= flip;
            let outcome = Session::hydrate(&sealed, 1);
            prop_assert!(
                outcome.is_err(),
                "{format}: flipping byte {offset} by {flip:#04x} went undetected"
            );
        }
    }

    /// Adversary 4 — random payload bytes behind a *valid* checksum: the
    /// container verifies, so the binary payload decoder alone must refuse them.
    /// Half the cases start with the real inner version word, so the
    /// decoder reads on into noisy counts and tags.
    #[test]
    fn noise_behind_a_valid_checksum_is_a_typed_error(
        seed in 0u64..u64::MAX,
        len in 0usize..4096,
        versioned in 0u8..2,
    ) {
        let mut payload = noise_bytes(seed | 1, len);
        if versioned == 1 && payload.len() >= 4 {
            payload[..4].copy_from_slice(&1u32.to_le_bytes());
        }
        assert_refused_within_budget(&seal_payload(&payload), &format!("{len} noise bytes"));
    }

    /// Adversary 5 — a real payload with one 8-byte word overwritten by a
    /// value near `u64::MAX` and re-sealed. Wherever the word lands (a
    /// count, a length, a float, a tag), decoding never panics and never
    /// allocates for the declared count.
    #[test]
    fn huge_words_anywhere_never_panic_or_overallocate(
        seed in 0u64..20,
        offset_frac in 0.0f64..1.0,
        below_max in 0u64..4,
    ) {
        let mut payload = payload_of(&sealed_fleet(seed));
        let at = ((payload.len() - 8) as f64 * offset_frac) as usize;
        payload[at..at + 8].copy_from_slice(&(u64::MAX - below_max).to_le_bytes());
        let sealed = seal_payload(&payload);
        let budget = 64 * sealed.len() + 64 * 1024;
        let (_, largest) = largest_allocation(|| FleetCheckpoint::try_unseal(&sealed));
        prop_assert!(largest <= budget, "word at {at}: {largest} bytes allocated");
    }
}

/// Adversary 6 — every truncation of a real binary payload, re-sealed so the
/// checksum is valid, is a typed error for both the fleet checkpoint and
/// the session payload.
#[test]
fn every_truncated_payload_is_a_typed_error() {
    for (what, sealed) in [("fleet", sealed_fleet(3)), ("session", sealed_session(3))] {
        let payload = payload_of(&sealed);
        for cut in 0..payload.len() {
            assert_refused_within_budget(
                &seal_payload(&payload[..cut]),
                &format!("{what} cut {cut}"),
            );
        }
    }
}

/// Adversary 7 — the sequence counts of a real payload replaced by
/// counts near `u64::MAX`: refused as malformed before any allocation.
#[test]
fn counts_near_u64_max_are_refused_before_allocation() {
    let payload = payload_of(&sealed_fleet(5));
    // version (4) + step (8) + base seed (8): the finished-UE count.
    let finished_count = 20;
    for count in [u64::MAX, u64::MAX - 1, u64::MAX / 2, 1 << 40, payload.len() as u64] {
        let mut bad = payload.clone();
        bad[finished_count..finished_count + 8].copy_from_slice(&count.to_le_bytes());
        let sealed = seal_payload(&bad);
        match FleetCheckpoint::try_unseal(&sealed) {
            Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("count"), "{msg}"),
            other => panic!("count {count}: expected Malformed, got {other:?}"),
        }
        assert_refused_within_budget(&sealed, &format!("count {count}"));
    }
}

/// `depth` nested `PolicyCheckpoint::Streak` wrappers around `Stateless`.
fn nested_streak(depth: usize) -> String {
    let open = "{\"Streak\":{\"streak\":1,\"inner\":".repeat(depth);
    format!("{open}\"Stateless\"{}", "}}".repeat(depth))
}

/// `PolicyCheckpoint::Streak` is the one recursive type in a checkpoint.
/// A 100 000-deep chain is refused at the nesting limit — read as JSON
/// on its own, or as a live UE's policy inside a sealed binary payload —
/// instead of overflowing the stack; a shallow chain still reads.
#[test]
fn deeply_nested_policy_state_is_a_typed_error() {
    let deep = nested_streak(100_000);
    let err = serde_json::from_str::<PolicyCheckpoint>(&deep).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    assert!(serde_json::from_str::<PolicyCheckpoint>(&nested_streak(20)).is_ok());

    // Give one live UE a recognisable policy, then splice the chain in
    // its place: tag 3 + a u64 streak per level, then tag 0 (Stateless).
    let mut cp = FleetCheckpoint::try_unseal(&sealed_fleet(9)).expect("valid checkpoint");
    let marker = 0x5EED_57EA_u64;
    cp.live[0].policy = PolicyCheckpoint::Step { step: marker };
    let mut payload = Vec::new();
    cp.write_payload(&mut payload);
    let mut needle = vec![2u8];
    needle.extend_from_slice(&marker.to_le_bytes());
    let at = payload
        .windows(needle.len())
        .position(|w| w == needle.as_slice())
        .expect("the marked policy is in the payload");
    let level = [3u8, 1, 0, 0, 0, 0, 0, 0, 0];
    let chain: Vec<u8> =
        level.iter().copied().cycle().take(level.len() * 100_000).chain([0u8]).collect();
    payload.splice(at..at + needle.len(), chain);
    let sealed = seal_payload(&payload);
    match FleetCheckpoint::try_unseal(&sealed) {
        Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("nesting"), "{msg}"),
        other => panic!("expected a Malformed error, got {other:?}"),
    }
    assert_refused_within_budget(&sealed, "100 000-deep streak");
}

/// A v2 container (the JSON payload of the previous format) is refused
/// at the container header with a typed version error, for both ingest
/// paths.
#[test]
fn v2_containers_are_refused_with_a_typed_error() {
    for sealed in [sealed_fleet(1), sealed_session(1)] {
        let mut v2 = sealed.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = FleetCheckpoint::try_unseal(&v2).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion { found: 2, supported: 4 });
        assert!(Session::hydrate(&v2, 1).is_err());
    }
}

/// A session snapshot of `config` whose fleet checkpoint is replaced by
/// `cp`, resealed with a valid checksum (as a wire peer could send it).
fn forged_session(config: SessionConfig, cp: &FleetCheckpoint) -> Vec<u8> {
    let mut session = Session::spawn(config, 1).expect("valid config");
    session.advance_to(1).expect("advance");
    let payload = payload_of(&session.sealed());
    let header_len = u64::from_le_bytes(payload[..8].try_into().expect("length word"));
    let mut forged = payload[..8 + header_len as usize].to_vec();
    forged.push(1);
    cp.write_payload(&mut forged);
    seal_payload(&forged)
}

/// A snapshot taken on the paper's 2-ring layout, handed to a 1-ring
/// engine, is a typed error on every resume entry, never a panic (in a
/// worker, in the merge of an all-finished snapshot, or on the server
/// thread) — both with live UEs and with every UE finished.
#[test]
fn foreign_layout_checkpoints_are_typed_errors() {
    let two_ring = noisy_config();
    let mut one_ring = noisy_config();
    one_ring.layout = CellLayout::hexagonal(two_ring.layout.cell_radius_km(), 1);
    let mobility = FleetMobility::standard_four(6)[0];
    let spec = fuzzy_handover::sim::fleet::HomogeneousFleet {
        mobility,
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 3,
        cell_radius_km: two_ring.layout.cell_radius_km(),
    };
    let ids: Vec<u64> = (0..6).collect();
    let source = FleetSimulation::new(two_ring);
    let live = source.advance(&spec, None, &ids, 3, 2).expect("valid partial run");
    let finished = source.advance(&spec, None, &ids, 3, u64::MAX).expect("valid full run");
    assert!(!live.live.is_empty() && finished.live.is_empty());
    let corrupt = |result: Result<(), FleetError>, case: &str| match result {
        Err(FleetError::CorruptCheckpoint(CheckpointError::ShapeMismatch(_))) => {}
        other => panic!("{case}: expected a shape mismatch, got {other:?}"),
    };
    let engine = FleetSimulation::new(one_ring.clone()).with_workers(2);
    for cp in [&live, &finished] {
        corrupt(engine.advance(&spec, Some(cp.clone()), &ids, 3, 4).map(drop), "advance");
        corrupt(engine.try_resume(&spec, cp).map(drop), "try_resume");
        let (policy, report) = (RetryPolicy::default(), SupervisorReport::default());
        let sup = Supervisor::resume(engine.clone(), policy, Some(cp.clone()), report);
        corrupt(sup.map(drop), "Supervisor::resume");
        let config = SessionConfig::new(one_ring.clone(), mobility, PolicyKind::Fuzzy, 6, 3);
        match Session::hydrate(&forged_session(config, cp), 1) {
            Err(SessionError::Corrupt(CheckpointError::ShapeMismatch(_))) => {}
            other => panic!("Session::hydrate: expected a shape mismatch, got {:?}", other.err()),
        }
    }
}

/// A snapshot at lockstep step `u64::MAX` that still holds live UEs is
/// a typed corrupt-snapshot error on every resume entry: `u64::MAX` is
/// the bound that runs a fleet to completion, so resuming one would
/// silently drop its live UEs or overflow the lockstep counter. So is
/// finishing one that reaches that step with UEs still live.
#[test]
fn final_step_snapshots_with_live_ues_are_typed_errors() {
    let cfg = noisy_config();
    let mobility = FleetMobility::standard_four(6)[0];
    let spec = fuzzy_handover::sim::fleet::HomogeneousFleet {
        mobility,
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 3,
        cell_radius_km: cfg.layout.cell_radius_km(),
    };
    let ids: Vec<u64> = (0..6).collect();
    let engine = FleetSimulation::new(cfg.clone());
    let mut cp = engine.advance(&spec, None, &ids, 3, 2).expect("valid partial run");
    assert!(!cp.live.is_empty());
    cp.step = u64::MAX;
    let corrupt = |result: Result<(), FleetError>, case: &str| match result {
        Err(FleetError::CorruptCheckpoint(CheckpointError::ShapeMismatch(_))) => {}
        other => panic!("{case}: expected a shape mismatch, got {other:?}"),
    };
    corrupt(engine.try_resume(&spec, &cp).map(drop), "try_resume");
    // One step short of the final bound, the UEs are still live when
    // they reach it.
    let short = FleetCheckpoint { step: u64::MAX - 1, ..cp.clone() };
    corrupt(engine.try_resume(&spec, &short).map(drop), "try_resume one step short");
    for bound in [4, u64::MAX] {
        corrupt(engine.advance(&spec, Some(cp.clone()), &ids, 3, bound).map(drop), "advance");
    }
    let (policy, report) = (RetryPolicy::default(), SupervisorReport::default());
    let sup = Supervisor::resume(engine.clone(), policy, Some(cp.clone()), report);
    corrupt(sup.map(drop), "Supervisor::resume");
    let config = SessionConfig::new(cfg, mobility, PolicyKind::Fuzzy, 6, 3);
    match Session::hydrate(&forged_session(config, &cp), 1) {
        Err(SessionError::Corrupt(CheckpointError::ShapeMismatch(_))) => {}
        other => panic!("Session::hydrate: expected a shape mismatch, got {:?}", other.err()),
    }
}

/// A frame header declaring `MAX_FRAME_LEN`, then `sent` payload bytes
/// and end of stream.
fn short_frame(sent: usize) -> Vec<u8> {
    let mut input = MAX_FRAME_LEN.to_le_bytes().to_vec();
    input.resize(4 + sent, b' ');
    input
}

/// `read_frame` grows its buffer with the bytes that arrive: a header
/// declaring `MAX_FRAME_LEN` (256 MiB) then end of stream is a typed
/// `WireError::Io` that allocates almost nothing, and a truncated frame
/// allocates in proportion to what was received.
#[test]
fn read_frame_allocates_only_what_arrives() {
    for sent in [0, 1, 4096, 100_000] {
        let input = short_frame(sent);
        let (result, largest) =
            largest_allocation(|| read_frame::<_, Request>(&mut input.as_slice()));
        match result {
            Err(WireError::Io(msg)) => assert!(msg.contains(&format!("{sent} bytes")), "{msg}"),
            other => panic!("{sent} of {MAX_FRAME_LEN} bytes: {other:?}"),
        }
        assert!(largest <= 2 * sent + 1024, "{sent} bytes received, {largest} allocated");
    }
    let mut input = Vec::new();
    write_frame(&mut input, &Request::List).unwrap();
    let mut reader = input.as_slice();
    assert_eq!(read_frame::<_, Request>(&mut reader).unwrap(), Some(Request::List));
    assert_eq!(read_frame::<_, Request>(&mut reader).unwrap(), None);
}
