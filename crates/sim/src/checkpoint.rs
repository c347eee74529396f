//! Compact fleet snapshots: freeze a mid-run fleet pass and resume it
//! later, bit-identically.
//!
//! A [`FleetCheckpoint`] captures everything a fleet pass needs to
//! continue exactly where it stopped: the outcomes (and traffic traces)
//! of UEs that already finished, and for every still-live UE its engine
//! state (serving cell, shadowing lane, smoother filters, the exact
//! mid-block position of its ChaCha RNG stream), its policy state, and
//! its running tallies. Trajectories are *not* stored — they are
//! deterministic functions of the [`UeSpec`](crate::fleet::UeSpec), so
//! resume regenerates them and fast-forwards the resample cursor.
//!
//! On disk a snapshot is a sealed container ([`FleetCheckpoint::seal`]):
//! a header with an XXH64 payload checksum around a fixed-layout
//! little-endian binary payload ([`FleetCheckpoint::write_payload`]).
//! The serde form is kept for the JSON goldens and the wire protocol.
//!
//! The contract, pinned by `tests/fleet_props.rs` and the
//! `tests/golden_fleet/` golden: for any step bound `k`,
//! [`FleetSimulation::advance`](crate::fleet::FleetSimulation::advance)
//! to step `k` followed by
//! [`FleetSimulation::try_resume`](crate::fleet::FleetSimulation::try_resume)
//! produces the same [`FleetResult`](crate::fleet::FleetResult) — every
//! `f64` bit included — as the uninterrupted run, for any worker count
//! and chunk size on either side of the snapshot.

use crate::engine::SimConfig;
use crate::fleet::UeOutcome;
use crate::traffic::UeTrace;
use handover_core::{CellLoadHistogram, EventLog, PolicyCheckpoint};
use radiolink::{RssiSmoother, ShadowingLaneState};
use rand::rngs::{StdRng, StdRngState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version tag written into every [`FleetCheckpoint`]; bump on layout
/// changes so stale snapshots fail loudly instead of misresuming.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Magic prefix of the sealed (checksummed) snapshot container —
/// distinguishes sealed bytes from the v1 bare-JSON form at the first
/// byte (JSON starts with `{`).
pub const SEALED_MAGIC: [u8; 8] = *b"FZHOCKPT";

/// Version of the sealed *container* format (the inner
/// [`CHECKPOINT_VERSION`] versions the payload layout independently).
/// v1 is the historical bare-JSON form with no header; v2 adds the
/// magic + length + FNV-1a checksum header around a JSON payload; v3
/// keeps that header and makes the payload fixed-layout little-endian
/// binary; v4 keeps both and checksums the payload with [`xxh64`]
/// instead of [`fnv1a64`]. Sealing always writes v4. v3 bytes still
/// unseal (verified with FNV-1a); v1 and v2 bytes are refused with
/// [`CheckpointError::UnsupportedVersion`].
pub const SEALED_FORMAT_VERSION: u32 = 4;

/// The last container version checksummed with [`fnv1a64`]; its bytes
/// still unseal.
pub const FNV_FORMAT_VERSION: u32 = 3;

/// Sealed header layout: magic (8) + container version (u32 LE) +
/// payload length (u64 LE) + 64-bit payload checksum (u64 LE; XXH64 in
/// v4, FNV-1a in v3).
pub const SEALED_HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a snapshot cannot be restored. Every variant is *detection*:
/// the engine refuses to resume rather than resuming garbage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointError {
    /// The snapshot (or sealed container) version is not the supported
    /// one. The `Display` form contains the word "version" — the
    /// historical panic message contract.
    UnsupportedVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this engine supports.
        supported: u32,
    },
    /// The sealed bytes do not start with [`SEALED_MAGIC`] (and are not
    /// recognisable v1 bare JSON either).
    BadMagic,
    /// The sealed byte stream is shorter or longer than its header
    /// declares (truncation or trailing garbage).
    Truncated {
        /// Bytes the header requires.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload checksum does not match the header — bit-rot inside
    /// the payload.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The payload passed the checksum but did not deserialize (a
    /// hand-edited or foreign snapshot).
    Malformed(String),
    /// A structural invariant of the snapshot does not hold (unsorted
    /// halves, inconsistent per-UE lane shapes).
    ShapeMismatch(String),
    /// The snapshot's tracing mode does not match the engine's
    /// traffic/dynamics planes. The `Display` form contains the word
    /// "tracing" — the historical panic message contract.
    PlaneMismatch {
        /// Whether the snapshot recorded serving-cell traces.
        checkpoint_tracing: bool,
        /// Whether the engine has a traffic/dynamics plane attached.
        engine_tracing: bool,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "fleet checkpoint version {found} is not the supported {supported}"
            ),
            CheckpointError::BadMagic => {
                write!(f, "sealed checkpoint does not start with the FZHOCKPT magic")
            }
            CheckpointError::Truncated { needed, got } => write!(
                f,
                "sealed checkpoint is truncated or padded: header declares {needed} bytes, \
                 got {got}"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "sealed checkpoint payload checksum mismatch: header says {expected:#018x}, \
                 payload hashes to {actual:#018x}"
            ),
            CheckpointError::Malformed(msg) => {
                write!(f, "checkpoint payload does not deserialize: {msg}")
            }
            CheckpointError::ShapeMismatch(msg) => {
                write!(f, "checkpoint shape invariant violated: {msg}")
            }
            CheckpointError::PlaneMismatch { checkpoint_tracing, engine_tracing } => write!(
                f,
                "checkpoint tracing mode must match the engine's traffic/dynamics planes \
                 (checkpoint tracing={checkpoint_tracing}, engine tracing={engine_tracing})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit checksum, the payload checksum of v3 containers; kept
/// only to verify them. It folds one byte per multiply, so it is
/// byte-serial (~15× slower than [`xxh64`] on a 0.55 MB payload).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 accumulator round over a 64-bit lane.
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2)).rotate_left(31).wrapping_mul(XXH_P1)
}

/// Fold one stripe accumulator into the XXH64 hash.
fn xxh_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh_round(0, acc)).wrapping_mul(XXH_P1).wrapping_add(XXH_P4)
}

/// XXH64 with seed 0, the payload checksum of v4 containers. It reads
/// four independent 64-bit lanes per 32-byte stripe, then folds the
/// 8-byte, 4-byte and single-byte tail. Pinned to the reference
/// implementation's known answers by the unit tests.
pub fn xxh64(bytes: &[u8]) -> u64 {
    // Every slice converted here has exactly the array's length, so the
    // conversions never take their zero fallback.
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or_default());
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut acc = [XXH_P1.wrapping_add(XXH_P2), XXH_P2, 0, XXH_P1.wrapping_neg()];
        for stripe in stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = xxh_round(*a, word(lane));
            }
        }
        let [a, b, c, d] = acc;
        let hash = (a.rotate_left(1).wrapping_add(b.rotate_left(7)))
            .wrapping_add(c.rotate_left(12).wrapping_add(d.rotate_left(18)));
        acc.iter().fold(hash, |hash, &a| xxh_merge(hash, a))
    } else {
        XXH_P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        hash = (hash ^ xxh_round(0, word(w))).rotate_left(27).wrapping_mul(XXH_P1);
        hash = hash.wrapping_add(XXH_P4);
    }
    if rest.len() >= 4 {
        let (four, after) = rest.split_at(4);
        let four = u32::from_le_bytes(four.try_into().unwrap_or_default());
        hash ^= u64::from(four).wrapping_mul(XXH_P1);
        hash = hash.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
        rest = after;
    }
    for &b in rest {
        hash = (hash ^ u64::from(b).wrapping_mul(XXH_P5)).rotate_left(11).wrapping_mul(XXH_P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_P3);
    hash ^ (hash >> 32)
}

/// The payload checksum a container of `version` records: [`xxh64`]
/// for v4, [`fnv1a64`] for v3, none for any other version.
fn container_checksum(version: u32) -> Option<fn(&[u8]) -> u64> {
    match version {
        SEALED_FORMAT_VERSION => Some(xxh64),
        FNV_FORMAT_VERSION => Some(fnv1a64),
        _ => None,
    }
}

/// Read a little-endian `u32` at `offset` without any panicking slice
/// conversion; `None` when the bytes run out.
fn le_u32(bytes: &[u8], offset: usize) -> Option<u32> {
    let s = bytes.get(offset..offset.checked_add(4)?)?;
    let mut v = 0u32;
    for (i, &b) in s.iter().enumerate() {
        v |= u32::from(b) << (8 * i);
    }
    Some(v)
}

/// Read a little-endian `u64` at `offset`; `None` when the bytes run out.
fn le_u64(bytes: &[u8], offset: usize) -> Option<u64> {
    let s = bytes.get(offset..offset.checked_add(8)?)?;
    let mut v = 0u64;
    for (i, &b) in s.iter().enumerate() {
        v |= u64::from(b) << (8 * i);
    }
    Some(v)
}

/// Wrap an arbitrary payload in the v4 sealed container format:
/// [`SEALED_MAGIC`] + container version + payload length + XXH64
/// payload checksum + the payload bytes. [`FleetCheckpoint::seal`] and
/// the server's session snapshots both write this envelope, so one
/// verifier ([`unseal_payload`]) guards every persistence path.
pub fn seal_payload(payload: &[u8]) -> Vec<u8> {
    seal_with(|out| out.extend_from_slice(payload))
}

/// [`seal_payload`] for a payload written in place: `write` appends the
/// payload to the buffer after the header, whose length and checksum
/// are then filled in, so the payload is never copied.
pub fn seal_with(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SEALED_MAGIC);
    out.extend_from_slice(&SEALED_FORMAT_VERSION.to_le_bytes());
    out.resize(SEALED_HEADER_LEN, 0);
    write(&mut out);
    let payload = &out[SEALED_HEADER_LEN..];
    let (len, checksum) = (payload.len() as u64, xxh64(payload));
    out[12..20].copy_from_slice(&len.to_le_bytes());
    out[20..SEALED_HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Verify a sealed container's magic, version, declared length and
/// payload checksum, returning the payload slice. A v4 payload is
/// verified with [`xxh64`], a v3 payload with [`fnv1a64`]; any other
/// version is [`CheckpointError::UnsupportedVersion`]. Total function: every
/// byte string — empty, truncated mid-header, bit-flipped, foreign —
/// maps to `Ok` or a typed [`CheckpointError`]; the header fields are
/// read with bounds-checked accessors, so no input can panic
/// (fuzz-pinned by `tests/checkpoint_fuzz.rs`).
pub fn unseal_payload(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.first() == Some(&b'{') {
        // The v1 format: bare JSON, no header, no checksum.
        return Err(CheckpointError::UnsupportedVersion {
            found: 1,
            supported: SEALED_FORMAT_VERSION,
        });
    }
    if bytes.len() < SEALED_HEADER_LEN {
        return Err(CheckpointError::Truncated {
            needed: SEALED_HEADER_LEN as u64,
            got: bytes.len() as u64,
        });
    }
    if bytes.get(..8) != Some(&SEALED_MAGIC[..]) {
        return Err(CheckpointError::BadMagic);
    }
    let version = le_u32(bytes, 8).ok_or(CheckpointError::BadMagic)?;
    let checksum = container_checksum(version).ok_or(CheckpointError::UnsupportedVersion {
        found: version,
        supported: SEALED_FORMAT_VERSION,
    })?;
    let payload_len = le_u64(bytes, 12).ok_or(CheckpointError::BadMagic)?;
    let expected_total = (SEALED_HEADER_LEN as u64).saturating_add(payload_len);
    if bytes.len() as u64 != expected_total {
        return Err(CheckpointError::Truncated {
            needed: expected_total,
            got: bytes.len() as u64,
        });
    }
    let expected = le_u64(bytes, 20).ok_or(CheckpointError::BadMagic)?;
    let payload = bytes.get(SEALED_HEADER_LEN..).unwrap_or(&[]);
    let actual = checksum(payload);
    if expected != actual {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// The exact state of one UE's ChaCha12 measurement RNG, including the
/// position inside the current output block — restoring mid-block
/// continues the stream on the very next word.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngCheckpoint {
    /// ChaCha key schedule words (derived from the seed).
    pub key: [u32; 8],
    /// Block counter of the *next* block to generate.
    pub counter: u64,
    /// The current 16-word output block.
    pub buf: [u32; 16],
    /// Next unread word index into `buf` (16 ⇒ block exhausted).
    pub index: u32,
}

impl RngCheckpoint {
    /// Capture an RNG's exact stream position.
    pub fn capture(rng: &StdRng) -> Self {
        let state = rng.state();
        RngCheckpoint {
            key: state.key,
            counter: state.counter,
            buf: state.buf,
            index: state.index as u32,
        }
    }

    /// Rebuild the RNG at the captured position; the next draw is the
    /// draw the original would have made.
    pub fn restore(&self) -> StdRng {
        StdRng::from_state(StdRngState {
            key: self.key,
            counter: self.counter,
            buf: self.buf,
            index: self.index as usize,
        })
    }
}

/// The engine half of one live UE: everything
/// [`UeState`](crate::engine) holds apart from per-step scratch buffers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UeEngineState {
    /// Layout index of the serving cell.
    pub serving_idx: u32,
    /// Per-BS correlated shadowing state.
    pub shadow: ShadowingLaneState,
    /// Per-BS RSS smoothing filters, in layout order.
    pub smoothers: Vec<RssiSmoother>,
    /// The UE's private measurement RNG stream.
    pub rng: RngCheckpoint,
    /// Handover events and outage accounting so far.
    pub log: EventLog,
    /// Pruned-mode lazy shadowing distances (empty until the first
    /// pruned step, then one slot per cell).
    pub last_advanced_km: Vec<f64>,
    /// Travelled distance at the last measurement, km.
    pub prev_cum: f64,
    /// Measurement steps taken so far.
    pub steps: u64,
}

/// One still-live UE in a [`FleetCheckpoint`]: engine + policy state
/// plus the running per-UE tallies the fleet engine folds at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UeCheckpoint {
    /// The UE id.
    pub ue_id: u64,
    /// Engine state (measurement plane + log).
    pub engine: UeEngineState,
    /// Policy-side decision state (PRTLC history, dwell streaks, …).
    pub policy: PolicyCheckpoint,
    /// Sum of FLC outputs observed so far, in step order.
    pub hd_sum: f64,
    /// Number of FLC outputs observed so far.
    pub hd_count: u64,
    /// Path length travelled so far, km.
    pub travelled_km: f64,
    /// Steps recorded into the serving-cell trace (traffic plane only;
    /// 0 when the checkpointed run was not tracing).
    pub trace_steps: u64,
    /// Run-length-encoded serving-cell changes so far (traffic plane
    /// only; empty when not tracing).
    pub trace_changes: Vec<(u64, u32)>,
}

/// A frozen mid-run fleet pass; see the module docs for the resume
/// contract. Produced by
/// [`FleetSimulation::advance`](crate::fleet::FleetSimulation::advance),
/// consumed by `advance` (to a later bound) and
/// [`FleetSimulation::try_resume`](crate::fleet::FleetSimulation::try_resume).
/// Serializes with serde; both halves are sorted by UE id, so the bytes
/// are invariant to the worker count and chunk size that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Snapshot format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The lockstep step index at which the pass stopped; every live UE
    /// has taken exactly this many steps.
    pub step: u64,
    /// The measurement base seed of the run.
    pub base_seed: u64,
    /// Outcomes of UEs that finished before the bound, ascending by id.
    pub finished: Vec<UeOutcome>,
    /// Serving-cell traces of finished UEs (empty unless tracing),
    /// ascending by id.
    pub finished_traces: Vec<UeTrace>,
    /// Still-live UEs, ascending by id.
    pub live: Vec<UeCheckpoint>,
    /// Serving-load histogram over all UE-steps taken so far.
    pub cell_load: CellLoadHistogram,
    /// Whether the pass records serving-cell traces (i.e. ran with a
    /// traffic plane attached).
    pub tracing: bool,
}

impl FleetCheckpoint {
    /// Number of UEs covered by the snapshot (finished + live).
    pub fn ue_count(&self) -> usize {
        self.finished.len() + self.live.len()
    }

    /// Typed validation: the snapshot must carry the supported
    /// [`CHECKPOINT_VERSION`], both halves must be strictly ascending
    /// by UE id, and a snapshot at step `u64::MAX` holds no live UE. The
    /// per-UE lane shapes are checked against an engine's layout by
    /// [`FleetCheckpoint::check_engine`].
    pub fn try_validate(&self) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: self.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        if !self.finished.windows(2).all(|w| w[0].ue_id < w[1].ue_id) {
            return Err(CheckpointError::ShapeMismatch(
                "finished outcomes are not strictly ascending by UE id".into(),
            ));
        }
        if !self.live.windows(2).all(|w| w[0].ue_id < w[1].ue_id) {
            return Err(CheckpointError::ShapeMismatch(
                "live UEs are not strictly ascending by UE id".into(),
            ));
        }
        // `u64::MAX` is the bound that runs every UE to completion, so no
        // UE can still be live there.
        if self.step == u64::MAX && !self.live.is_empty() {
            return Err(CheckpointError::ShapeMismatch(
                "live UEs at the final lockstep step u64::MAX".into(),
            ));
        }
        Ok(())
    }

    /// Snapshot-vs-engine compatibility, checked before any resume:
    /// [`FleetCheckpoint::try_validate`], a tracing mode equal to the
    /// engine's `tracing`, and a fit to the engine's layout. Every live
    /// UE must carry one shadowing slot, one smoother and (once pruned)
    /// one lazy-advance slot per layout cell and a serving index inside
    /// the layout, every trace must name layout cells, and `cell_load`
    /// must track the layout's cells. A snapshot of another layout is
    /// thus a typed [`CheckpointError::ShapeMismatch`], never a panic in
    /// a worker or in the merge.
    pub fn check_engine(&self, config: &SimConfig, tracing: bool) -> Result<(), CheckpointError> {
        self.try_validate()?;
        if self.tracing != tracing {
            return Err(CheckpointError::PlaneMismatch {
                checkpoint_tracing: self.tracing,
                engine_tracing: tracing,
            });
        }
        let n = config.layout.len();
        let ue_fits = |ue: &UeCheckpoint| {
            let e = &ue.engine;
            let lazy = e.last_advanced_km.len();
            [e.shadow.values.len(), e.shadow.fresh.len(), e.smoothers.len()] == [n; 3]
                && (lazy == 0 || lazy == n)
                && (e.serving_idx as usize) < n
        };
        let traces = (self.finished_traces.iter().map(|t| &t.changes))
            .chain(self.live.iter().map(|ue| &ue.trace_changes));
        if self.cell_load.cells() != config.layout.cells()
            || !self.live.iter().all(ue_fits)
            || !traces.flatten().all(|&(_, cell)| (cell as usize) < n)
        {
            return Err(CheckpointError::ShapeMismatch(format!(
                "snapshot lanes, traces or serving load do not fit the {n}-cell layout"
            )));
        }
        Ok(())
    }

    /// Append the snapshot's binary payload (the layout of container
    /// v3 and v4) to `out`: every field in
    /// declaration order, fixed-layout little-endian, floats as their
    /// `to_bits` words (layout in the `payload` module source). Both
    /// halves are sorted by UE id, so the bytes are shard-invariant.
    pub fn write_payload(&self, out: &mut Vec<u8>) {
        crate::payload::encode(self, out);
    }

    /// Decode a binary payload that [`FleetCheckpoint::write_payload`]
    /// wrote (exactly those bytes, nothing after them) and
    /// [`FleetCheckpoint::try_validate`] it. Total on arbitrary input:
    /// a declared length is checked against the bytes left before
    /// anything is allocated, and `PolicyCheckpoint::Streak` nesting is
    /// capped at [`serde::MAX_DEPTH`].
    pub fn try_from_payload(payload: &[u8]) -> Result<FleetCheckpoint, CheckpointError> {
        crate::payload::decode(payload)
    }

    /// Seal the snapshot into the v4 checksummed container format:
    /// [`SEALED_MAGIC`] + container version + payload length + XXH64
    /// payload checksum + the binary payload
    /// ([`FleetCheckpoint::write_payload`]).
    /// [`FleetCheckpoint::try_unseal`] verifies all four before decoding,
    /// so bit-rot and truncation are *detected* rather than resumed.
    pub fn seal(&self) -> Vec<u8> {
        seal_with(|out| self.write_payload(out))
    }

    /// Open a sealed container: verify magic, container version,
    /// declared length and payload checksum (via [`unseal_payload`]),
    /// then decode ([`FleetCheckpoint::try_from_payload`]) and
    /// [`FleetCheckpoint::try_validate`] the snapshot. v4 and v3
    /// containers (same payload, XXH64 or FNV-1a checksum) unseal; older
    /// ones (v1 headerless bare JSON, v2 JSON payloads) are rejected
    /// with a typed [`CheckpointError::UnsupportedVersion`]. Total on
    /// arbitrary input: never panics, for any byte string.
    pub fn try_unseal(bytes: &[u8]) -> Result<FleetCheckpoint, CheckpointError> {
        FleetCheckpoint::try_from_payload(unseal_payload(bytes)?)
    }

    /// The still-live UE with id `ue_id`, if any (both halves are
    /// sorted, so this is a binary search).
    pub fn find_live(&self, ue_id: u64) -> Option<&UeCheckpoint> {
        self.live.binary_search_by_key(&ue_id, |ue| ue.ue_id).ok().map(|k| &self.live[k])
    }

    /// The finished outcome for UE `ue_id`, if it completed before the
    /// snapshot's step bound.
    pub fn find_finished(&self, ue_id: u64) -> Option<&UeOutcome> {
        self.finished.binary_search_by_key(&ue_id, |o| o.ue_id).ok().map(|k| &self.finished[k])
    }

    /// Instantaneous per-cell load: how many live UEs are currently
    /// served by each of the `n_cells` layout cells (layout order).
    /// Out-of-range serving indices (possible in a snapshot not checked
    /// against this layout by [`FleetCheckpoint::check_engine`]) are
    /// skipped rather than panicking.
    pub fn live_serving_counts(&self, n_cells: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n_cells];
        for ue in &self.live {
            if let Some(slot) = counts.get_mut(ue.engine.serving_idx as usize) {
                *slot += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn rng_checkpoint_resumes_mid_block() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..5 {
            rng.next_u64();
        }
        rng.next_u32(); // land mid-block, odd word offset
        let cp = RngCheckpoint::capture(&rng);
        let mut restored = cp.restore();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn rng_checkpoint_round_trips_through_serde() {
        let mut rng = StdRng::seed_from_u64(9);
        rng.next_u64();
        let cp = RngCheckpoint::capture(&rng);
        let back: RngCheckpoint =
            serde_json::from_str(&serde_json::to_string(&cp).unwrap()).unwrap();
        assert_eq!(cp, back);
        let mut a = cp.restore();
        let mut b = back.restore();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    fn empty_checkpoint(version: u32) -> FleetCheckpoint {
        FleetCheckpoint {
            version,
            step: 0,
            base_seed: 0,
            finished: Vec::new(),
            finished_traces: Vec::new(),
            live: Vec::new(),
            cell_load: CellLoadHistogram::new(std::iter::once(cellgeom::Axial::ORIGIN)),
            tracing: false,
        }
    }

    #[test]
    fn stale_version_rejected() {
        let cp = empty_checkpoint(CHECKPOINT_VERSION + 1);
        let err = cp.try_validate().unwrap_err();
        assert_eq!(
            err,
            CheckpointError::UnsupportedVersion {
                found: CHECKPOINT_VERSION + 1,
                supported: CHECKPOINT_VERSION,
            }
        );
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn seal_round_trips_and_is_deterministic() {
        let cp = empty_checkpoint(CHECKPOINT_VERSION);
        let sealed = cp.seal();
        assert_eq!(sealed, cp.seal(), "sealing is deterministic");
        assert_eq!(&sealed[..8], &SEALED_MAGIC);
        let back = FleetCheckpoint::try_unseal(&sealed).unwrap();
        assert_eq!(cp, back);
    }

    /// `sealed` re-headed as a v3 container: version 3 and the FNV-1a
    /// checksum of the same payload.
    fn as_v3(sealed: &[u8]) -> Vec<u8> {
        let mut v3 = sealed.to_vec();
        let checksum = fnv1a64(&sealed[SEALED_HEADER_LEN..]);
        v3[8..12].copy_from_slice(&FNV_FORMAT_VERSION.to_le_bytes());
        v3[20..SEALED_HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        v3
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let v4 = empty_checkpoint(CHECKPOINT_VERSION).seal();
        for sealed in [as_v3(&v4), v4] {
            assert!(FleetCheckpoint::try_unseal(&sealed).is_ok());
            for i in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[i] ^= 0xFF;
                assert!(
                    FleetCheckpoint::try_unseal(&bad).is_err(),
                    "flipping byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn v3_containers_unseal_and_other_versions_are_refused() {
        let cp = empty_checkpoint(CHECKPOINT_VERSION);
        let v4 = cp.seal();
        assert_eq!(u32::from_le_bytes(v4[8..12].try_into().unwrap()), SEALED_FORMAT_VERSION);
        assert_eq!(FleetCheckpoint::try_unseal(&as_v3(&v4)), Ok(cp));
        // A v4 header over an FNV-1a checksum (or the reverse) is caught.
        let mut mixed = as_v3(&v4);
        mixed[8..12].copy_from_slice(&SEALED_FORMAT_VERSION.to_le_bytes());
        assert!(matches!(
            FleetCheckpoint::try_unseal(&mixed),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        for found in [0, 2, 5, u32::MAX] {
            let mut other = v4.clone();
            other[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                FleetCheckpoint::try_unseal(&other),
                Err(CheckpointError::UnsupportedVersion { found, supported: 4 })
            );
        }
    }

    #[test]
    fn truncation_and_padding_are_detected() {
        let sealed = empty_checkpoint(CHECKPOINT_VERSION).seal();
        for cut in [0, 5, SEALED_HEADER_LEN, sealed.len() - 1] {
            match FleetCheckpoint::try_unseal(&sealed[..cut]) {
                Err(CheckpointError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        let mut padded = sealed.clone();
        padded.push(b' ');
        assert!(matches!(
            FleetCheckpoint::try_unseal(&padded),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn v1_bare_json_yields_typed_unsupported_version() {
        let cp = empty_checkpoint(CHECKPOINT_VERSION);
        let v1 = serde_json::to_string(&cp).unwrap();
        match FleetCheckpoint::try_unseal(v1.as_bytes()) {
            Err(CheckpointError::UnsupportedVersion { found: 1, supported }) => {
                assert_eq!(supported, SEALED_FORMAT_VERSION);
            }
            other => panic!("v1 bytes must be rejected with a typed error, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_halves_fail_shape_validation() {
        let mut cp = empty_checkpoint(CHECKPOINT_VERSION);
        let outcome = |id: u64| UeOutcome {
            ue_id: id,
            steps: 1,
            handovers: 0,
            ping_pongs: 0,
            outage_steps: 0,
            hd_sum: 0.0,
            hd_count: 0,
            travelled_km: 0.0,
            final_serving: cellgeom::Axial::ORIGIN,
        };
        cp.finished = vec![outcome(3), outcome(1)];
        assert!(matches!(cp.try_validate(), Err(CheckpointError::ShapeMismatch(_))));
    }

    #[test]
    fn fnv_checksum_is_pinned() {
        // FNV-1a 64 test vectors; pinning them keeps v3 containers
        // verifying across releases.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn xxh64_matches_the_reference_known_answers() {
        // Seed-0 answers of the reference implementation: the empty
        // input, a byte tail only, and one 32-byte stripe followed by a
        // 4-byte and a 3-byte tail.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn any_flipped_byte_changes_xxh64() {
        // Lengths 0..=97 reach every path: no stripe, up to three
        // stripes, and every 8-byte, 4-byte and single-byte tail.
        for len in 0..=97usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ 0x5A).collect();
            let clean = xxh64(&bytes);
            for i in 0..len {
                for flip in [0x01, 0x80, 0xFF] {
                    let mut bad = bytes.clone();
                    bad[i] ^= flip;
                    assert_ne!(xxh64(&bad), clean, "len {len}: flipping byte {i} by {flip:#04x}");
                }
            }
        }
    }
}
