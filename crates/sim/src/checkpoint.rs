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
//! The contract, pinned by `tests/fleet_props.rs` and the
//! `tests/golden_fleet/` golden: for any step bound `k`,
//! [`FleetSimulation::advance`](crate::fleet::FleetSimulation::advance)
//! to step `k` followed by
//! [`FleetSimulation::try_resume`](crate::fleet::FleetSimulation::try_resume)
//! produces the same [`FleetResult`](crate::fleet::FleetResult) — every
//! `f64` bit included — as the uninterrupted run, for any worker count
//! and chunk size on either side of the snapshot.

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
/// magic + length + FNV-1a checksum header.
pub const SEALED_FORMAT_VERSION: u32 = 2;

/// Sealed header layout: magic (8) + container version (u32 LE) +
/// payload length (u64 LE) + FNV-1a-64 payload checksum (u64 LE).
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

/// FNV-1a 64-bit content checksum — dependency-free, deterministic,
/// and byte-order independent of the platform (it folds bytes).
pub fn content_checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
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

/// Wrap an arbitrary payload in the sealed container format:
/// [`SEALED_MAGIC`] + container version + payload length + FNV-1a
/// payload checksum + the payload bytes. [`FleetCheckpoint::seal`] and
/// the server's session snapshots both write this envelope, so one
/// verifier ([`unseal_payload`]) guards every persistence path.
pub fn seal_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEALED_HEADER_LEN + payload.len());
    out.extend_from_slice(&SEALED_MAGIC);
    out.extend_from_slice(&SEALED_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&content_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verify a sealed container's magic, version, declared length and
/// payload checksum, returning the payload slice. Total function: every
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
    if version != SEALED_FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: SEALED_FORMAT_VERSION,
        });
    }
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
    let actual = content_checksum(payload);
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
    /// [`CHECKPOINT_VERSION`] and satisfy the structural invariants the
    /// resume path depends on (both halves sorted ascending by UE id,
    /// every live UE's per-cell lanes mutually consistent).
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
        for ue in &self.live {
            let n = ue.engine.shadow.values.len();
            if ue.engine.smoothers.len() != n {
                return Err(CheckpointError::ShapeMismatch(format!(
                    "live UE {}: {} smoothers vs {} shadowing slots",
                    ue.ue_id,
                    ue.engine.smoothers.len(),
                    n
                )));
            }
            if !ue.engine.last_advanced_km.is_empty() && ue.engine.last_advanced_km.len() != n {
                return Err(CheckpointError::ShapeMismatch(format!(
                    "live UE {}: {} lazy-advance slots vs {} cells",
                    ue.ue_id,
                    ue.engine.last_advanced_km.len(),
                    n
                )));
            }
            if ue.engine.serving_idx as usize >= n && n > 0 {
                return Err(CheckpointError::ShapeMismatch(format!(
                    "live UE {}: serving index {} out of {} cells",
                    ue.ue_id, ue.engine.serving_idx, n
                )));
            }
        }
        Ok(())
    }

    /// Panic with a clear message if the snapshot cannot have come from
    /// a compatible engine (wrong version).
    #[deprecated(since = "0.9.0", note = "use try_validate() and handle CheckpointError")]
    pub fn validate(&self) {
        if let Err(err) = self.try_validate() {
            panic!("{err}");
        }
    }

    /// Seal the snapshot into the checksummed container format:
    /// [`SEALED_MAGIC`] + container version + payload length + FNV-1a
    /// payload checksum + the canonical (shard-invariant, UE-id-sorted)
    /// JSON payload. [`FleetCheckpoint::try_unseal`] verifies all four
    /// before deserializing, so bit-rot and truncation are *detected*
    /// rather than resumed.
    pub fn seal(&self) -> Vec<u8> {
        // invariant: every field of FleetCheckpoint serializes with
        // serde_json (the v1 golden pins exactly these bytes).
        let payload =
            serde_json::to_string(self).expect("fleet checkpoints serialize to JSON").into_bytes();
        seal_payload(&payload)
    }

    /// Open a sealed container: verify magic, container version,
    /// declared length and payload checksum (via [`unseal_payload`]),
    /// then deserialize and [`FleetCheckpoint::try_validate`] the
    /// snapshot. Historical v1 (headerless bare-JSON) bytes are
    /// recognised and rejected with a typed
    /// [`CheckpointError::UnsupportedVersion`]. Total on arbitrary
    /// input: never panics, for any byte string.
    pub fn try_unseal(bytes: &[u8]) -> Result<FleetCheckpoint, CheckpointError> {
        let payload = unseal_payload(bytes)?;
        let text = std::str::from_utf8(payload)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let cp: FleetCheckpoint =
            serde_json::from_str(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        cp.try_validate()?;
        Ok(cp)
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

    /// The serving-cell trace of a finished UE (tracing runs only).
    pub fn find_finished_trace(&self, ue_id: u64) -> Option<&UeTrace> {
        self.finished_traces
            .binary_search_by_key(&ue_id, |t| t.ue_id)
            .ok()
            .map(|k| &self.finished_traces[k])
    }

    /// Instantaneous per-cell load: how many live UEs are currently
    /// served by each of the `n_cells` layout cells (layout order).
    /// Out-of-range serving indices (possible only in a hand-built
    /// snapshot that skipped [`FleetCheckpoint::try_validate`]) are
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
    #[should_panic(expected = "version")]
    #[allow(deprecated)]
    fn deprecated_validate_shim_still_panics() {
        empty_checkpoint(CHECKPOINT_VERSION + 1).validate();
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

    #[test]
    fn every_flipped_byte_is_detected() {
        let sealed = empty_checkpoint(CHECKPOINT_VERSION).seal();
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0xFF;
            assert!(
                FleetCheckpoint::try_unseal(&bad).is_err(),
                "flipping byte {i} went undetected"
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
        // FNV-1a 64 test vectors; pinning them makes the sealed header
        // format portable across releases.
        assert_eq!(content_checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_checksum(b"foobar"), 0x85944171f73967e8);
    }
}
