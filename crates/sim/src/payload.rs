//! The fixed-layout little-endian payload of a v3 sealed
//! [`FleetCheckpoint`].
//!
//! Every value is written field by field in declaration order, with no
//! padding and no field names:
//! - integers little-endian at their width, `usize` as `u64`;
//! - floats as the `u64` of `f64::to_bits`, so every bit round-trips;
//! - `bool`, `Option` and enum variant tags as one byte;
//! - sequences as a `u64` element count followed by the elements;
//! - fixed-size arrays as their elements alone.
//!
//! The decoder is total. A declared count is checked against the bytes
//! that are left *before* anything is allocated (every element takes at
//! least [`Decode::MIN_LEN`] bytes), `PolicyCheckpoint::Streak` nesting
//! stops at [`serde::MAX_DEPTH`] like the JSON reader, and trailing
//! bytes are refused. Every failure is a typed
//! [`CheckpointError::Malformed`] naming the byte offset.

use crate::checkpoint::{
    CheckpointError, FleetCheckpoint, RngCheckpoint, UeCheckpoint, UeEngineState,
    CHECKPOINT_VERSION,
};
use crate::fleet::UeOutcome;
use crate::traffic::UeTrace;
use cellgeom::Axial;
use handover_core::{CellLoadHistogram, EventLog, HandoverEvent, PolicyCheckpoint};
use radiolink::{RssiSmoother, ShadowingLaneState};
use std::collections::VecDeque;

/// Append `cp`'s payload to `out`.
pub(crate) fn encode(cp: &FleetCheckpoint, out: &mut Vec<u8>) {
    cp.encode(out);
}

/// Decode a whole payload. The inner version is checked before the
/// rest of the layout is trusted; `try_validate` runs on the result.
pub(crate) fn decode(bytes: &[u8]) -> Result<FleetCheckpoint, CheckpointError> {
    let mut input = Input { bytes, at: 0, depth: 0 };
    let cp = FleetCheckpoint::decode(&mut input).map_err(|fail| *fail)?;
    if input.at != bytes.len() {
        return Err(*input.error(&format!("{} trailing bytes", bytes.len() - input.at)));
    }
    cp.try_validate()?;
    Ok(cp)
}

/// A decode failure, boxed so every `Result` on the hot path stays two
/// words wide.
type Fail = Box<CheckpointError>;

/// A read cursor over a payload.
struct Input<'a> {
    bytes: &'a [u8],
    at: usize,
    /// `PolicyCheckpoint::Streak` levels open around the cursor.
    depth: usize,
}

impl Input<'_> {
    #[cold]
    fn error(&self, what: &str) -> Fail {
        Box::new(CheckpointError::Malformed(format!("v3 payload: {what} at byte {}", self.at)))
    }

    #[inline(always)]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], Fail> {
        // `at <= bytes.len()` always holds, so `at + N` cannot overflow.
        match self.bytes.get(self.at..self.at + N) {
            Some(bytes) => {
                let mut word = [0u8; N];
                word.copy_from_slice(bytes);
                self.at += N;
                Ok(word)
            }
            None => Err(self.error(&format!("{N}-byte field runs past the end"))),
        }
    }

    /// A sequence's element count, refused unless that many `T`s could
    /// fit in the bytes left.
    fn count<T: Decode>(&mut self) -> Result<usize, Fail> {
        let declared = u64::decode(self)?;
        let room = (self.bytes.len() - self.at) / T::MIN_LEN;
        usize::try_from(declared).ok().filter(|&n| n <= room).ok_or_else(|| {
            self.error(&format!(
                "count {declared} does not fit the {} bytes left",
                room * T::MIN_LEN
            ))
        })
    }

    fn tag(&mut self, what: &str, variants: u8) -> Result<u8, Fail> {
        let tag = u8::decode(self)?;
        if tag < variants {
            Ok(tag)
        } else {
            self.at -= 1;
            Err(self.error(&format!("unknown {what} tag {tag}")))
        }
    }
}

trait Encode {
    fn encode(&self, out: &mut Vec<u8>);
}

trait Decode: Sized {
    /// The fewest bytes one value encodes to (at least 1).
    const MIN_LEN: usize;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail>;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
                input.take().map(<$t>::from_le_bytes)
            }
        }
    )*};
}
int!(u8, u32, u64, i32);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    const MIN_LEN: usize = 8;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        let x = u64::decode(input)?;
        usize::try_from(x).map_err(|_| input.error(&format!("{x} overflows usize")))
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    const MIN_LEN: usize = 8;
    #[inline(always)]
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        u64::decode(input).map(f64::from_bits)
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    const MIN_LEN: usize = 1;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        Ok(input.tag("bool", 2)? == 1)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(x) => {
                out.push(1);
                x.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_LEN: usize = 1;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        match input.tag("option", 2)? {
            0 => Ok(None),
            _ => T::decode(input).map(Some),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for x in self {
            x.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_LEN: usize = 8;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        let n = input.count::<T>()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(input)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for x in self {
            x.encode(out);
        }
    }
}

impl<T: Decode> Decode for VecDeque<T> {
    const MIN_LEN: usize = 8;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        Vec::decode(input).map(VecDeque::from)
    }
}

impl<const N: usize> Encode for [u32; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for x in self {
            x.encode(out);
        }
    }
}

impl<const N: usize> Decode for [u32; N] {
    const MIN_LEN: usize = 4 * N;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        let mut words = [0u32; N];
        for w in &mut words {
            *w = u32::decode(input)?;
        }
        Ok(words)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

/// Field-by-field codec of a struct with public fields, in the order
/// listed (the declaration order).
macro_rules! record {
    ($ty:ident { $($field:ident: $t:ty),* $(,)? }) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)*
            }
        }
        impl Decode for $ty {
            const MIN_LEN: usize = 0 $(+ <$t as Decode>::MIN_LEN)*;
            fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
                Ok($ty { $($field: <$t as Decode>::decode(input)?,)* })
            }
        }
    };
}

record!(Axial { q: i32, r: i32 });
record!(HandoverEvent { step: usize, at_km: f64, from: Axial, to: Axial, hd: f64 });
record!(ShadowingLaneState { values: Vec<f64>, fresh: Vec<bool>, any_fresh: bool });
record!(RngCheckpoint { key: [u32; 8], counter: u64, buf: [u32; 16], index: u32 });
record!(UeOutcome {
    ue_id: u64,
    steps: u64,
    handovers: u64,
    ping_pongs: u64,
    outage_steps: u64,
    hd_sum: f64,
    hd_count: u64,
    travelled_km: f64,
    final_serving: Axial,
});
record!(UeTrace { ue_id: u64, steps: u64, changes: Vec<(u64, u32)> });
record!(UeEngineState {
    serving_idx: u32,
    shadow: ShadowingLaneState,
    smoothers: Vec<RssiSmoother>,
    rng: RngCheckpoint,
    log: EventLog,
    last_advanced_km: Vec<f64>,
    prev_cum: f64,
    steps: u64,
});
record!(UeCheckpoint {
    ue_id: u64,
    engine: UeEngineState,
    policy: PolicyCheckpoint,
    hd_sum: f64,
    hd_count: u64,
    travelled_km: f64,
    trace_steps: u64,
    trace_changes: Vec<(u64, u32)>,
});

impl Encode for EventLog {
    fn encode(&self, out: &mut Vec<u8>) {
        self.events().encode(out);
        self.step_count().encode(out);
        self.outage_step_count().encode(out);
    }
}

impl Decode for EventLog {
    const MIN_LEN: usize = 24;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        let events = Vec::decode(input)?;
        Ok(EventLog::from_parts(events, usize::decode(input)?, usize::decode(input)?))
    }
}

impl Encode for CellLoadHistogram {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cells().len().encode(out);
        for pair in self.iter() {
            pair.encode(out);
        }
    }
}

impl Decode for CellLoadHistogram {
    const MIN_LEN: usize = 8;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        Vec::<(Axial, u64)>::decode(input).map(CellLoadHistogram::from_pairs)
    }
}

impl Encode for RssiSmoother {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RssiSmoother::None => out.push(0),
            RssiSmoother::Ewma { alpha, state } => {
                out.push(1);
                alpha.encode(out);
                state.encode(out);
            }
            RssiSmoother::Window { capacity, buf } => {
                out.push(2);
                capacity.encode(out);
                buf.encode(out);
            }
        }
    }
}

impl Decode for RssiSmoother {
    const MIN_LEN: usize = 1;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        Ok(match input.tag("smoother", 3)? {
            0 => RssiSmoother::None,
            1 => RssiSmoother::Ewma { alpha: f64::decode(input)?, state: Option::decode(input)? },
            _ => RssiSmoother::Window {
                capacity: usize::decode(input)?,
                buf: VecDeque::decode(input)?,
            },
        })
    }
}

impl Encode for PolicyCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PolicyCheckpoint::Stateless => out.push(0),
            PolicyCheckpoint::Fuzzy { prev_serving_rss } => {
                out.push(1);
                prev_serving_rss.encode(out);
            }
            PolicyCheckpoint::Step { step } => {
                out.push(2);
                step.encode(out);
            }
            PolicyCheckpoint::Streak { streak, inner } => {
                out.push(3);
                streak.encode(out);
                inner.encode(out);
            }
        }
    }
}

impl Decode for PolicyCheckpoint {
    const MIN_LEN: usize = 1;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        Ok(match input.tag("policy", 4)? {
            0 => PolicyCheckpoint::Stateless,
            1 => PolicyCheckpoint::Fuzzy { prev_serving_rss: Option::decode(input)? },
            2 => PolicyCheckpoint::Step { step: u64::decode(input)? },
            _ => {
                if input.depth >= serde::MAX_DEPTH {
                    return Err(input
                        .error(&format!("policy state nesting deeper than {}", serde::MAX_DEPTH)));
                }
                let streak = u64::decode(input)?;
                input.depth += 1;
                let inner = PolicyCheckpoint::decode(input).map(Box::new);
                input.depth -= 1;
                PolicyCheckpoint::Streak { streak, inner: inner? }
            }
        })
    }
}

impl Encode for FleetCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.step.encode(out);
        self.base_seed.encode(out);
        self.finished.encode(out);
        self.finished_traces.encode(out);
        self.live.encode(out);
        self.cell_load.encode(out);
        self.tracing.encode(out);
    }
}

impl Decode for FleetCheckpoint {
    const MIN_LEN: usize = 4 + 8 + 8 + 8 + 8 + 8 + 8 + 1;
    fn decode(input: &mut Input<'_>) -> Result<Self, Fail> {
        let version = u32::decode(input)?;
        if version != CHECKPOINT_VERSION {
            return Err(Box::new(CheckpointError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            }));
        }
        Ok(FleetCheckpoint {
            version,
            step: u64::decode(input)?,
            base_seed: u64::decode(input)?,
            finished: Vec::decode(input)?,
            finished_traces: Vec::decode(input)?,
            live: Vec::decode(input)?,
            cell_load: CellLoadHistogram::decode(input)?,
            tracing: bool::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streak_chain(depth: usize) -> PolicyCheckpoint {
        (0..depth).fold(PolicyCheckpoint::Stateless, |inner, k| PolicyCheckpoint::Streak {
            streak: k as u64,
            inner: Box::new(inner),
        })
    }

    fn round_trip<T: Encode + Decode>(x: &T) -> Result<T, CheckpointError> {
        let mut out = Vec::new();
        x.encode(&mut out);
        let mut input = Input { bytes: &out, at: 0, depth: 0 };
        let back = T::decode(&mut input).map_err(|fail| *fail)?;
        assert_eq!(input.at, out.len(), "decode consumes exactly what encode wrote");
        Ok(back)
    }

    #[test]
    fn policy_nesting_stops_at_the_reader_limit() {
        let ok = streak_chain(serde::MAX_DEPTH);
        assert_eq!(round_trip(&ok).unwrap(), ok);
        match round_trip(&streak_chain(serde::MAX_DEPTH + 1)) {
            Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("expected a nesting error, got {other:?}"),
        }
    }

    #[test]
    fn floats_and_smoothers_keep_every_bit() {
        let smoothers = vec![
            RssiSmoother::None,
            RssiSmoother::Ewma { alpha: 0.3, state: Some(-0.0) },
            RssiSmoother::Ewma { alpha: 1.0, state: None },
            RssiSmoother::Window { capacity: 3, buf: VecDeque::from(vec![f64::NAN, -1e-300, 7.5]) },
        ];
        let back = round_trip(&smoothers).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        smoothers.encode(&mut a);
        back.encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn huge_counts_are_refused_before_allocation() {
        for declared in [u64::MAX, u64::MAX / 8, 1 << 40, 3] {
            let mut bytes = declared.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 16]);
            let mut input = Input { bytes: &bytes, at: 0, depth: 0 };
            match Vec::<f64>::decode(&mut input).map_err(|fail| *fail) {
                Err(CheckpointError::Malformed(msg)) => assert!(msg.contains("count"), "{msg}"),
                other => panic!("count {declared}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        for bytes in [&[2u8][..], &[7], &[]] {
            let mut input = Input { bytes, at: 0, depth: 0 };
            assert!(matches!(
                bool::decode(&mut input).map_err(|f| *f),
                Err(CheckpointError::Malformed(_))
            ));
        }
        let mut input = Input { bytes: &[9], at: 0, depth: 0 };
        assert!(matches!(
            PolicyCheckpoint::decode(&mut input).map_err(|f| *f),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
