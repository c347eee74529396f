//! In-memory spans and counters for the traced runs.
//!
//! A span is the wall time of one call into a layer, taken with two
//! `Instant::now()` reads around the call. Spans of one name are summed
//! with their call count; the fixed cost of the two timer reads is
//! measured once ([`Probe::calibrated`]) and subtracted per call when a
//! span is read back, so short calls are not inflated by the timer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Summed duration and call count of one named span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Raw summed wall time, nanoseconds (timer cost included).
    pub raw_ns: f64,
    /// Number of timed calls.
    pub calls: u64,
}

/// Span and counter store of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    spans: BTreeMap<&'static str, SpanTotal>,
    counts: BTreeMap<&'static str, u64>,
    timer_ns: f64,
    /// When set, [`Probe::time`] runs the call untimed.
    off: bool,
}

impl Probe {
    /// A probe whose timer cost is measured on this machine: the median
    /// of many back-to-back `Instant::now()` pairs.
    pub fn calibrated() -> Probe {
        let mut pairs: Vec<f64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                let u = Instant::now();
                (u - t).as_nanos() as f64
            })
            .collect();
        pairs.sort_by(f64::total_cmp);
        Probe {
            timer_ns: pairs[pairs.len() / 2],
            ..Probe::default()
        }
    }

    /// A probe that times nothing (counters still count).
    pub fn off() -> Probe {
        Probe {
            off: true,
            ..Probe::default()
        }
    }

    /// Time one call into a layer under `name`.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.off {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    /// Record an externally timed call under `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        let span = self.spans.entry(name).or_default();
        span.raw_ns += elapsed.as_nanos() as f64;
        span.calls += 1;
    }

    /// Add `n` to the counter `name`.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Summed time of `name` with the timer cost of every call removed,
    /// nanoseconds (never negative).
    pub fn net_ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| {
            (s.raw_ns - s.calls as f64 * self.timer_ns).max(0.0)
        })
    }

    /// Summed raw time of `name`, timer cost included, nanoseconds.
    pub fn raw_ns(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.raw_ns)
    }

    /// Number of timed calls of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.calls)
    }

    /// Value of the counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The measured cost of one span's timer reads, nanoseconds.
    pub fn timer_ns(&self) -> f64 {
        self.timer_ns
    }
}

/// A reading of this process's CPU clock (`CLOCK_PROCESS_CPUTIME_ID`):
/// the processor time every thread of the process has used, ended threads
/// included. Unlike wall time it leaves out the time the processors ran
/// something else: other processes, and on a virtual machine whose kernel
/// accounts steal time, other guests. On a shared host it therefore
/// measures the program's own work, which is what the timed runs report.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(Duration);

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the 64-bit Linux process CPU clock and /proc");

impl CpuInstant {
    /// The process's CPU time so far.
    pub fn now() -> CpuInstant {
        #[repr(C)]
        struct Timespec {
            tv_sec: std::ffi::c_long,
            tv_nsec: std::ffi::c_long,
        }
        extern "C" {
            fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
        }
        const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (on 64-bit
        // Linux, `time_t` and `long` are both `c_long`) and the clock id is
        // valid.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuInstant(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// CPU time the process has used since this reading.
    pub fn elapsed(self) -> Duration {
        CpuInstant::now().0.saturating_sub(self.0)
    }
}

/// Median of a sample, the mean of the two middle values for an even
/// count (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` ∈ (0, 100] of a sample (0 for an empty
/// one).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[1.0, 5.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_subtract_the_timer_cost() {
        let mut probe = Probe {
            timer_ns: 10.0,
            ..Probe::default()
        };
        probe.add("x", Duration::from_nanos(100));
        probe.add("x", Duration::from_nanos(50));
        assert_eq!(probe.calls("x"), 2);
        assert_eq!(probe.net_ns("x"), 130.0);
        assert_eq!(probe.net_ns("missing"), 0.0);
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let t = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = t.elapsed();
        let t = CpuInstant::now();
        let wall = Instant::now();
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = t.elapsed();
        assert!(slept < Duration::from_millis(25), "sleep used {slept:?}");
        assert!(busy > slept, "busy {busy:?} vs sleep {slept:?}");
    }
}
