//! Metric names and units, output checks, the machine stamp and the
//! result line.

use crate::workloads::{Workload, TIMED_THREADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (tracing off), every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ue_steps_per_cpu_s", "Msteps/s"),
    ("peak_rss_mib", "MiB"),
    ("advance_cpu_p50_ms", "ms"),
];

/// The twin request kinds the server and wire metrics are split by.
pub const KINDS: [&str; 4] = ["advance", "query", "checkpoint", "hydrate"];

/// Per-layer metrics (traced run), every workload, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("mobility.generate_us_per_ue", "us"),
        ("mobility.resample_ns_per_step", "ns"),
        ("geometry.nearest_ns_per_call", "ns"),
        ("geometry.nearest_calls_per_step", "count"),
        ("radio.budget_ns_per_link", "ns"),
        ("radio.links_per_step", "count"),
        ("radio.gaussian_ns", "ns"),
        ("radio.gaussians_per_step", "count"),
        ("radio.shadow_ns_per_step", "ns"),
        ("radio.edge_step_ratio", "ratio"),
        ("core.pregate_ns_per_step", "ns"),
        ("core.pregate_skip_ratio", "ratio"),
        ("core.decide_ns_per_step", "ns"),
        ("core.handovers_per_kstep", "1/kstep"),
        ("core.ping_pongs_per_kstep", "1/kstep"),
        ("fuzzylogic.evals_per_step", "count"),
        ("fuzzylogic.eval_ns", "ns"),
        ("fuzzylogic.batch_len", "count"),
        ("fuzzylogic.step_share", "ratio"),
        ("sim.step_ns", "ns"),
        ("sim.self_ns_per_step", "ns"),
        ("sim.worker_speedup", "x"),
        ("engine.trajectory_us_per_ue", "us"),
        ("engine.policy_ns_per_ue", "ns"),
        ("engine.decide_ns_per_call", "ns"),
        ("engine.notify_ns_per_call", "ns"),
        ("checkpoint.seal_ms", "ms"),
        ("checkpoint.unseal_ms", "ms"),
        ("checkpoint.sealed_bytes", "bytes"),
        ("session.engine_build_ms", "ms"),
        ("session.advance_ms", "ms"),
        ("session.segments_per_advance", "count"),
        ("session.snapshots_per_advance", "count"),
        ("session.sealed_ms", "ms"),
        ("session.hydrate_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (prefix, unit) in [
        ("server.handle_us", "us"),
        ("wire.encode_ms", "ms"),
        ("wire.decode_ms", "ms"),
        ("wire.frame_bytes", "bytes"),
        ("wire.handoff_ms", "ms"),
    ] {
        for kind in KINDS {
            m.push((format!("{prefix}.{kind}"), unit));
        }
    }
    for (n, u) in [
        ("traffic.replay_ms", "ms"),
        ("twin.advance_p90_ms", "ms"),
        ("twin.query_p50_ms", "ms"),
        ("twin.query_p95_ms", "ms"),
        ("twin.checkpoint_p50_ms", "ms"),
        ("twin.hydrate_p50_ms", "ms"),
        ("twin.snapshot_bytes", "bytes"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "x"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Whether a per-layer metric is zero by construction on `workload`:
/// the layer is never called there. The checks require these to be
/// exactly zero and every other metric to be positive.
pub fn structurally_zero(workload: Workload, name: &str) -> bool {
    let twin_only = [
        "checkpoint.",
        "session.",
        "server.",
        "wire.",
        "twin.",
        "traffic.",
    ];
    match workload {
        // Fuzzy controllers are driven through `as_fuzzy`, never `decide`.
        Workload::FleetFuzzyEdge => {
            twin_only.iter().any(|p| name.starts_with(p)) || name == "engine.decide_ns_per_call"
        }
        // The tenant measures densely and runs the fuzzy controller.
        // The twin server runs on a one-worker budget.
        Workload::TwinSessionLoop => {
            name.starts_with("geometry.")
                || name == "engine.decide_ns_per_call"
                || name == "sim.worker_speedup"
        }
    }
}

/// Everything one benchmark run produced: metric values, sample counts,
/// and the attempted/failed tally of operations and output checks.
#[derive(Debug, Default)]
pub struct Run {
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, usize>,
    notes: BTreeMap<String, String>,
    attempted: u64,
    failures: Vec<String>,
}

impl Run {
    /// Record a metric value.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record the sample count behind a metric.
    pub fn samples(&mut self, name: &str, n: usize) {
        self.samples.insert(name.to_string(), n);
    }

    /// Record a free-form note for the detail line.
    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.notes.insert(name.to_string(), value.to_string());
    }

    /// Count one attempted operation or check; a failure is recorded
    /// with its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count one attempted operation; `Err` is recorded as a failure.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.failures.push(err);
                None
            }
        }
    }

    /// Count `n` operations that all succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// A recorded metric value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Failure messages so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Check the expected metric set: every name present with a finite
    /// value, positive unless structurally zero (then exactly zero), and
    /// nothing else.
    pub fn validate(&mut self, workload: Workload, trace: bool) {
        let expected: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for (name, _) in &expected {
            let value = self.metrics.get(name).copied();
            let zero = trace && structurally_zero(workload, name);
            let ok = match value {
                None => false,
                Some(v) if zero => v == 0.0,
                Some(v) => v.is_finite() && v > 0.0,
            };
            self.check(ok, || match value {
                None => format!("metric {name} was not measured"),
                Some(v) if zero => format!("metric {name} = {v}, expected exactly 0"),
                Some(v) => format!("metric {name} = {v} is not a positive finite number"),
            });
        }
        let extra: Vec<String> = self
            .metrics
            .keys()
            .filter(|k| !expected.iter().any(|(n, _)| n == *k))
            .cloned()
            .collect();
        self.check(extra.is_empty(), || format!("unexpected metrics {extra:?}"));
    }

    /// The detail line (machine stamp, sample counts, notes, failures)
    /// and the result line, in print order.
    pub fn lines(&self, workload: Workload, seed: u64, trace: bool) -> (String, String) {
        let units: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut detail = String::from("{\"stamp\": ");
        detail.push_str(&stamp(workload, seed, trace));
        detail.push_str(", \"samples\": {");
        push_map(
            &mut detail,
            self.samples
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_string())),
        );
        detail.push_str("}, \"notes\": {");
        push_map(
            &mut detail,
            self.notes.iter().map(|(k, v)| (k.as_str(), json_str(v))),
        );
        detail.push_str("}, \"failures\": [");
        detail.push_str(
            &self
                .failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", "),
        );
        detail.push_str("]}");

        let failed = self.failures.len() as u64;
        let mut result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            failed == 0,
            self.attempted.max(1),
            failed
        );
        let mut first = true;
        for (name, unit) in &units {
            let Some(&value) = self.metrics.get(name) else {
                continue;
            };
            // Never print a non-number: it already failed validation.
            let value = if value.is_finite() { value } else { 0.0 };
            if !first {
                result.push_str(", ");
            }
            first = false;
            let _ = write!(
                result,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(value),
                json_str(unit)
            );
        }
        result.push_str("}}");
        (detail, result)
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let body: Vec<String> = entries
        .map(|(k, v)| format!("{}: {}", json_str(k), v))
        .collect();
    out.push_str(&body.join(", "));
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine stamp: processor count, AVX2, compiler, source revision
/// and the busy threads of the workload.
fn stamp(workload: Workload, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unavailable".into());
    // Only ask git inside a checkout's own repository, never a parent's.
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \
         \"avx2\": {avx2}, \"rustc\": {}, \"git_rev\": {}, \"threads\": {}}}",
        json_str(workload.name()),
        json_str(&rustc),
        json_str(&rev),
        TIMED_THREADS
    )
}

/// First line of a command's standard output (the command is waited
/// for).
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are used once");
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn validation_flags_zero_missing_and_extra_metrics() {
        let mut run = Run::default();
        run.metric("setup_s", 0.5);
        run.metric("ue_steps_per_cpu_s", 0.0);
        run.metric("peak_rss_mib", f64::NAN);
        run.metric("bogus", 1.0);
        run.validate(Workload::FleetFuzzyEdge, false);
        assert_eq!(run.failures().len(), 4, "{:?}", run.failures());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut run = Run::default();
        run.metric("setup_s", 0.25);
        let (_, line) = run.lines(Workload::FleetFuzzyEdge, 7, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }
}
