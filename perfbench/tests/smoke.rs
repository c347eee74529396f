//! Smoke mode: every workload, timed and traced, on small sizes. Each run
//! must pass its own output checks and print exactly the metric set
//! `BENCHMARK.json` declares, with its units.

use perfbench::report::{per_layer, END_TO_END};
use perfbench::workloads::Workload;
use std::process::Command;

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

fn check(workload: &str, trace: bool) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    let names = expected(trace);
    for (name, unit) in &names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing in {line}"));
        let rest = &line[at + key.len()..];
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"}}")),
            "{name} unit in {line}"
        );
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        names.len(),
        "no extra metrics: {line}"
    );
}

#[test]
fn fleet_fuzzy_edge_smoke() {
    check("fleet_fuzzy_edge", false);
    check("fleet_fuzzy_edge", true);
}

#[test]
fn twin_session_loop_smoke() {
    check("twin_session_loop", false);
    check("twin_session_loop", true);
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        // The package can be built alone; the declaration lives beside it.
        return;
    };
    let all: Vec<(String, &str)> = expected(false).into_iter().chain(expected(true)).collect();
    for (name, unit) in &all {
        let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        all.len(),
        "BENCHMARK.json has extra metrics"
    );
}

#[test]
fn benchmark_json_declares_exactly_these_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return;
    };
    for workload in Workload::ALL {
        let decl = format!("{{\"name\": \"{}\", \"why\": ", workload.name());
        assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    assert_eq!(
        json.matches("\"why\": ").count(),
        Workload::ALL.len(),
        "BENCHMARK.json has extra workloads"
    );
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
