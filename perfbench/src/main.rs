//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints a detail line (machine stamp, sample counts, digests, failure
//! messages) and, last, the result line: one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--smoke` runs the same code on
//! small sizes. Exits 2 on a usage error, 1 when a check failed.

use perfbench::workloads::{Sizes, Workload};

const USAGE: &str = "usage: perfbench --workload <fleet_fuzzy_edge|twin_session_loop> \
--seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parsed = (|| -> Result<(Workload, u64, f64, bool), String> {
        let name = flag(&args, "--workload").ok_or("--workload is required")?;
        let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
        let seed = parse(&args, "--seed", 7u64)?;
        let seconds = parse(&args, "--seconds", 10.0f64)?;
        let trace = match parse(&args, "--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!(
                "--seconds must be a non-negative number, got {seconds}"
            ));
        }
        Ok((workload, seed, seconds, trace))
    })();
    let (workload, seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let sizes = if args.iter().any(|a| a == "--smoke") {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let run = perfbench::run(workload, &sizes, seed, seconds, trace);
    let (detail, result) = run.lines(workload, seed, trace);
    println!("{detail}");
    println!("{result}");
    if !run.failures().is_empty() {
        for failure in run.failures() {
            eprintln!("perfbench: check failed: {failure}");
        }
        std::process::exit(1);
    }
}
