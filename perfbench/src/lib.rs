//! The fuzzy-handover benchmark: two workloads, end-to-end metrics
//! measured with tracing off, and a separate traced run that splits the
//! cost by layer. See `README.md` for the metrics and workloads.

pub mod adapter;
pub mod fleet;
pub mod layers;
pub mod probe;
pub mod replay;
pub mod report;
pub mod traced;
pub mod twin;
pub mod workloads;

use report::Run;
use workloads::{Sizes, Workload};

/// Run one workload (timed, or traced) and validate its metric set.
pub fn run(workload: Workload, sizes: &Sizes, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    match (workload, trace) {
        (Workload::TwinSessionLoop, false) => twin::timed(&mut run, sizes, seed, seconds),
        (Workload::TwinSessionLoop, true) => twin::traced(&mut run, sizes, seed),
        (Workload::FleetFuzzyEdge, false) => fleet::timed(&mut run, sizes, seed, seconds),
        (Workload::FleetFuzzyEdge, true) => fleet::traced(&mut run, sizes, seed),
    }
    if trace {
        // Layers the workload never calls read exactly zero.
        for (name, _) in report::per_layer() {
            if report::structurally_zero(workload, &name) && run.value(&name).is_none() {
                run.metric(&name, 0.0);
            }
        }
    } else if let Some(rss) = report::peak_rss_mib() {
        run.metric("peak_rss_mib", rss);
    }
    run.validate(workload, trace);
    run
}
