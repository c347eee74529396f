//! Extension experiment — the comparison the paper defers to future work:
//! the fuzzy controller versus conventional handover algorithms.
//!
//! Every policy runs the same three workloads under shadow fading:
//! the two pinned scenarios plus a batch of random boundary-stressing
//! walks. Reported per policy: mean handovers, mean ping-pongs and mean
//! outage over the Monte-Carlo repetitions (run in parallel).

use crate::engine::{SimConfig, Simulation};
use crate::monte_carlo::{summarize, try_run_repetitions_parallel, McSummary};
use crate::scenario::Scenario;
use crate::table::{fmt_f, TextTable};
use handover_core::baselines::{
    DwellTimerPolicy, HysteresisPolicy, HysteresisThresholdPolicy, ThresholdPolicy,
};
use handover_core::{ControllerConfig, FuzzyHandoverController, HandoverPolicy};
use mobility::{MobilityModel, RandomWalk, Trajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;
use radiolink::ShadowingConfig;

/// Number of Monte-Carlo repetitions per (policy, workload).
const REPS: usize = 10;
/// Worker threads for the Monte-Carlo batches.
const THREADS: usize = 4;

/// A factory producing one boxed policy per Monte-Carlo run.
pub type PolicyFactory = fn() -> Box<dyn HandoverPolicy + Send>;

/// The compared policy set (name, factory).
pub fn policy_set() -> Vec<(&'static str, PolicyFactory)> {
    vec![
        ("fuzzy (paper)", || {
            Box::new(FuzzyHandoverController::new(ControllerConfig::paper_default(2.0)))
        }),
        ("hysteresis 0 dB", || Box::new(HysteresisPolicy::new(0.0))),
        ("hysteresis 4 dB", || Box::new(HysteresisPolicy::new(4.0))),
        ("threshold −95 dBm", || Box::new(ThresholdPolicy::new(-95.0))),
        ("hyst 4 dB + thr −95", || {
            Box::new(HysteresisThresholdPolicy::new(-95.0, 4.0))
        }),
        ("dwell(2) hyst 2 dB", || {
            Box::new(DwellTimerPolicy::new(HysteresisPolicy::new(2.0), 2))
        }),
    ]
}

/// The evaluated workloads: `(name, trajectory)`.
pub fn workloads() -> Vec<(String, Trajectory)> {
    let mut w = vec![
        ("scenario A".to_string(), Scenario::a().trajectory()),
        ("scenario B".to_string(), Scenario::b().trajectory()),
    ];
    // Boundary-stressing random walks: start on the edge between the
    // origin cell and its east neighbour.
    let edge = cellgeom::Vec2::new(3.0f64.sqrt(), 0.0);
    for k in 0..3u64 {
        let walk = RandomWalk::paper_default(8).with_start(edge);
        let traj = walk.generate(&mut StdRng::seed_from_u64(1000 + k));
        w.push((format!("edge walk {}", k + 1), traj));
    }
    w
}

/// One result row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Policy name.
    pub policy: &'static str,
    /// Workload name.
    pub workload: String,
    /// Monte-Carlo summary.
    pub summary: McSummary,
}

/// Run the full comparison under moderate shadowing.
pub fn data() -> Vec<ComparisonRow> {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = radiolink::MeasurementNoise::new(1.0);
    let window = cfg.pingpong_window_steps;
    let sim = Simulation::new(cfg);

    let mut rows = Vec::new();
    for (wname, traj) in workloads() {
        for (pname, factory) in policy_set() {
            let runs = try_run_repetitions_parallel(&sim, &traj, factory, 0xC0FFEE, REPS, THREADS)
                .expect("baseline policies run every repetition");
            rows.push(ComparisonRow {
                policy: pname,
                workload: wname.clone(),
                summary: summarize(&runs, window),
            });
        }
    }
    rows
}

/// Render the comparison table.
pub fn render() -> String {
    let rows = data();
    let mut t = TextTable::new(
        "Extension — fuzzy vs conventional handover algorithms (10 runs, σ = 4 dB shadowing)",
    )
    .headers(["Workload", "Policy", "Handovers", "Ping-pongs", "Outage"]);
    for r in &rows {
        t.row([
            r.workload.clone(),
            r.policy.to_string(),
            format!("{:.1} ± {:.1}", r.summary.mean_handovers, r.summary.std_handovers),
            fmt_f(r.summary.mean_ping_pongs, 2),
            fmt_f(r.summary.mean_outage, 3),
        ]);
    }
    let mut out = t.render();

    // Aggregate verdict: total ping-pongs fuzzy vs the 0 dB baseline.
    let total = |name: &str| -> f64 {
        rows.iter()
            .filter(|r| r.policy == name)
            .map(|r| r.summary.mean_ping_pongs)
            .sum()
    };
    out.push_str(&format!(
        "\ntotal mean ping-pongs: fuzzy {:.2} vs hysteresis-0dB {:.2}\n",
        total("fuzzy (paper)"),
        total("hysteresis 0 dB"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_of_rows() {
        let rows = data();
        assert_eq!(rows.len(), workloads().len() * policy_set().len());
    }

    #[test]
    fn fuzzy_ping_pongs_less_than_naive() {
        // The headline claim, quantified: summed over all workloads the
        // fuzzy controller must ping-pong strictly less than the 0 dB
        // hysteresis baseline (which flips on any instantaneous
        // advantage).
        let rows = data();
        let total = |name: &str| -> f64 {
            rows.iter()
                .filter(|r| r.policy == name)
                .map(|r| r.summary.mean_ping_pongs)
                .sum()
        };
        let fuzzy = total("fuzzy (paper)");
        let naive = total("hysteresis 0 dB");
        assert!(fuzzy < naive, "fuzzy {fuzzy} vs naive {naive}");
        // And also fewer raw handovers.
        let count = |name: &str| -> f64 {
            rows.iter()
                .filter(|r| r.policy == name)
                .map(|r| r.summary.mean_handovers)
                .sum()
        };
        assert!(count("fuzzy (paper)") < count("hysteresis 0 dB"));
    }

    #[test]
    fn render_lists_all_policies() {
        let s = render();
        for (name, _) in policy_set() {
            assert!(s.contains(name), "missing {name}");
        }
        assert!(s.contains("total mean ping-pongs"));
    }
}
