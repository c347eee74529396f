//! Extension experiment — robustness to shadow-fading severity.
//!
//! The ping-pong effect is *caused* by shadow fading (paper §1), so the
//! natural stress test sweeps the fading σ and compares the fuzzy
//! pipeline with the zero-margin comparator on the boundary scenario.

use crate::engine::{SimConfig, Simulation};
use crate::monte_carlo::{summarize, try_run_repetitions_parallel};
use crate::scenario::Scenario;
use crate::table::{fmt_f, TextTable};
use handover_core::baselines::HysteresisPolicy;
use handover_core::{ControllerConfig, FuzzyHandoverController, HandoverPolicy};
use radiolink::ShadowingConfig;

/// Swept shadowing standard deviations in dB.
pub const SIGMAS_DB: [f64; 6] = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0];

/// One sweep row.
#[derive(Debug, Clone, PartialEq)]
pub struct FadingRow {
    /// Shadowing σ in dB.
    pub sigma_db: f64,
    /// Mean fuzzy handovers / ping-pongs on scenario A.
    pub fuzzy: (f64, f64),
    /// Mean naive handovers / ping-pongs on scenario A.
    pub naive: (f64, f64),
}

/// Run the sweep: scenario A under increasing fading, 10 repetitions per
/// point, run in parallel.
pub fn data() -> Vec<FadingRow> {
    let walk = Scenario::a().trajectory();
    SIGMAS_DB
        .iter()
        .map(|&sigma| {
            let mut cfg = SimConfig::paper_default();
            cfg.shadowing = ShadowingConfig { sigma_db: sigma, decorrelation_km: 0.05 };
            let window = cfg.pingpong_window_steps;
            let sim = Simulation::new(cfg);
            let fuzzy_runs = try_run_repetitions_parallel(
                &sim,
                &walk,
                || -> Box<dyn HandoverPolicy + Send> {
                    Box::new(FuzzyHandoverController::new(ControllerConfig::paper_default(2.0)))
                },
                7,
                10,
                4,
            )
            .expect("the fuzzy controller runs every repetition");
            let naive_runs = try_run_repetitions_parallel(
                &sim,
                &walk,
                || -> Box<dyn HandoverPolicy + Send> { Box::new(HysteresisPolicy::new(0.0)) },
                7,
                10,
                4,
            )
            .expect("hysteresis runs every repetition");
            let f = summarize(&fuzzy_runs, window);
            let n = summarize(&naive_runs, window);
            FadingRow {
                sigma_db: sigma,
                fuzzy: (f.mean_handovers, f.mean_ping_pongs),
                naive: (n.mean_handovers, n.mean_ping_pongs),
            }
        })
        .collect()
}

/// Render the sweep.
pub fn render() -> String {
    let rows = data();
    let mut t = TextTable::new(
        "Extension — shadow-fading robustness on scenario A (10 runs per point)",
    )
    .headers([
        "σ [dB]",
        "fuzzy HO",
        "fuzzy PP",
        "naive HO",
        "naive PP",
    ]);
    for r in &rows {
        t.row([
            fmt_f(r.sigma_db, 0),
            fmt_f(r.fuzzy.0, 1),
            fmt_f(r.fuzzy.1, 1),
            fmt_f(r.naive.0, 1),
            fmt_f(r.naive.1, 1),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\nthe boundary walk stays handover-free for the fuzzy pipeline at low σ and\n\
         degrades gracefully, while the naive comparator ping-pongs as soon as fading\n\
         can flip the instantaneous winner.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzy_never_worse_than_naive() {
        for r in data() {
            assert!(
                r.fuzzy.1 <= r.naive.1,
                "σ = {}: fuzzy PP {} vs naive PP {}",
                r.sigma_db,
                r.fuzzy.1,
                r.naive.1
            );
            assert!(
                r.fuzzy.0 <= r.naive.0,
                "σ = {}: fuzzy HO {} vs naive HO {}",
                r.sigma_db,
                r.fuzzy.0,
                r.naive.0
            );
        }
    }

    #[test]
    fn clean_channel_matches_the_paper_claim() {
        let rows = data();
        let clean = &rows[0];
        assert_eq!(clean.sigma_db, 0.0);
        assert_eq!(clean.fuzzy.0, 0.0, "no fading → scenario A stays put");
        assert_eq!(clean.fuzzy.1, 0.0);
    }

    #[test]
    fn naive_ping_pongs_under_heavy_fading() {
        let rows = data();
        let heavy = rows.last().unwrap();
        assert!(
            heavy.naive.1 > 0.0,
            "10 dB shadowing must flip the naive comparator: {heavy:?}"
        );
    }

    #[test]
    fn render_has_all_sigmas() {
        let s = render();
        for sigma in SIGMAS_DB {
            assert!(s.contains(&format!("{sigma:.0}")));
        }
    }
}
