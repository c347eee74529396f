//! Golden-file regression harness for the traffic plane.
//!
//! The 18 pre-traffic goldens (`tests/golden/`, `tests/golden_radio/`)
//! pin the traffic-free output byte for byte; this suite pins a small
//! *loaded* scenario-matrix run — traffic as a sweep axis, passive and
//! load-feedback levels, a load-aware policy next to its load-blind
//! twin — so the admission counters, Erlang loads and the feedback
//! pass can't drift silently either. Refresh after an *intentional*
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traffic
//! ```

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{CandidateMode, FleetMobility, PolicyKind};
use fuzzy_handover::sim::matrix::ScenarioMatrix;
use fuzzy_handover::sim::{SimConfig, TrafficConfig};
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_traffic")
        .join("loaded_matrix.json")
}

fn loaded_matrix() -> ScenarioMatrix {
    let mut base = SimConfig::paper_default();
    base.shadowing = ShadowingConfig::moderate();
    base.noise = MeasurementNoise::new(1.0);
    ScenarioMatrix {
        base,
        ue_counts: vec![20],
        mobilities: vec![
            FleetMobility::RandomWalk(fuzzy_handover::mobility::RandomWalk::paper_default(6)),
            FleetMobility::GaussMarkov(fuzzy_handover::mobility::GaussMarkov::vehicular(6)),
        ],
        speeds_kmh: vec![30.0],
        policies: vec![
            PolicyKind::Fuzzy,
            PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 10.0 },
        ],
        traffics: vec![
            Some(TrafficConfig {
                channels_per_cell: 2,
                guard_channels: 0,
                mean_idle_steps: 4.0,
                mean_holding_steps: 6.0,
                load_feedback: false,
            }),
            Some(TrafficConfig {
                channels_per_cell: 2,
                guard_channels: 1,
                mean_idle_steps: 4.0,
                mean_holding_steps: 6.0,
                load_feedback: true,
            }),
        ],
        dynamics: vec![None],
        base_seed: 0x10AD,
        workers: 3,
        matrix_workers: 2,
        candidate_mode: CandidateMode::All,
    }
}

#[test]
fn loaded_matrix_matches_golden() {
    let report = loaded_matrix().try_run().expect("loaded matrix").render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create dir");
        std::fs::write(&path, serde_json::to_string(&report).expect("serialize") + "\n")
            .expect("write golden");
        println!("refreshed {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden file {} ({err}); generate with UPDATE_GOLDEN=1 cargo test --test golden_traffic",
            path.display()
        )
    });
    let golden: String = serde_json::from_str(&raw).expect("parse golden");
    let reserialized = serde_json::to_string(&golden).expect("re-serialize golden") + "\n";
    assert!(reserialized == raw, "re-serializing the golden report changed its bytes");
    for (n, (g, f)) in golden.lines().zip(report.lines()).enumerate() {
        assert!(
            g == f,
            "loaded-matrix report drifted at line {}:\n  golden: {g}\n  fresh : {f}\n\
             If the change is intended, refresh with UPDATE_GOLDEN=1 cargo test --test golden_traffic",
            n + 1
        );
    }
    assert_eq!(golden, report, "loaded-matrix report drifted (length)");
}
