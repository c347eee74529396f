//! Golden-file regression harness for the neighbour-pruned measurement
//! plane (`CandidateMode::Nearest`).
//!
//! The 17 paper-experiment goldens (`tests/golden/`) pin the dense
//! `CandidateMode::All` path byte for byte; the pruned mode draws a
//! different (deliberately smaller) random stream, so it gets its own
//! pinned report here: a small scenario-matrix sweep run entirely under
//! `Nearest(7)`. Refresh after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_radio
//! ```

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{CandidateMode, FleetMobility, PolicyKind};
use fuzzy_handover::sim::matrix::ScenarioMatrix;
use fuzzy_handover::sim::SimConfig;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_radio")
        .join("pruned_matrix.json")
}

fn pruned_matrix() -> ScenarioMatrix {
    let mut base = SimConfig::paper_default();
    base.shadowing = ShadowingConfig::moderate();
    base.noise = MeasurementNoise::new(1.0);
    ScenarioMatrix {
        base,
        ue_counts: vec![30],
        mobilities: FleetMobility::standard_four(6),
        speeds_kmh: vec![0.0, 30.0],
        policies: vec![PolicyKind::Fuzzy, PolicyKind::Hysteresis { margin_db: 4.0 }],
        traffics: vec![None],
        dynamics: vec![None],
        base_seed: 0xF1EE7,
        workers: 3,
        matrix_workers: 2,
        candidate_mode: CandidateMode::Nearest(7),
    }
}

#[test]
fn pruned_matrix_matches_golden() {
    let report = pruned_matrix().try_run().expect("pruned matrix").render();
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
            "missing golden file {} ({err}); generate with UPDATE_GOLDEN=1 cargo test --test golden_radio",
            path.display()
        )
    });
    let golden: String = serde_json::from_str(&raw).expect("parse golden");
    let reserialized = serde_json::to_string(&golden).expect("re-serialize golden") + "\n";
    assert!(reserialized == raw, "re-serializing the golden report changed its bytes");
    for (n, (g, f)) in golden.lines().zip(report.lines()).enumerate() {
        assert!(
            g == f,
            "pruned-matrix report drifted at line {}:\n  golden: {g}\n  fresh : {f}\n\
             If the change is intended, refresh with UPDATE_GOLDEN=1 cargo test --test golden_radio",
            n + 1
        );
    }
    assert_eq!(golden, report, "pruned-matrix report drifted (length)");
}
