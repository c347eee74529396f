//! Golden-file regression harness for the dynamic-workload plane.
//!
//! The 20 pre-dynamic goldens pin the static and traffic-only output
//! byte for byte; this suite pins a small *city-scale* scenario-matrix
//! run — the dynamics axis live with churn, a tidal wave, a scheduled
//! BS failure and a voice/data service mix next to the static level —
//! so the churn accounting, fairness index, dwell percentiles and the
//! dropped-Erlang breakdown can't drift silently either. Refresh after
//! an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_dynamic
//! ```

use fuzzy_handover::geometry::Axial;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{CandidateMode, FleetMobility, PolicyKind};
use fuzzy_handover::sim::matrix::ScenarioMatrix;
use fuzzy_handover::sim::{
    CellOutage, ChurnConfig, DynamicsConfig, ServiceMix, ServiceParams, SimConfig, TidalWave,
    TrafficConfig,
};
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_dynamic")
        .join("city_matrix.json")
}

fn city_matrix() -> ScenarioMatrix {
    let mut base = SimConfig::paper_default();
    base.shadowing = ShadowingConfig::moderate();
    base.noise = MeasurementNoise::new(1.0);
    ScenarioMatrix {
        base,
        ue_counts: vec![20],
        mobilities: vec![FleetMobility::RandomWalk(
            fuzzy_handover::mobility::RandomWalk::paper_default(6),
        )],
        speeds_kmh: vec![30.0],
        policies: vec![PolicyKind::Fuzzy, PolicyKind::Hysteresis { margin_db: 4.0 }],
        traffics: vec![Some(TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 4.0,
            mean_holding_steps: 6.0,
            load_feedback: false,
        })],
        dynamics: vec![
            None,
            Some(DynamicsConfig {
                churn: Some(ChurnConfig {
                    initial_ues: 10,
                    horizon_steps: 12,
                    mean_lifetime_steps: 10.0,
                }),
                tide: Some(TidalWave { period_steps: 8, amplitude: 0.6, phase_per_q: 0.25 }),
                failures: vec![CellOutage {
                    cell: Axial::new(0, 0),
                    from_step: 4,
                    until_step: 9,
                }],
                services: Some(ServiceMix {
                    voice_share: 0.6,
                    voice: ServiceParams {
                        mean_idle_steps: 3.0,
                        mean_holding_steps: 4.0,
                        extra_guard_channels: 0,
                    },
                    data: ServiceParams {
                        mean_idle_steps: 5.0,
                        mean_holding_steps: 8.0,
                        extra_guard_channels: 1,
                    },
                }),
            }),
        ],
        base_seed: 0xC17D,
        workers: 3,
        matrix_workers: 2,
        candidate_mode: CandidateMode::All,
    }
}

#[test]
fn city_matrix_matches_golden() {
    let report = city_matrix().try_run().expect("city matrix").render();
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
            "missing golden file {} ({err}); generate with UPDATE_GOLDEN=1 cargo test --test golden_dynamic",
            path.display()
        )
    });
    let golden: String = serde_json::from_str(&raw).expect("parse golden");
    let reserialized = serde_json::to_string(&golden).expect("re-serialize golden") + "\n";
    assert!(reserialized == raw, "re-serializing the golden report changed its bytes");
    for (n, (g, f)) in golden.lines().zip(report.lines()).enumerate() {
        assert!(
            g == f,
            "city-matrix report drifted at line {}:\n  golden: {g}\n  fresh : {f}\n\
             If the change is intended, refresh with UPDATE_GOLDEN=1 cargo test --test golden_dynamic",
            n + 1
        );
    }
    assert_eq!(golden, report, "city-matrix report drifted (length)");
}
