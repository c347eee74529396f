//! A city-scale workload end to end: a 10 000-UE fleet with every
//! dynamic-workload feature live at once — birth–death UE churn, a
//! tidal offered-load wave sweeping across the layout, a scheduled BS
//! failure window that force-evacuates a cell mid-run, and a voice/data
//! service mix with guard-channel priority — on top of the cell-load
//! traffic plane. The run prints the population/fairness/failure
//! report, a small city matrix, and re-runs the fleet to prove the
//! whole workload is deterministic.
//!
//! ```text
//! cargo run --release --example city_scale
//! ```

use fuzzy_handover::geometry::Axial;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::matrix::ScenarioMatrix;
use fuzzy_handover::sim::{
    CellOutage, ChurnConfig, DynamicsConfig, ServiceMix, ServiceParams, SimConfig, TidalWave,
    TrafficConfig,
};

fn city_dynamics() -> DynamicsConfig {
    DynamicsConfig {
        // A morning-rush shape: 8k UEs live at step 0, 2k more churn in
        // across the first 20 steps, ~16-step lifetimes drain the crowd
        // back out over the run.
        churn: Some(ChurnConfig {
            initial_ues: 8_000,
            horizon_steps: 20,
            mean_lifetime_steps: 16.0,
        }),
        // A commute wave: offered load swings ±60% with a phase shift
        // per axial column, so the hotspot rolls across the city.
        tide: Some(TidalWave { period_steps: 12, amplitude: 0.6, phase_per_q: 0.2 }),
        // The central BS drops out mid-run and comes back.
        failures: vec![CellOutage { cell: Axial::new(0, 0), from_step: 8, until_step: 14 }],
        // 60% voice (short calls, admission priority via the extra
        // guard channels reserved against data), 40% elastic data.
        services: Some(ServiceMix {
            voice_share: 0.6,
            voice: ServiceParams {
                mean_idle_steps: 5.0,
                mean_holding_steps: 3.0,
                extra_guard_channels: 0,
            },
            data: ServiceParams {
                mean_idle_steps: 7.0,
                mean_holding_steps: 8.0,
                extra_guard_channels: 1,
            },
        }),
    }
}

fn main() {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);

    let traffic = TrafficConfig {
        channels_per_cell: 48,
        guard_channels: 4,
        mean_idle_steps: 6.0,
        mean_holding_steps: 4.0,
        load_feedback: false,
    };
    let spec = HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(
            fuzzy_handover::mobility::RandomWalk::paper_default(8),
        ),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 7,
        cell_radius_km: cfg.layout.cell_radius_km(),
    };

    // --- The 10k-UE city run -------------------------------------------
    let ids: Vec<u64> = (0..10_000).collect();
    let run = || {
        FleetSimulation::new(cfg.clone())
            .with_workers(8)
            .with_traffic(traffic)
            .with_dynamics(city_dynamics())
            .try_run_ids(&spec, &ids, 0xC17)
            .expect("city run")
    };
    let result = run();
    let s = &result.summary;
    println!("city-scale fleet: {} UE ids, {} total measurement steps", s.ues, s.steps);
    println!("  handovers/UE : {:.3}", s.handovers_per_ue());
    println!("  ping-pong    : {:.3}", s.ping_pong_ratio());
    println!("  outage       : {:.3}", s.outage_ratio());

    let d = result.dynamics.as_ref().expect("dynamics plane ran");
    println!("dynamic workload over {} timeline steps:", d.timeline_steps);
    println!("  churn        : {} arrivals, {} departures", d.arrivals, d.departures);
    println!(
        "  population   : mean {:.0}, peak {}",
        d.mean_population, d.peak_population
    );
    println!("  Jain index   : {:.3} (per-cell serving-load fairness)", d.jain_cell_load);
    println!(
        "  HO dwell     : p50 {} / p90 {} / p99 {} steps over {} handovers",
        d.ho_dwell.p50, d.ho_dwell.p90, d.ho_dwell.p99, d.ho_dwell.samples
    );
    let t = d.traffic.as_ref().expect("traffic plane ran");
    println!("  failure plan : central cell down for steps 8..14");
    println!(
        "    {} calls force-evicted, {} lost to the outage ({:.2} E)",
        t.failure_evicted_calls, t.failure_dropped_calls, t.failure_erlangs
    );
    println!(
        "    lost Erlangs by cause: blocked {:.2} / dropped {:.2} / failure {:.2}",
        t.blocked_erlangs, t.dropped_erlangs, t.failure_erlangs
    );
    for class in &t.per_class {
        println!(
            "    {:5}: {} offered, P(block) {:.4}, P(drop) {:.4}, {:.1} E offered",
            class.class.label(),
            class.offered_calls,
            class.blocking_probability(),
            class.dropping_probability(),
            class.offered_erlangs
        );
    }

    // --- Determinism self-check ----------------------------------------
    let again = run();
    assert_eq!(result, again, "city-scale runs must be bit-identical");
    println!("\ndeterminism self-check: second run bit-identical ✓\n");

    // --- A small city matrix -------------------------------------------
    let matrix = ScenarioMatrix {
        base: cfg,
        ue_counts: vec![1_000],
        mobilities: FleetMobility::standard_four(6),
        speeds_kmh: vec![30.0],
        policies: vec![PolicyKind::Fuzzy, PolicyKind::Hysteresis { margin_db: 4.0 }],
        traffics: vec![Some(traffic)],
        dynamics: vec![None, Some(city_dynamics())],
        base_seed: 0xC17F,
        workers: 4,
        matrix_workers: 2,
        candidate_mode: CandidateMode::All,
    };
    print!("{}", matrix.try_run().expect("city matrix").render());
}
