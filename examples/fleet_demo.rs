//! Drive the multi-UE fleet engine end to end: a 2 000-UE fleet on the
//! paper layout (dense and neighbour-pruned measurement), the same
//! fleet with the cell-load traffic plane attached (call admission,
//! blocking/dropping, Erlang load), then a scenario-matrix sweep — two
//! cells at a time via `matrix_workers` — over the four standard
//! mobility models, two speeds and three policies (exact fuzzy, the LUT
//! ablation, hysteresis), printing the aggregated fleet metrics, the
//! per-cell load histogram, and an ASCII plot of the handover rate
//! against MS speed.
//!
//! ```text
//! cargo run --release --example fleet_demo
//! ```

use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::matrix::{MatrixMetric, ScenarioMatrix};
use fuzzy_handover::sim::series::ascii_plot;
use fuzzy_handover::sim::{SimConfig, TrafficConfig};
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};

fn main() {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);

    // --- One fleet run -------------------------------------------------
    let fleet = FleetSimulation::new(cfg.clone()).with_workers(4);
    let spec = HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(
            fuzzy_handover::mobility::RandomWalk::paper_default(8),
        ),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 1,
        cell_radius_km: cfg.layout.cell_radius_km(),
    };
    let ids: Vec<u64> = (0..2_000).collect();
    let result = fleet.try_run_ids(&spec, &ids, 42).expect("fleet run");
    let s = &result.summary;
    println!("fleet of {} UEs, {} total measurement steps", s.ues, s.steps);
    println!("  handovers/UE : {:.3}", s.handovers_per_ue());
    println!("  ping-pong    : {:.3}", s.ping_pong_ratio());
    println!("  outage       : {:.3}", s.outage_ratio());
    if let Some(hd) = s.mean_hd() {
        println!("  mean HD      : {hd:.3}");
    }
    let (peak_cell, peak_steps) = result.cell_load.peak();
    println!(
        "  peak cell    : ({}, {}) serving {peak_steps} UE-steps ({:.1}% of the fleet)\n",
        peak_cell.q,
        peak_cell.r,
        100.0 * result.cell_load.share(peak_cell)
    );

    // --- The same fleet through the pruned measurement plane ----------
    let pruned = FleetSimulation::new(cfg.clone())
        .with_workers(4)
        .with_candidate_mode(CandidateMode::Nearest(7));
    let p = pruned
        .try_run_ids(&spec, &ids, 42)
        .expect("pruned run")
        .summary;
    println!(
        "same fleet, CandidateMode::Nearest(7): {:.3} handovers/UE, {:.3} ping-pong \
         (the 7 index-nearest of 19 cells measured per UE-step, plus the serving \
         cell and its candidates when they fall outside that set)\n",
        p.handovers_per_ue(),
        p.ping_pong_ratio()
    );

    // --- The same fleet under call traffic -----------------------------
    let traffic = TrafficConfig {
        channels_per_cell: 8,
        guard_channels: 1,
        mean_idle_steps: 6.0,
        mean_holding_steps: 4.0,
        load_feedback: false,
    };
    let loaded = FleetSimulation::new(cfg.clone())
        .with_workers(4)
        .with_traffic(traffic)
        .try_run_ids(&spec, &ids, 42)
        .expect("traffic run");
    let report = loaded.traffic.expect("traffic plane ran");
    println!(
        "same fleet under call traffic ({} chan/cell, {} guard, {:.2} E offered per UE):",
        traffic.channels_per_cell,
        traffic.guard_channels,
        traffic.offered_erlangs_per_ue()
    );
    println!(
        "  {} calls offered, {} blocked (P = {:.4}), {} handover attempts, {} dropped (P = {:.4})",
        report.offered_calls,
        report.blocked_calls,
        report.blocking_probability(),
        report.handover_attempts,
        report.dropped_calls,
        report.dropping_probability()
    );
    println!(
        "  offered {:.1} E, carried {:.1} E — fleet metrics bit-identical to the bare run\n",
        report.offered_erlangs, report.carried_erlangs
    );

    // --- The scenario matrix (two cells at a time) ---------------------
    let matrix = ScenarioMatrix {
        base: cfg,
        ue_counts: vec![500],
        mobilities: FleetMobility::standard_four(6),
        speeds_kmh: vec![0.0, 30.0, 60.0],
        policies: vec![
            PolicyKind::Fuzzy,
            PolicyKind::FuzzyLut,
            PolicyKind::Hysteresis { margin_db: 4.0 },
        ],
        traffics: vec![None],
        dynamics: vec![None],
        base_seed: 0xF1EE7,
        workers: 4,
        matrix_workers: 2,
        candidate_mode: CandidateMode::All,
    };
    let outcome = matrix.try_run().expect("scenario matrix");
    print!("{}", outcome.render());

    let series = outcome.series_over_speed(MatrixMetric::HandoversPerUe);
    println!();
    println!(
        "{}",
        ascii_plot(&series, 72, 18, "Handover rate vs MS speed (per UE)")
    );
}
