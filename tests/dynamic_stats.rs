//! Statistical validation of the dynamic-workload plane. Every run is
//! deterministic, so these are fixed-seed checks against analytic
//! expectations with confidence-interval-sized tolerances:
//!
//! 1. under birth–death churn sized at `initial = rate × lifetime`, the
//!    mean concurrent population matches the stationary mean;
//! 2. the tidal wave's time-rescaled arrivals preserve the mean offered
//!    load while the carried occupancy tracks the wave — crest windows
//!    carry a multiple of trough windows;
//! 3. a BS failure drops exactly the calls occupying the cell when it
//!    shuts down (an exact identity, not a CI bound);
//! 4. extra guard channels reserved against the data class push data
//!    blocking above voice blocking under congestion.

use fuzzy_handover::geometry::Axial;
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind};
use fuzzy_handover::sim::traffic::{replay_traffic_dynamic, UeTrace};
use fuzzy_handover::sim::{
    CellOutage, ChurnConfig, DynamicsConfig, ServiceMix, ServiceParams, SimConfig, TidalWave,
    TrafficConfig,
};

/// The UE ids `0..n`.
fn ue_ids(n: u64) -> Vec<u64> {
    (0..n).collect()
}

/// Contract 1: with `initial_ues = arrival_rate × mean_lifetime` the
/// churn process starts in its stationary regime (initial lifetimes are
/// exponential residuals, so the process is memoryless from step 0).
/// The mean concurrent population over the timeline must sit near the
/// stationary mean; the decay tail past the arrival horizon drags it
/// down by only a few percent.
#[test]
fn churned_population_matches_birth_death_stationarity() {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 3.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    // ~120-step trajectories: P(lifetime > trajectory) = e^{-7.5}, so
    // trajectory truncation never biases the lifetime distribution.
    let spec = HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(120)),
        policy: PolicyKind::Hysteresis { margin_db: 4.0 },
        trajectory_seed: 4242,
        cell_radius_km: 2.0,
    };
    // rate = (650 − 10) / 1024 per step; rate × 16 = 10 = initial_ues.
    let churn = ChurnConfig { initial_ues: 10, horizon_steps: 1024, mean_lifetime_steps: 16.0 };
    let result = FleetSimulation::new(cfg)
        .with_workers(4)
        .with_dynamics(DynamicsConfig { churn: Some(churn), ..DynamicsConfig::none() })
        .try_run_ids(&spec, &ue_ids(650), 77)
        .expect("fleet run");
    let report = result.dynamics.expect("churn attaches the dynamic report");
    assert!(report.timeline_steps >= 1024, "timeline {} spans the horizon", report.timeline_steps);
    // Nearly every UE churns in after step 0 (arrival step 0 is drawn
    // with probability 1/1024 per late UE) and back out again.
    assert!(report.arrivals >= 630, "arrivals = {}", report.arrivals);
    assert!(report.departures >= 600, "departures = {}", report.departures);
    // Stationary mean 10; time-averaging over ~64 lifetime-sized
    // correlation windows gives σ ≈ 0.4, and the post-horizon decay
    // tail is worth a few percent downward — ±2 is a generous band.
    assert!(
        (report.mean_population - 10.0).abs() <= 2.0,
        "mean population {} vs stationary 10",
        report.mean_population
    );
    assert!(
        report.peak_population >= 10 && report.peak_population <= 40,
        "peak population {} should be a plausible Poisson(10) extreme",
        report.peak_population
    );
    // Conservation: mean population × timeline = total UE-steps.
    let recovered = report.mean_population * report.timeline_steps as f64;
    assert!(
        (recovered - result.summary.steps as f64).abs() < 1.0,
        "population integral {} vs summary steps {}",
        recovered,
        result.summary.steps
    );
}

fn two_cells() -> Vec<Axial> {
    vec![Axial::ORIGIN, Axial::new(1, 0)]
}

/// Contract 2: the inhomogeneous-Poisson arrival thinning preserves the
/// mean offered load (the wave's mean intensity is 1) while the carried
/// occupancy follows the wave: with amplitude 0.9 the crest-window
/// occupancy must be a clear multiple of the trough-window occupancy.
#[test]
fn tidal_carried_load_tracks_the_offered_wave() {
    let steps = 1200u64;
    let period = 400u64;
    let cfg = TrafficConfig {
        channels_per_cell: 250, // more channels than UEs: no blocking
        guard_channels: 0,
        mean_idle_steps: 6.0,
        mean_holding_steps: 4.0,
        load_feedback: false,
    };
    let traces: Vec<UeTrace> = (0..200).map(|id| UeTrace::pinned(id, steps, 0)).collect();
    let wave = TidalWave { period_steps: period, amplitude: 0.9, phase_per_q: 0.0 };
    let tidal = DynamicsConfig { tide: Some(wave), ..DynamicsConfig::none() };
    let (flat_report, _, _) =
        replay_traffic_dynamic(&cfg, &two_cells(), &traces, 99, &DynamicsConfig::none())
            .expect("flat replay");
    let (report, field, _) =
        replay_traffic_dynamic(&cfg, &two_cells(), &traces, 99, &tidal).expect("tidal replay");
    // Mean intensity 1 ⇒ the offered-call volume survives the rescaling.
    let ratio = report.offered_calls as f64 / flat_report.offered_calls as f64;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "tidal offered {} vs flat {} (ratio {ratio:.3})",
        report.offered_calls,
        flat_report.offered_calls
    );
    assert_eq!(report.blocked_calls, 0, "capacity 100 never blocks");
    // Crest windows (intensity ≥ 1.6) vs trough windows (≤ 0.4),
    // skipping the first period while occupancy spins up.
    let mut crest = (0.0, 0u64);
    let mut trough = (0.0, 0u64);
    for s in period..steps {
        let intensity = wave.intensity(s, 0);
        let u = field.utilization(Axial::ORIGIN, s as usize);
        if intensity >= 1.6 {
            crest = (crest.0 + u, crest.1 + 1);
        } else if intensity <= 0.4 {
            trough = (trough.0 + u, trough.1 + 1);
        }
    }
    assert!(crest.1 > 0 && trough.1 > 0);
    let crest_mean = crest.0 / crest.1 as f64;
    let trough_mean = trough.0 / trough.1 as f64;
    assert!(
        crest_mean > 2.0 * trough_mean,
        "crest occupancy {crest_mean:.4} must dominate trough {trough_mean:.4}"
    );
}

/// Contract 3 (exact): when a cell shuts down, the calls lost to the
/// failure at that instant are exactly the calls occupying the cell on
/// the previous step — pinned UEs have nowhere to relocate, so every
/// occupant strands — and the occupancy timeline drops to zero for the
/// whole outage.
#[test]
fn failure_eviction_equals_occupancy_at_shutdown() {
    let steps = 60u64;
    let from = 30u64;
    let cfg = TrafficConfig {
        channels_per_cell: 5,
        guard_channels: 0,
        mean_idle_steps: 3.0,
        mean_holding_steps: 1e6, // calls never end naturally
        load_feedback: false,
    };
    let cell = Axial::new(1, 0);
    let traces: Vec<UeTrace> = (0..40).map(|id| UeTrace::pinned(id, steps, 1)).collect();
    let dynamics = DynamicsConfig {
        failures: vec![CellOutage { cell, from_step: from, until_step: steps }],
        ..DynamicsConfig::none()
    };
    let (report, field, stats) =
        replay_traffic_dynamic(&cfg, &two_cells(), &traces, 4321, &dynamics).expect("replay");
    let occupied_before =
        (field.utilization(cell, from as usize - 1) * cfg.channels_per_cell as f64).round() as u64;
    assert!(occupied_before > 0, "the cell must be carrying calls when it fails");
    assert_eq!(
        stats.failure_dropped_calls, occupied_before,
        "every occupant strands exactly once"
    );
    assert_eq!(stats.failure_evicted_calls, 0, "pinned UEs never relocate");
    assert!(stats.failure_erlangs > 0.0);
    for s in from..steps {
        assert_eq!(field.utilization(cell, s as usize), 0.0, "dead cell carries nothing at step {s}");
    }
    // Ordinary handover accounting is untouched: pinned traces attempt
    // no handover, so nothing lands in the dropped column.
    assert_eq!(report.handover_attempts, 0);
    assert_eq!(report.dropped_calls, 0);
}

/// Regression (churn accounting audit): a UE departing mid-call must
/// release its channel the moment its trace ends — the occupancy
/// timeline can never exceed the number of still-alive traces at any
/// step, and effectively-immortal calls make any stale-slot leak show
/// up as an occupancy floor that outlives its UE.
#[test]
fn departing_ues_release_their_channels() {
    let cfg = TrafficConfig {
        channels_per_cell: 64,
        guard_channels: 0,
        mean_idle_steps: 1.0,
        mean_holding_steps: 1e6, // a leaked slot would never clear itself
        load_feedback: false,
    };
    // Staggered departures: UE i lives 10 + 6i steps.
    let traces: Vec<UeTrace> =
        (0..12).map(|id| UeTrace::pinned(id, 10 + 6 * id, 0)).collect();
    let last = traces.last().unwrap().steps;
    let (report, field, _) =
        replay_traffic_dynamic(&cfg, &two_cells(), &traces, 2024, &DynamicsConfig::none())
            .expect("replay");
    assert!(report.carried_calls > 0);
    for s in 0..last {
        let alive = traces.iter().filter(|t| s < t.steps).count();
        let occupied = (field.utilization(Axial::ORIGIN, s as usize)
            * cfg.channels_per_cell as f64)
            .round() as usize;
        assert!(
            occupied <= alive,
            "step {s}: {occupied} channels busy but only {alive} UEs alive — stale slot leak"
        );
    }
    // The last surviving UE is the only possible occupant at the end.
    let end = (field.utilization(Axial::ORIGIN, last as usize - 1)
        * cfg.channels_per_cell as f64)
        .round() as usize;
    assert!(end <= 1, "final step carries {end} calls for one alive UE");
}

/// Regression (churn histogram audit): with churn retiring UEs mid-run
/// and arenas recycling their slots, the serving-load histogram must
/// still record exactly one entry per UE-step — no double-counted or
/// dropped steps across slot reuse.
#[test]
fn churned_histogram_stays_conserved() {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
    cfg.noise = MeasurementNoise::new(1.0);
    cfg.sample_spacing_km = 0.2;
    let spec = HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 88,
        cell_radius_km: 2.0,
    };
    let churn = ChurnConfig { initial_ues: 8, horizon_steps: 10, mean_lifetime_steps: 6.0 };
    // Tiny chunks force slot recycling through the arena free list.
    let result = FleetSimulation::new(cfg)
        .with_workers(2)
        .with_chunk_size(3)
        .with_dynamics(DynamicsConfig { churn: Some(churn), ..DynamicsConfig::none() })
        .try_run_ids(&spec, &ue_ids(40), 55)
        .expect("fleet run");
    assert_eq!(
        result.cell_load.total(),
        result.summary.steps,
        "histogram entries must equal total UE-steps under churn"
    );
    let report = result.dynamics.expect("dynamic report");
    assert!(report.departures > 0, "short lifetimes must retire UEs");
    let integral = report.mean_population * report.timeline_steps as f64;
    assert!(
        (integral - result.summary.steps as f64).abs() < 1.0,
        "population integral {} vs UE-steps {}",
        integral,
        result.summary.steps
    );
}

/// Contract 4: guard channels reserved *against* a class bite under
/// congestion — with 2 of 3 channels guarded against data, data
/// blocking must clearly exceed voice blocking at identical offered
/// rates.
#[test]
fn extra_guard_channels_prioritize_voice_admission() {
    let steps = 800u64;
    let cfg = TrafficConfig {
        channels_per_cell: 3,
        guard_channels: 0,
        mean_idle_steps: 4.0,
        mean_holding_steps: 6.0,
        load_feedback: false,
    };
    let same = |extra| ServiceParams {
        mean_idle_steps: 4.0,
        mean_holding_steps: 6.0,
        extra_guard_channels: extra,
    };
    let traces: Vec<UeTrace> = (0..30).map(|id| UeTrace::pinned(id, steps, 0)).collect();
    let dynamics = DynamicsConfig {
        services: Some(ServiceMix { voice_share: 0.5, voice: same(0), data: same(2) }),
        ..DynamicsConfig::none()
    };
    let (_, _, stats) =
        replay_traffic_dynamic(&cfg, &two_cells(), &traces, 555, &dynamics).expect("replay");
    let voice = &stats.per_class[0];
    let data = &stats.per_class[1];
    assert!(voice.offered_calls > 50 && data.offered_calls > 50, "both classes saw load");
    assert!(
        data.blocking_probability() > voice.blocking_probability() + 0.05,
        "data P(block) {:.3} must exceed voice P(block) {:.3}",
        data.blocking_probability(),
        voice.blocking_probability()
    );
}
