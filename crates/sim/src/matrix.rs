//! Scenario-matrix runner: sweep the fleet engine across
//! {UE count} × {mobility model} × {speed} × {policy} × {traffic level}
//! × {dynamic workload} and aggregate the fleet-level metrics (handover
//! rate, ping-pong rate, outage ratio, per-cell load histogram, call
//! blocking/dropping, churn/fairness/failure accounting) into the
//! existing [`table`](crate::table) and [`series`](crate::series)
//! reporting types.

use crate::dynamics::DynamicsConfig;
use crate::engine::SimConfig;
use crate::fleet::{
    CandidateMode, FleetError, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use crate::resilience::validate_planes;
use crate::series::Series;
use crate::table::{fmt_f, TextTable};
use crate::traffic::TrafficConfig;
use handover_core::{CellLoadHistogram, DynamicReport, FleetSummary, TrafficReport};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer deriving each matrix cell's seed from the master
/// seed. A plain golden-ratio stride (like the per-UE one) would make
/// adjacent cells share almost their whole per-UE measurement seed set
/// (`base + kφ + jφ = base + (k+1)φ + (j-1)φ`); the avalanche mix keeps
/// every cell's seed set disjoint in practice.
fn cell_seed(base_seed: u64, cell_index: u64) -> u64 {
    let mut z = base_seed ^ cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A full sweep specification. Axes are swept in nesting order
/// UE count → mobility → speed → policy → traffic → dynamics; each
/// combination ("matrix cell") runs one fleet with its own
/// deterministic seed derived from `base_seed` and the cell index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    /// Base simulation configuration (`speed_kmh` is overridden per cell).
    pub base: SimConfig,
    /// Fleet sizes to sweep.
    pub ue_counts: Vec<u64>,
    /// Mobility models to sweep.
    pub mobilities: Vec<FleetMobility>,
    /// MS speeds to sweep, km/h.
    pub speeds_kmh: Vec<f64>,
    /// Handover policies to sweep.
    pub policies: Vec<PolicyKind>,
    /// Traffic levels to sweep: `None` runs the plain, traffic-free
    /// fleet (the byte-pinned legacy behaviour), `Some(config)` attaches
    /// the cell-load traffic plane at that intensity. Use `vec![None]`
    /// to sweep no traffic axis at all.
    pub traffics: Vec<Option<TrafficConfig>>,
    /// Dynamic-workload levels to sweep (the innermost axis): `None`
    /// runs the static fleet, `Some(config)` attaches the
    /// churn/tide/failure/service plane ([`DynamicsConfig`]). Inert
    /// configurations normalize away inside the fleet builder, so a
    /// `Some(DynamicsConfig::none())` cell is bit-identical to a `None`
    /// one. Use `vec![None]` to sweep no dynamics axis at all.
    pub dynamics: Vec<Option<DynamicsConfig>>,
    /// Master seed; every matrix cell derives its own streams from it.
    pub base_seed: u64,
    /// Crossbeam workers per fleet run (intra-cell parallelism).
    pub workers: usize,
    /// Matrix cells run concurrently (cell-level parallelism). Every
    /// cell's result is a pure function of its own spec and seed, so the
    /// report is bit-identical — and in identical sweep order — for any
    /// value; the total thread budget is `matrix_workers × workers`.
    ///
    /// Serialized specs must carry this field and `candidate_mode`
    /// explicitly (the vendored offline `serde_derive` subset has no
    /// `#[serde(default)]` support).
    pub matrix_workers: usize,
    /// Candidate measurement mode every fleet runs under (see
    /// [`CandidateMode`]); the dense, byte-pinned [`CandidateMode::All`]
    /// unless opted in.
    pub candidate_mode: CandidateMode,
}

impl ScenarioMatrix {
    /// A small smoke-test default over the paper configuration: 100 UEs,
    /// all four standard mobility models, two speeds, fuzzy (exact and
    /// LUT-ablation planes) vs 4 dB hysteresis.
    pub fn small_default() -> Self {
        ScenarioMatrix {
            base: SimConfig::paper_default(),
            ue_counts: vec![100],
            mobilities: FleetMobility::standard_four(6),
            speeds_kmh: vec![0.0, 30.0],
            policies: vec![
                PolicyKind::Fuzzy,
                PolicyKind::FuzzyLut,
                PolicyKind::Hysteresis { margin_db: 4.0 },
            ],
            traffics: vec![None],
            dynamics: vec![None],
            base_seed: 0xF1EE7,
            workers: 4,
            matrix_workers: 1,
            candidate_mode: CandidateMode::All,
        }
    }

    /// Total number of matrix cells.
    pub fn len(&self) -> usize {
        self.ue_counts.len()
            * self.mobilities.len()
            * self.speeds_kmh.len()
            * self.policies.len()
            * self.traffics.len()
            * self.dynamics.len()
    }

    /// True when any axis is empty (the matrix sweeps nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sweep-order list of matrix-cell specifications, each carrying
    /// its deterministic derived seed.
    fn cell_specs(&self) -> Vec<CellSpec> {
        let mut specs = Vec::with_capacity(self.len());
        let mut cell_index = 0u64;
        for &ue_count in &self.ue_counts {
            for &mobility in &self.mobilities {
                for &speed_kmh in &self.speeds_kmh {
                    for &policy in &self.policies {
                        for &traffic in &self.traffics {
                            for dynamics in &self.dynamics {
                                specs.push(CellSpec {
                                    ue_count,
                                    mobility,
                                    speed_kmh,
                                    policy,
                                    traffic,
                                    dynamics: dynamics.clone(),
                                    seed: cell_seed(self.base_seed, cell_index),
                                });
                                cell_index += 1;
                            }
                        }
                    }
                }
            }
        }
        specs
    }

    /// Run one matrix cell, surfacing fleet failures as values.
    fn try_run_cell(&self, spec: &CellSpec) -> Result<MatrixCellResult, FleetError> {
        let mut cfg = self.base.clone();
        cfg.speed_kmh = spec.speed_kmh;
        // Typed rejection up front: `FleetSimulation::new` still checks
        // the SimConfig eagerly.
        validate_planes(&cfg, spec.traffic.as_ref(), spec.dynamics.as_ref())?;
        let cell_radius_km = cfg.layout.cell_radius_km();
        let mut fleet = FleetSimulation::new(cfg)
            .with_workers(self.workers.max(1))
            .with_candidate_mode(self.candidate_mode);
        if let Some(traffic) = spec.traffic {
            fleet = fleet.with_traffic(traffic);
        }
        if let Some(dynamics) = spec.dynamics.clone() {
            fleet = fleet.with_dynamics(dynamics);
        }
        // Label from the *normalized* plane: an inert dynamics spec ran
        // the static engine, so its cell reports as dynamics-free.
        let dynamics_label = fleet.dynamics().map(DynamicsConfig::label);
        // HomogeneousFleet domain-separates the trajectory stream
        // itself, so the one cell seed safely feeds both.
        let ue_spec = HomogeneousFleet {
            mobility: spec.mobility,
            policy: spec.policy,
            trajectory_seed: spec.seed,
            cell_radius_km,
        };
        let ids: Vec<u64> = (0..spec.ue_count).collect();
        let result = fleet.try_run_ids(&ue_spec, &ids, spec.seed)?;
        Ok(MatrixCellResult {
            ue_count: spec.ue_count,
            mobility: spec.mobility.label().to_string(),
            speed_kmh: spec.speed_kmh,
            policy: spec.policy.label().to_string(),
            traffic_label: spec.traffic.map(|t| t.label()),
            dynamics_label,
            summary: result.summary,
            cell_load: result.cell_load,
            traffic: result.traffic,
            dynamics: result.dynamics,
        })
    }

    /// Run every matrix cell. With `matrix_workers > 1` the cells run
    /// concurrently (round-robin sharded over crossbeam workers, like the
    /// fleet engine's UE sharding); the report is merged back into sweep
    /// order, so the result is identical for every worker count. An
    /// invalid configuration or a panicking fleet worker surfaces as the
    /// [`FleetError`] of the *first failing cell in sweep order* — the
    /// same error for every `matrix_workers` value, because each cell's
    /// outcome is a pure function of its own spec and seed.
    pub fn try_run(&self) -> Result<MatrixResult, FleetError> {
        let specs = self.cell_specs();
        let matrix_workers = self.matrix_workers.clamp(1, specs.len().max(1));
        if matrix_workers == 1 {
            return Ok(MatrixResult {
                cells: specs
                    .iter()
                    .map(|s| self.try_run_cell(s))
                    .collect::<Result<Vec<_>, _>>()?,
            });
        }

        let collected: Mutex<Vec<(usize, Result<MatrixCellResult, FleetError>)>> =
            Mutex::new(Vec::with_capacity(specs.len()));
        crossbeam::scope(|scope| {
            for w in 0..matrix_workers {
                let collected = &collected;
                let specs = &specs;
                scope.spawn(move |_| {
                    for (index, spec) in
                        specs.iter().enumerate().skip(w).step_by(matrix_workers)
                    {
                        let cell = self.try_run_cell(spec);
                        collected.lock().push((index, cell));
                    }
                });
            }
        })
        // invariant: cell panics are converted to FleetError values by
        // try_run_cell before they can unwind a matrix worker.
        .expect("matrix workers do not panic");

        let mut indexed = collected.into_inner();
        indexed.sort_by_key(|(index, _)| *index);
        let mut cells = Vec::with_capacity(indexed.len());
        for (_, cell) in indexed {
            cells.push(cell?);
        }
        Ok(MatrixResult { cells })
    }
}

/// One matrix cell's input specification (internal; the sweep-order unit
/// handed to workers).
#[derive(Debug, Clone)]
struct CellSpec {
    ue_count: u64,
    mobility: FleetMobility,
    speed_kmh: f64,
    policy: PolicyKind,
    traffic: Option<TrafficConfig>,
    dynamics: Option<DynamicsConfig>,
    seed: u64,
}

/// One matrix cell's aggregated outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCellResult {
    /// Fleet size.
    pub ue_count: u64,
    /// Mobility-model label.
    pub mobility: String,
    /// MS speed, km/h.
    pub speed_kmh: f64,
    /// Policy label.
    pub policy: String,
    /// Traffic-level label (`None` for traffic-free cells).
    pub traffic_label: Option<String>,
    /// Dynamic-workload label (`None` for static cells, including cells
    /// whose dynamics spec normalized away as inert).
    pub dynamics_label: Option<String>,
    /// Fleet-level aggregate metrics.
    pub summary: FleetSummary,
    /// Per-cell serving-load histogram.
    pub cell_load: CellLoadHistogram,
    /// Traffic-plane accounting (`None` for traffic-free cells).
    pub traffic: Option<TrafficReport>,
    /// Dynamic-workload report (`None` for static cells).
    pub dynamics: Option<DynamicReport>,
}

impl MatrixCellResult {
    /// Compact configuration label, e.g. `1000ue/random-walk/30kmh/fuzzy`
    /// — traffic-enabled cells append the traffic level
    /// (`…/fuzzy/load0.40`), dynamics-enabled cells append the dynamics
    /// label (`…/churn10i-h100-l25+tide0.40p96`); static labels are
    /// byte-identical to the pre-traffic ones.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}ue/{}/{:.0}kmh/{}",
            self.ue_count, self.mobility, self.speed_kmh, self.policy
        );
        if let Some(traffic) = &self.traffic_label {
            label.push('/');
            label.push_str(traffic);
        }
        if let Some(dynamics) = &self.dynamics_label {
            label.push('/');
            label.push_str(dynamics);
        }
        label
    }
}

/// A fleet-level metric selectable for series extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixMetric {
    /// Mean handovers per UE.
    HandoversPerUe,
    /// Fraction of handovers that ping-ponged.
    PingPongRatio,
    /// Fraction of UE-steps in outage.
    OutageRatio,
    /// Mean FLC output (`None` when the policy never produced one — such
    /// cells contribute no series points, so NaN never reaches a
    /// serialized [`Series`]).
    MeanHd,
    /// New-call blocking probability of the traffic plane (`None` for
    /// traffic-free cells).
    BlockingProbability,
    /// Handover-call dropping probability of the traffic plane (`None`
    /// for traffic-free cells).
    DroppingProbability,
    /// Carried traffic in Erlangs, fleet-wide (`None` for traffic-free
    /// cells).
    CarriedErlangs,
    /// Jain fairness index of the per-cell serving load (`None` for
    /// cells without a dynamic-workload report).
    JainFairness,
    /// 90th-percentile handover dwell time in steps (`None` for cells
    /// without a dynamic-workload report or without any handover).
    HoDwellP90,
    /// Call-time in Erlangs lost to BS failure events (`None` unless
    /// the cell ran both a traffic plane and the dynamics plane).
    FailureErlangs,
}

impl MatrixMetric {
    /// Column/legend label.
    pub fn label(&self) -> &'static str {
        match self {
            MatrixMetric::HandoversPerUe => "HO/UE",
            MatrixMetric::PingPongRatio => "PP ratio",
            MatrixMetric::OutageRatio => "outage",
            MatrixMetric::MeanHd => "mean HD",
            MatrixMetric::BlockingProbability => "P(block)",
            MatrixMetric::DroppingProbability => "P(drop)",
            MatrixMetric::CarriedErlangs => "carried E",
            MatrixMetric::JainFairness => "Jain",
            MatrixMetric::HoDwellP90 => "dwell p90",
            MatrixMetric::FailureErlangs => "failure E",
        }
    }

    /// Extract the metric from a summary (`None` for
    /// [`MatrixMetric::MeanHd`] without FLC data, and always for the
    /// traffic metrics, which live on the cell's [`TrafficReport`] —
    /// use [`MatrixMetric::of_cell`] to read those too).
    pub fn of(&self, summary: &FleetSummary) -> Option<f64> {
        match self {
            MatrixMetric::HandoversPerUe => Some(summary.handovers_per_ue()),
            MatrixMetric::PingPongRatio => Some(summary.ping_pong_ratio()),
            MatrixMetric::OutageRatio => Some(summary.outage_ratio()),
            MatrixMetric::MeanHd => summary.mean_hd(),
            MatrixMetric::BlockingProbability
            | MatrixMetric::DroppingProbability
            | MatrixMetric::CarriedErlangs
            | MatrixMetric::JainFairness
            | MatrixMetric::HoDwellP90
            | MatrixMetric::FailureErlangs => None,
        }
    }

    /// Extract the metric from a whole matrix cell: fleet metrics from
    /// its summary, traffic metrics from its [`TrafficReport`] (`None`
    /// when the cell ran without a traffic plane).
    pub fn of_cell(&self, cell: &MatrixCellResult) -> Option<f64> {
        match self {
            MatrixMetric::BlockingProbability => {
                cell.traffic.as_ref().map(|t| t.blocking_probability())
            }
            MatrixMetric::DroppingProbability => {
                cell.traffic.as_ref().map(|t| t.dropping_probability())
            }
            MatrixMetric::CarriedErlangs => cell.traffic.as_ref().map(|t| t.carried_erlangs),
            MatrixMetric::JainFairness => cell.dynamics.as_ref().map(|d| d.jain_cell_load),
            MatrixMetric::HoDwellP90 => cell
                .dynamics
                .as_ref()
                .filter(|d| d.ho_dwell.samples > 0)
                .map(|d| d.ho_dwell.p90 as f64),
            MatrixMetric::FailureErlangs => cell
                .dynamics
                .as_ref()
                .and_then(|d| d.traffic.as_ref())
                .map(|t| t.failure_erlangs),
            _ => self.of(&cell.summary),
        }
    }
}

/// All matrix cells, in sweep order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixResult {
    /// One entry per matrix cell.
    pub cells: Vec<MatrixCellResult>,
}

impl MatrixResult {
    /// The fleet-metric summary table: one row per matrix cell.
    pub fn summary_table(&self) -> TextTable {
        let mut t = TextTable::new("Scenario matrix — fleet metrics").headers([
            "UEs",
            "Mobility",
            "Speed",
            "Policy",
            "Steps",
            "HO/UE",
            "PP ratio",
            "Outage",
            "Mean HD",
            "Peak cell",
            "Peak load",
        ]);
        for c in &self.cells {
            let (peak_cell, _) = c.cell_load.peak();
            t.row([
                c.ue_count.to_string(),
                c.mobility.clone(),
                format!("{:.0} km/h", c.speed_kmh),
                c.policy.clone(),
                c.summary.steps.to_string(),
                fmt_f(c.summary.handovers_per_ue(), 2),
                fmt_f(c.summary.ping_pong_ratio(), 3),
                fmt_f(c.summary.outage_ratio(), 3),
                c.summary.mean_hd().map_or_else(|| "-".to_string(), |hd| fmt_f(hd, 3)),
                format!("({}, {})", peak_cell.q, peak_cell.r),
                fmt_f(c.cell_load.share(peak_cell), 3),
            ]);
        }
        t
    }

    /// The per-cell load-histogram table: one row per layout cell, one
    /// column per matrix cell (capped at `max_configs` columns, clamped
    /// to at least 1). When configurations are cut, the cut is announced
    /// twice — in the title (`first N of M configs`) and by an explicit
    /// trailing `(+K more configs)` row — so a reader of the table body
    /// alone can never mistake the truncation for the full report.
    pub fn load_table(&self, max_configs: usize) -> TextTable {
        self.load_table_impl(max_configs, true)
    }

    /// `load_table` with the truncation-marker row made optional:
    /// [`MatrixResult::render`] keeps the marker off because the 18
    /// byte-pinned golden reports (`tests/golden/`,
    /// `tests/golden_radio/`) predate it — there the title's
    /// `first N of M configs` note is the only announcement.
    fn load_table_impl(&self, max_configs: usize, marker_row: bool) -> TextTable {
        let shown = self.cells.iter().take(max_configs.max(1)).collect::<Vec<_>>();
        let mut headers = vec!["Cell".to_string()];
        headers.extend(shown.iter().map(|c| c.label()));
        let hidden = self.cells.len() - shown.len();
        let title = if hidden > 0 {
            format!(
                "Per-cell load (UE-steps served; first {} of {} configs)",
                shown.len(),
                self.cells.len()
            )
        } else {
            "Per-cell load (UE-steps served)".to_string()
        };
        let mut t = TextTable::new(title).headers(headers);
        if let Some(first) = shown.first() {
            for &cell in first.cell_load.cells() {
                let mut row = vec![format!("({}, {})", cell.q, cell.r)];
                for c in &shown {
                    row.push(c.cell_load.count(cell).to_string());
                }
                t.row(row);
            }
        }
        if marker_row && hidden > 0 {
            t.row([format!("(+{hidden} more configs)")]);
        }
        t
    }

    /// The traffic-plane table: one row per traffic-enabled matrix cell
    /// — offered/blocked/dropped calls with their probabilities and the
    /// offered vs carried Erlang load. `None` when no cell ran with a
    /// traffic plane (so traffic-free reports don't change by a byte).
    pub fn traffic_table(&self) -> Option<TextTable> {
        if self.cells.iter().all(|c| c.traffic.is_none()) {
            return None;
        }
        let mut t = TextTable::new("Traffic plane — admission control").headers([
            "Config",
            "Chan/cell",
            "Guard",
            "Offered",
            "Blocked",
            "P(block)",
            "HO att.",
            "Dropped",
            "P(drop)",
            "Offered E",
            "Carried E",
        ]);
        for c in &self.cells {
            let Some(traffic) = &c.traffic else {
                continue;
            };
            t.row([
                c.label(),
                traffic.channels_per_cell.to_string(),
                traffic.guard_channels.to_string(),
                traffic.offered_calls.to_string(),
                traffic.blocked_calls.to_string(),
                fmt_f(traffic.blocking_probability(), 4),
                traffic.handover_attempts.to_string(),
                traffic.dropped_calls.to_string(),
                fmt_f(traffic.dropping_probability(), 4),
                fmt_f(traffic.offered_erlangs, 2),
                fmt_f(traffic.carried_erlangs, 2),
            ]);
        }
        Some(t)
    }

    /// The dynamic-workload table: one row per dynamics-enabled matrix
    /// cell — population churn, load fairness, handover dwell
    /// percentiles and the failure-loss accounting. `None` when no cell
    /// ran the dynamics plane (so static reports don't change by a
    /// byte).
    pub fn dynamics_table(&self) -> Option<TextTable> {
        if self.cells.iter().all(|c| c.dynamics.is_none()) {
            return None;
        }
        let mut t = TextTable::new("Dynamic workload — churn, fairness, failures").headers([
            "Config",
            "Steps",
            "Arrivals",
            "Departures",
            "Mean pop",
            "Peak pop",
            "Jain",
            "Dwell p50",
            "Dwell p90",
            "Evicted",
            "Fail-drop",
            "Failure E",
        ]);
        for c in &self.cells {
            let Some(d) = &c.dynamics else {
                continue;
            };
            let (evicted, fail_dropped, fail_erlangs) = d.traffic.as_ref().map_or_else(
                || ("-".to_string(), "-".to_string(), "-".to_string()),
                |t| {
                    (
                        t.failure_evicted_calls.to_string(),
                        t.failure_dropped_calls.to_string(),
                        fmt_f(t.failure_erlangs, 3),
                    )
                },
            );
            t.row([
                c.label(),
                d.timeline_steps.to_string(),
                d.arrivals.to_string(),
                d.departures.to_string(),
                fmt_f(d.mean_population, 1),
                d.peak_population.to_string(),
                fmt_f(d.jain_cell_load, 3),
                d.ho_dwell.p50.to_string(),
                d.ho_dwell.p90.to_string(),
                evicted,
                fail_dropped,
                fail_erlangs,
            ]);
        }
        Some(t)
    }

    /// Extract `(speed, metric)` series — one per (UE count, mobility,
    /// policy) combination — for plotting a metric against MS speed.
    /// Cells without data for the metric (e.g. mean HD under a policy
    /// that never produced one) contribute no point.
    pub fn series_over_speed(&self, metric: MatrixMetric) -> Vec<Series> {
        let mut out: Vec<(String, Series)> = Vec::new();
        for c in &self.cells {
            let Some(value) = metric.of_cell(c) else {
                continue;
            };
            let mut key = format!("{}ue/{}/{}", c.ue_count, c.mobility, c.policy);
            if let Some(traffic) = &c.traffic_label {
                key.push('/');
                key.push_str(traffic);
            }
            if let Some(dynamics) = &c.dynamics_label {
                key.push('/');
                key.push_str(dynamics);
            }
            let series = match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, s)) => s,
                None => {
                    let label = format!("{key} {}", metric.label());
                    out.push((key.clone(), Series::new(label)));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            series.push(c.speed_kmh, value);
        }
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// Render the full report: summary table + load histogram, plus the
    /// traffic-plane table when any cell ran one and the
    /// dynamic-workload table when any cell ran the dynamics plane.
    /// Static reports are byte-identical to the pre-traffic renderer
    /// (the 18 golden files pin this), which is also why the load
    /// histogram keeps the marker-free legacy layout here.
    pub fn render(&self) -> String {
        let mut out = self.summary_table().render();
        out.push('\n');
        out.push_str(&self.load_table_impl(8, false).render());
        if let Some(traffic) = self.traffic_table() {
            out.push('\n');
            out.push_str(&traffic.render());
        }
        if let Some(dynamics) = self.dynamics_table() {
            out.push('\n');
            out.push_str(&dynamics.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> ScenarioMatrix {
        let mut m = ScenarioMatrix::small_default();
        m.ue_counts = vec![6];
        m.mobilities.truncate(2);
        m.speeds_kmh = vec![0.0, 40.0];
        m.policies = vec![PolicyKind::Fuzzy, PolicyKind::Hysteresis { margin_db: 4.0 }];
        m.workers = 2;
        m
    }

    #[test]
    fn sweeps_every_combination() {
        let m = tiny_matrix();
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
        let r = m.try_run().unwrap();
        assert_eq!(r.cells.len(), 8);
        // Sweep order: mobility outermost (single UE count), then speed,
        // then policy.
        assert_eq!(r.cells[0].mobility, "random-walk");
        assert_eq!(r.cells[0].policy, "fuzzy");
        assert_eq!(r.cells[1].policy, "hysteresis");
        assert_eq!(r.cells[0].speed_kmh, 0.0);
        assert_eq!(r.cells[2].speed_kmh, 40.0);
        assert_eq!(r.cells[4].mobility, "gauss-markov");
        for c in &r.cells {
            assert_eq!(c.ue_count, 6);
            assert!(c.summary.steps > 0, "{} ran", c.label());
            assert_eq!(c.cell_load.total(), c.summary.steps);
        }
    }

    #[test]
    fn matrix_runs_are_deterministic() {
        let m = tiny_matrix();
        assert_eq!(m.try_run().unwrap(), m.try_run().unwrap());
    }

    #[test]
    fn matrix_workers_never_change_the_report_or_its_order() {
        let mut m = tiny_matrix();
        let reference = m.try_run().unwrap();
        for matrix_workers in [2, 3, 8, 64] {
            m.matrix_workers = matrix_workers;
            let got = m.try_run().unwrap();
            assert_eq!(reference, got, "matrix_workers={matrix_workers}");
        }
        // Sweep order is part of the contract: labels come back in the
        // nesting order UE count → mobility → speed → policy.
        let labels: Vec<String> = reference.cells.iter().map(|c| c.label()).collect();
        assert_eq!(labels[0], "6ue/random-walk/0kmh/fuzzy");
        assert_eq!(labels[1], "6ue/random-walk/0kmh/hysteresis");
        assert_eq!(labels[2], "6ue/random-walk/40kmh/fuzzy");
    }

    #[test]
    fn pruned_candidate_mode_sweeps_and_stays_deterministic() {
        let mut m = tiny_matrix();
        m.candidate_mode = CandidateMode::Nearest(7);
        m.matrix_workers = 2;
        let a = m.try_run().unwrap();
        let b = m.try_run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cells.len(), 8);
        for c in &a.cells {
            assert!(c.summary.steps > 0, "{} ran", c.label());
            assert_eq!(c.cell_load.total(), c.summary.steps);
        }
        // Pruning with k covering the whole layout is the dense path:
        // bit-identical to CandidateMode::All.
        m.candidate_mode = CandidateMode::Nearest(19);
        assert_eq!(m.try_run().unwrap(), {
            let mut dense = tiny_matrix();
            dense.matrix_workers = 2;
            dense.try_run().unwrap()
        });
    }

    #[test]
    fn tables_render_all_rows_and_cells() {
        let r = tiny_matrix().try_run().unwrap();
        let summary = r.summary_table();
        assert_eq!(summary.row_count(), 8);
        let load = r.load_table(3);
        assert_eq!(load.row_count(), 20, "one row per layout cell + the truncation marker");
        let rendered = load.render();
        assert!(rendered.contains("first 3 of 8"));
        assert!(rendered.contains("(+5 more configs)"));
        assert!(rendered.contains("(0, 0)"));
        let full = r.render();
        assert!(full.contains("fleet metrics"));
        assert!(full.contains("Per-cell load"));
        assert!(
            !full.contains("Traffic plane"),
            "traffic-free reports never grow a traffic table"
        );
    }

    #[test]
    fn load_table_truncation_marker_at_the_cutoff_boundary() {
        let r = tiny_matrix().try_run().unwrap(); // 8 configs
        // max_configs == len: everything shown, no marker, legacy title.
        let exact = r.load_table(8);
        assert_eq!(exact.row_count(), 19);
        let exact_render = exact.render();
        assert!(exact_render.contains("Per-cell load (UE-steps served)"));
        assert!(!exact_render.contains("more configs"));
        // One below the boundary: marker row "(+1 more configs)".
        let cut = r.load_table(7);
        assert_eq!(cut.row_count(), 20);
        let cut_render = cut.render();
        assert!(cut_render.contains("first 7 of 8"));
        assert!(cut_render.contains("(+1 more configs)"));
        // Above the boundary: still no marker.
        assert!(!r.load_table(9).render().contains("more configs"));
        // Zero clamps to one shown config and announces the other 7.
        let clamped = r.load_table(0);
        assert!(clamped.render().contains("first 1 of 8"));
        assert!(clamped.render().contains("(+7 more configs)"));
        // render() keeps the byte-pinned legacy layout: truncation is
        // announced in the title only.
        let full = r.render();
        assert!(full.contains("first 8 of 8") || !full.contains("more configs"));
    }

    #[test]
    fn series_group_by_config_and_span_speeds() {
        let r = tiny_matrix().try_run().unwrap();
        let series = r.series_over_speed(MatrixMetric::HandoversPerUe);
        // 2 mobilities × 2 policies (UE count fixed).
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.points.len(), 2, "{}", s.label);
            assert_eq!(s.points[0].0, 0.0);
            assert_eq!(s.points[1].0, 40.0);
        }
    }

    #[test]
    fn empty_axis_means_empty_matrix() {
        let mut m = tiny_matrix();
        m.speeds_kmh.clear();
        assert!(m.is_empty());
        assert_eq!(m.try_run().unwrap().cells.len(), 0);
        assert_eq!(m.try_run().unwrap().load_table(4).row_count(), 0);
    }

    #[test]
    fn metric_labels_and_extraction() {
        let s = FleetSummary {
            ues: 2,
            steps: 10,
            handovers: 4,
            ping_pongs: 1,
            outage_steps: 5,
            hd_sum: 3.0,
            hd_count: 4,
        };
        assert_eq!(MatrixMetric::HandoversPerUe.of(&s), Some(2.0));
        assert_eq!(MatrixMetric::PingPongRatio.of(&s), Some(0.25));
        assert_eq!(MatrixMetric::OutageRatio.of(&s), Some(0.5));
        assert_eq!(MatrixMetric::MeanHd.of(&s), Some(0.75));
        assert_eq!(
            MatrixMetric::MeanHd.of(&FleetSummary::default()),
            None,
            "no FLC data never becomes a NaN series point"
        );
        assert_eq!(MatrixMetric::MeanHd.label(), "mean HD");
        // Traffic metrics live on the cell's TrafficReport, never on the
        // summary.
        assert_eq!(MatrixMetric::BlockingProbability.of(&s), None);
        assert_eq!(MatrixMetric::DroppingProbability.of(&s), None);
        assert_eq!(MatrixMetric::CarriedErlangs.of(&s), None);
        assert_eq!(MatrixMetric::BlockingProbability.label(), "P(block)");
        // Dynamics metrics live on the cell's DynamicReport, never on
        // the summary.
        assert_eq!(MatrixMetric::JainFairness.of(&s), None);
        assert_eq!(MatrixMetric::HoDwellP90.of(&s), None);
        assert_eq!(MatrixMetric::FailureErlangs.of(&s), None);
        assert_eq!(MatrixMetric::JainFairness.label(), "Jain");
        assert_eq!(MatrixMetric::HoDwellP90.label(), "dwell p90");
        assert_eq!(MatrixMetric::FailureErlangs.label(), "failure E");
    }

    fn loaded_tiny_matrix() -> ScenarioMatrix {
        let mut m = tiny_matrix();
        m.mobilities.truncate(1);
        m.speeds_kmh = vec![30.0];
        m.policies = vec![
            PolicyKind::Hysteresis { margin_db: 4.0 },
            PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 10.0 },
        ];
        m.traffics = vec![
            None,
            Some(TrafficConfig {
                channels_per_cell: 2,
                guard_channels: 0,
                mean_idle_steps: 4.0,
                mean_holding_steps: 6.0,
                load_feedback: true,
            }),
        ];
        m
    }

    #[test]
    fn traffic_axis_sweeps_and_reports() {
        let m = loaded_tiny_matrix();
        assert_eq!(m.len(), 4, "2 policies × 2 traffic levels");
        let r = m.try_run().unwrap();
        assert_eq!(r.cells.len(), 4);
        // Innermost axis: traffic level alternates fastest.
        assert_eq!(r.cells[0].traffic, None);
        assert!(r.cells[1].traffic.is_some());
        assert_eq!(r.cells[0].traffic_label, None);
        assert_eq!(r.cells[1].traffic_label.as_deref(), Some("load0.60-h6-c2g0-fb"));
        assert!(
            r.cells[1].label().ends_with("hysteresis/load0.60-h6-c2g0-fb"),
            "{}",
            r.cells[1].label()
        );
        let report = r.cells[1].traffic.as_ref().unwrap();
        assert!(report.offered_calls > 0);
        // Metrics resolve per cell: traffic metrics only where a plane ran.
        assert_eq!(MatrixMetric::BlockingProbability.of_cell(&r.cells[0]), None);
        assert!(MatrixMetric::BlockingProbability.of_cell(&r.cells[1]).is_some());
        assert!(MatrixMetric::HandoversPerUe.of_cell(&r.cells[0]).is_some());
        // Series skip the traffic-free cells for traffic metrics.
        let blocking = r.series_over_speed(MatrixMetric::BlockingProbability);
        assert_eq!(blocking.len(), 2, "one per traffic-enabled policy");
        // The render gains the traffic table.
        let full = r.render();
        assert!(full.contains("Traffic plane — admission control"));
        assert!(full.contains("load0.60"));
        let traffic_table = r.traffic_table().unwrap();
        assert_eq!(traffic_table.row_count(), 2, "one row per traffic-enabled cell");
    }

    #[test]
    fn traffic_matrix_is_deterministic_across_matrix_workers() {
        let mut m = loaded_tiny_matrix();
        let reference = m.try_run().unwrap();
        for matrix_workers in [2, 4] {
            m.matrix_workers = matrix_workers;
            assert_eq!(reference, m.try_run().unwrap(), "matrix_workers={matrix_workers}");
        }
    }

    #[test]
    fn passive_traffic_levels_never_perturb_the_fleet_metrics() {
        // The matrix-level differential: two sweeps differing only in
        // their *passive* traffic level (and the traffic-free sweep
        // itself, cell-for-cell in sweep order) must produce identical
        // fleet summaries and serving-load histograms — the traffic
        // plane only ever adds its report. The cell seeds depend on the
        // flattened sweep index, so all three matrices here keep a
        // single-level traffic axis (same indices, different level).
        let mut bare = tiny_matrix();
        bare.mobilities.truncate(1);
        bare.speeds_kmh = vec![30.0];
        let mut light = bare.clone();
        light.traffics = vec![Some(TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 4.0,
            mean_holding_steps: 6.0,
            load_feedback: false,
        })];
        let mut heavy = bare.clone();
        heavy.traffics = vec![Some(TrafficConfig {
            channels_per_cell: 6,
            guard_channels: 2,
            mean_idle_steps: 2.0,
            mean_holding_steps: 10.0,
            load_feedback: false,
        })];
        let bare = bare.try_run().unwrap();
        let light = light.try_run().unwrap();
        let heavy = heavy.try_run().unwrap();
        assert_eq!(bare.cells.len(), light.cells.len());
        for ((b, l), h) in bare.cells.iter().zip(&light.cells).zip(&heavy.cells) {
            assert_eq!(b.summary, l.summary, "{}", l.label());
            assert_eq!(b.summary, h.summary, "{}", h.label());
            assert_eq!(b.cell_load, l.cell_load, "{}", l.label());
            assert_eq!(b.cell_load, h.cell_load, "{}", h.label());
            assert_eq!(b.traffic, None);
            assert!(l.traffic.is_some() && h.traffic.is_some());
            assert_ne!(l.traffic, h.traffic, "different levels, different reports");
        }
    }

    #[test]
    fn mean_hd_series_skip_cells_without_flc_data() {
        // A policy that never fires produces no HD values anywhere: the
        // mean-HD series must be empty, not full of NaN points.
        let mut m = tiny_matrix();
        m.policies = vec![PolicyKind::Threshold { threshold_dbm: -500.0 }];
        let r = m.try_run().unwrap();
        assert!(r.series_over_speed(MatrixMetric::MeanHd).is_empty());
        // Metrics that always exist still produce full series.
        let ho = r.series_over_speed(MatrixMetric::HandoversPerUe);
        assert_eq!(ho.len(), 2, "one per mobility model");
        // And the rendered table shows "-" for the missing mean HD.
        assert!(r.summary_table().render().contains('-'));
    }

    fn city_level() -> DynamicsConfig {
        use crate::dynamics::{CellOutage, ChurnConfig, ServiceMix, ServiceParams, TidalWave};
        use cellgeom::Axial;
        DynamicsConfig {
            churn: Some(ChurnConfig {
                initial_ues: 3,
                horizon_steps: 6,
                mean_lifetime_steps: 8.0,
            }),
            tide: Some(TidalWave { period_steps: 4, amplitude: 0.5, phase_per_q: 0.25 }),
            failures: vec![CellOutage { cell: Axial::new(1, 0), from_step: 2, until_step: 5 }],
            services: Some(ServiceMix {
                voice_share: 0.6,
                voice: ServiceParams {
                    mean_idle_steps: 4.0,
                    mean_holding_steps: 3.0,
                    extra_guard_channels: 0,
                },
                data: ServiceParams {
                    mean_idle_steps: 5.0,
                    mean_holding_steps: 8.0,
                    extra_guard_channels: 1,
                },
            }),
        }
    }

    fn dynamic_tiny_matrix() -> ScenarioMatrix {
        let mut m = loaded_tiny_matrix();
        m.traffics.remove(0); // keep only the traffic-enabled level
        m.dynamics = vec![None, Some(city_level())];
        m
    }

    #[test]
    fn dynamics_axis_sweeps_and_reports() {
        let m = dynamic_tiny_matrix();
        assert_eq!(m.len(), 4, "2 policies × 1 traffic × 2 dynamics levels");
        let r = m.try_run().unwrap();
        assert_eq!(r.cells.len(), 4);
        // Innermost axis: the dynamics level alternates fastest.
        assert_eq!(r.cells[0].dynamics, None);
        assert_eq!(r.cells[0].dynamics_label, None);
        let dynamic = &r.cells[1];
        assert!(dynamic.dynamics.is_some(), "{}", dynamic.label());
        let label = dynamic.dynamics_label.as_deref().unwrap();
        assert!(label.starts_with("churn3i-"), "{label}");
        assert!(label.contains("tide0.50p4"), "{label}");
        assert!(label.contains("fail1"), "{label}");
        assert!(label.contains("svc0.60v"), "{label}");
        assert!(dynamic.label().ends_with(label), "{}", dynamic.label());
        let report = dynamic.dynamics.as_ref().unwrap();
        assert!(report.timeline_steps > 0);
        assert!(report.jain_cell_load > 0.0 && report.jain_cell_load <= 1.0);
        assert!(report.traffic.is_some(), "traffic plane ran, so the breakdown exists");
        // Metrics resolve per cell: dynamics metrics only where the plane ran.
        assert_eq!(MatrixMetric::JainFairness.of_cell(&r.cells[0]), None);
        assert!(MatrixMetric::JainFairness.of_cell(dynamic).is_some());
        assert!(MatrixMetric::FailureErlangs.of_cell(dynamic).is_some());
        // The render gains the dynamics table.
        let full = r.render();
        assert!(full.contains("Dynamic workload — churn, fairness, failures"));
        let table = r.dynamics_table().unwrap();
        assert_eq!(table.row_count(), 2, "one row per dynamics-enabled cell");
        // Static sweeps never grow the table.
        assert!(tiny_matrix().try_run().unwrap().dynamics_table().is_none());
    }

    #[test]
    fn inert_dynamics_level_is_identical_to_a_static_cell() {
        // Some(DynamicsConfig::none()) normalizes away inside the fleet
        // builder: the whole matrix result — labels included — must be
        // bit-identical to the None sweep (cell seeds match because both
        // keep a single-level dynamics axis).
        let mut bare = tiny_matrix();
        bare.mobilities.truncate(1);
        bare.speeds_kmh = vec![30.0];
        let mut inert = bare.clone();
        inert.dynamics = vec![Some(DynamicsConfig::none())];
        assert_eq!(bare.try_run().unwrap(), inert.try_run().unwrap());
    }

    #[test]
    fn dynamics_matrix_is_deterministic_across_matrix_workers() {
        let mut m = dynamic_tiny_matrix();
        let reference = m.try_run().unwrap();
        for matrix_workers in [2, 4] {
            m.matrix_workers = matrix_workers;
            assert_eq!(reference, m.try_run().unwrap(), "matrix_workers={matrix_workers}");
        }
    }

    #[test]
    fn dynamics_series_split_by_level() {
        let r = dynamic_tiny_matrix().try_run().unwrap();
        // HO/UE exists everywhere: one series per (policy, dynamics level).
        let ho = r.series_over_speed(MatrixMetric::HandoversPerUe);
        assert_eq!(ho.len(), 4);
        // Jain only where the dynamics plane ran.
        let jain = r.series_over_speed(MatrixMetric::JainFairness);
        assert_eq!(jain.len(), 2, "one per dynamics-enabled policy");
    }

    #[test]
    fn invalid_sweeps_surface_the_first_cells_typed_error() {
        use crate::resilience::ConfigError;

        let mut m = tiny_matrix();
        m.base.shadowing.sigma_db = f64::NAN;
        let err = m.try_run().expect_err("NaN sigma must not sweep");
        assert!(
            matches!(
                &err,
                FleetError::InvalidConfig(ConfigError::Negative { field, .. })
                    if *field == "shadowing sigma"
            ),
            "{err:?}"
        );
        // The same first-in-sweep-order error for every matrix worker
        // count.
        for matrix_workers in [2, 8] {
            m.matrix_workers = matrix_workers;
            // Debug-compare: the NaN payload makes the error non-equal to
            // itself under PartialEq.
            let again = m.try_run().expect_err("still invalid");
            assert_eq!(format!("{again:?}"), format!("{err:?}"));
        }

        // An out-of-layout outage cell is rejected before any fleet is
        // built.
        let mut m = tiny_matrix();
        m.dynamics = vec![Some(DynamicsConfig {
            failures: vec![crate::dynamics::CellOutage {
                cell: cellgeom::Axial::new(99, 99),
                from_step: 0,
                until_step: 5,
            }],
            ..DynamicsConfig::none()
        })];
        let err = m.try_run().expect_err("unknown outage cell must not sweep");
        assert!(
            matches!(&err, FleetError::InvalidConfig(ConfigError::UnknownCell { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn adjacent_matrix_cells_use_decorrelated_seeds() {
        // The SplitMix finalizer must not let cell k and k+1 share
        // almost their whole per-UE seed set, which the plain
        // golden-ratio stride would.
        use crate::ue_seed;
        let per_cell_seeds = |k: u64| -> std::collections::HashSet<u64> {
            (0..100).map(|j| ue_seed(cell_seed(42, k), j)).collect()
        };
        let a = per_cell_seeds(0);
        let b = per_cell_seeds(1);
        assert_eq!(a.intersection(&b).count(), 0, "cell seed sets overlap");
    }
}
