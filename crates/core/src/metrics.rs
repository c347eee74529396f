//! Handover event accounting: counts, ping-pong detection, outage.

use cellgeom::Axial;
use serde::{Deserialize, Serialize};

/// One executed handover.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoverEvent {
    /// Measurement index (simulation step) at which it happened.
    pub step: usize,
    /// Path distance from the trajectory start, in km.
    pub at_km: f64,
    /// Previous serving cell.
    pub from: Axial,
    /// New serving cell.
    pub to: Axial,
    /// The HD value that triggered it (baselines report 1.0).
    pub hd: f64,
}

/// Summary of ping-pong behaviour in an event log.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PingPongReport {
    /// Total handovers.
    pub handovers: usize,
    /// Handovers that returned to the immediately previous serving cell
    /// within the detection window.
    pub ping_pongs: usize,
}

impl PingPongReport {
    /// Fraction of handovers that were ping-pongs (0 when none happened).
    pub fn ping_pong_ratio(&self) -> f64 {
        if self.handovers == 0 {
            0.0
        } else {
            self.ping_pongs as f64 / self.handovers as f64
        }
    }
}

/// An ordered log of handover events plus signal-quality accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<HandoverEvent>,
    steps: usize,
    outage_steps: usize,
}

impl EventLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a log from the parts its accessors expose
    /// ([`EventLog::events`], [`EventLog::step_count`],
    /// [`EventLog::outage_step_count`]); snapshot decoders use this.
    pub fn from_parts(events: Vec<HandoverEvent>, steps: usize, outage_steps: usize) -> Self {
        EventLog { events, steps, outage_steps }
    }

    /// Empty the log in place, keeping the event allocation — the fleet
    /// engine's chunk arenas recycle logs across UEs with this.
    pub fn clear(&mut self) {
        self.events.clear();
        self.steps = 0;
        self.outage_steps = 0;
    }

    /// Record an executed handover.
    pub fn record_handover(&mut self, event: HandoverEvent) {
        self.events.push(event);
    }

    /// Record one measurement step; `in_outage` when the serving RSS was
    /// below the service threshold.
    pub fn record_step(&mut self, in_outage: bool) {
        self.steps += 1;
        if in_outage {
            self.outage_steps += 1;
        }
    }

    /// All handover events, in order.
    pub fn events(&self) -> &[HandoverEvent] {
        &self.events
    }

    /// Number of handovers.
    pub fn handover_count(&self) -> usize {
        self.events.len()
    }

    /// Number of recorded measurement steps.
    pub fn step_count(&self) -> usize {
        self.steps
    }

    /// Number of recorded steps that were in outage.
    pub fn outage_step_count(&self) -> usize {
        self.outage_steps
    }

    /// Fraction of steps spent in outage (0 when no steps recorded).
    pub fn outage_ratio(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.outage_steps as f64 / self.steps as f64
        }
    }

    /// Count ping-pongs: a handover whose target equals the *source* of
    /// the previous handover, with at most `window_steps` steps between
    /// them. `A→B` then `B→A` within the window is one ping-pong.
    pub fn ping_pong_report(&self, window_steps: usize) -> PingPongReport {
        let mut ping_pongs = 0;
        for pair in self.events.windows(2) {
            let (first, second) = (&pair[0], &pair[1]);
            if second.to == first.from && second.step - first.step <= window_steps {
                ping_pongs += 1;
            }
        }
        PingPongReport { handovers: self.events.len(), ping_pongs }
    }

    /// The sequence of serving cells implied by the log, starting from
    /// `initial`.
    pub fn serving_sequence(&self, initial: Axial) -> Vec<Axial> {
        let mut seq = vec![initial];
        for e in &self.events {
            seq.push(e.to);
        }
        seq
    }
}

/// Per-cell serving-load histogram for a multi-UE (fleet) run: how many
/// UE measurement steps each cell spent as the serving cell. Cells are
/// fixed at construction (normally the layout's cell list); counts are
/// plain `u64` tallies, so merging partial histograms from parallel
/// workers is order-independent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLoadHistogram {
    cells: Vec<Axial>,
    counts: Vec<u64>,
}

impl CellLoadHistogram {
    /// Zeroed histogram over the given cells (order preserved).
    pub fn new(cells: impl IntoIterator<Item = Axial>) -> Self {
        let cells: Vec<Axial> = cells.into_iter().collect();
        assert!(!cells.is_empty(), "a load histogram needs at least one cell");
        let counts = vec![0; cells.len()];
        CellLoadHistogram { cells, counts }
    }

    /// Rebuild a histogram from the `(cell, count)` pairs
    /// [`CellLoadHistogram::iter`] yields; snapshot decoders use this.
    /// Like the serde form, it accepts an empty list.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Axial, u64)>) -> Self {
        let (cells, counts) = pairs.into_iter().unzip();
        CellLoadHistogram { cells, counts }
    }

    /// The tracked cells, in construction order.
    pub fn cells(&self) -> &[Axial] {
        &self.cells
    }

    /// Record one UE-step served by the cell at `cell_index` (the hot
    /// path: fleet engines address cells by layout index).
    pub fn record_index(&mut self, cell_index: usize) {
        self.counts[cell_index] += 1;
    }

    /// Record one UE-step served by `cell`; panics when the cell is not
    /// tracked.
    pub fn record(&mut self, cell: Axial) {
        let k = self
            .cells
            .iter()
            .position(|&c| c == cell)
            .expect("cell is tracked by the histogram");
        self.counts[k] += 1;
    }

    /// Served step count of a cell (0 for untracked cells).
    pub fn count(&self, cell: Axial) -> u64 {
        self.cells
            .iter()
            .position(|&c| c == cell)
            .map_or(0, |k| self.counts[k])
    }

    /// Total UE-steps across all cells.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// A cell's share of the total load (0 when nothing recorded).
    pub fn share(&self, cell: Axial) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(cell) as f64 / total as f64
        }
    }

    /// `(cell, count)` pairs in construction order.
    pub fn iter(&self) -> impl Iterator<Item = (Axial, u64)> + '_ {
        self.cells.iter().copied().zip(self.counts.iter().copied())
    }

    /// The most loaded cell and its count. Ties resolve to the earliest
    /// cell in construction order (histograms are never empty, so this
    /// always returns a cell).
    pub fn peak(&self) -> (Axial, u64) {
        let mut best = 0;
        for (k, &n) in self.counts.iter().enumerate() {
            if n > self.counts[best] {
                best = k;
            }
        }
        (self.cells[best], self.counts[best])
    }

    /// Absorb another histogram over the *same* cell list (panics
    /// otherwise). Used to merge per-worker partial tallies.
    pub fn merge(&mut self, other: &CellLoadHistogram) {
        assert_eq!(self.cells, other.cells, "histograms track different cells");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

/// Aggregate fleet-level metrics over many UEs: a commutative monoid so
/// per-UE tallies can be folded in any grouping (though deterministic
/// engines fold in UE-id order to keep the `f64` sums bit-stable).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Number of UEs aggregated.
    pub ues: u64,
    /// Total measurement steps across all UEs.
    pub steps: u64,
    /// Total executed handovers.
    pub handovers: u64,
    /// Total ping-pongs (window from the simulation config).
    pub ping_pongs: u64,
    /// Total steps spent in outage.
    pub outage_steps: u64,
    /// Sum of all FLC outputs observed (0 when the policy never ran it).
    pub hd_sum: f64,
    /// Number of FLC outputs observed.
    pub hd_count: u64,
}

impl FleetSummary {
    /// Fold another summary (or per-UE tally) into this one.
    pub fn absorb(&mut self, other: &FleetSummary) {
        self.ues += other.ues;
        self.steps += other.steps;
        self.handovers += other.handovers;
        self.ping_pongs += other.ping_pongs;
        self.outage_steps += other.outage_steps;
        self.hd_sum += other.hd_sum;
        self.hd_count += other.hd_count;
    }

    /// Mean handovers per UE (0 for an empty fleet).
    pub fn handovers_per_ue(&self) -> f64 {
        if self.ues == 0 {
            0.0
        } else {
            self.handovers as f64 / self.ues as f64
        }
    }

    /// Handover rate per measurement step (0 when no steps ran).
    pub fn handover_rate_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.handovers as f64 / self.steps as f64
        }
    }

    /// Fraction of handovers that were ping-pongs (0 when none happened).
    pub fn ping_pong_ratio(&self) -> f64 {
        if self.handovers == 0 {
            0.0
        } else {
            self.ping_pongs as f64 / self.handovers as f64
        }
    }

    /// Fraction of UE-steps spent in outage (0 when no steps ran).
    pub fn outage_ratio(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.outage_steps as f64 / self.steps as f64
        }
    }

    /// Mean FLC output across the fleet; `None` when no policy ever ran
    /// the FLC (conventional baselines) — the same contract as
    /// `McSummary::mean_hd`, so "no data" never serializes as NaN.
    pub fn mean_hd(&self) -> Option<f64> {
        if self.hd_count == 0 {
            None
        } else {
            Some(self.hd_sum / self.hd_count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(step: usize, from: (i32, i32), to: (i32, i32)) -> HandoverEvent {
        HandoverEvent {
            step,
            at_km: step as f64 * 0.05,
            from: Axial::new(from.0, from.1),
            to: Axial::new(to.0, to.1),
            hd: 0.75,
        }
    }

    #[test]
    fn empty_log() {
        let log = EventLog::new();
        assert_eq!(log.handover_count(), 0);
        assert_eq!(log.outage_ratio(), 0.0);
        let pp = log.ping_pong_report(10);
        assert_eq!(pp.handovers, 0);
        assert_eq!(pp.ping_pongs, 0);
        assert_eq!(pp.ping_pong_ratio(), 0.0);
    }

    #[test]
    fn ping_pong_detected() {
        let mut log = EventLog::new();
        log.record_handover(ev(10, (0, 0), (1, 0)));
        log.record_handover(ev(14, (1, 0), (0, 0))); // back within 4 steps
        let pp = log.ping_pong_report(10);
        assert_eq!(pp.handovers, 2);
        assert_eq!(pp.ping_pongs, 1);
        assert_eq!(pp.ping_pong_ratio(), 0.5);
    }

    #[test]
    fn slow_return_is_not_ping_pong() {
        let mut log = EventLog::new();
        log.record_handover(ev(10, (0, 0), (1, 0)));
        log.record_handover(ev(200, (1, 0), (0, 0))); // way outside window
        let pp = log.ping_pong_report(10);
        assert_eq!(pp.ping_pongs, 0);
    }

    #[test]
    fn forward_progress_is_not_ping_pong() {
        let mut log = EventLog::new();
        log.record_handover(ev(10, (0, 0), (1, 0)));
        log.record_handover(ev(12, (1, 0), (2, -1))); // onward, not back
        assert_eq!(log.ping_pong_report(10).ping_pongs, 0);
    }

    #[test]
    fn triple_flip_counts_twice() {
        let mut log = EventLog::new();
        log.record_handover(ev(10, (0, 0), (1, 0)));
        log.record_handover(ev(12, (1, 0), (0, 0)));
        log.record_handover(ev(14, (0, 0), (1, 0)));
        let pp = log.ping_pong_report(10);
        assert_eq!(pp.handovers, 3);
        assert_eq!(pp.ping_pongs, 2, "A→B→A→B is two ping-pongs");
    }

    #[test]
    fn outage_accounting() {
        let mut log = EventLog::new();
        for k in 0..10 {
            log.record_step(k >= 8);
        }
        assert_eq!(log.step_count(), 10);
        assert!((log.outage_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn serving_sequence() {
        let mut log = EventLog::new();
        log.record_handover(ev(5, (0, 0), (0, 1)));
        log.record_handover(ev(9, (0, 1), (-1, 1)));
        let seq = log.serving_sequence(Axial::ORIGIN);
        assert_eq!(seq, vec![Axial::ORIGIN, Axial::new(0, 1), Axial::new(-1, 1)]);
    }

    #[test]
    fn serde_round_trip() {
        let mut log = EventLog::new();
        log.record_handover(ev(3, (0, 0), (1, 0)));
        log.record_step(false);
        let back: EventLog = serde_json::from_str(&serde_json::to_string(&log).unwrap()).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn outage_step_count_matches_ratio() {
        let mut log = EventLog::new();
        for k in 0..5 {
            log.record_step(k < 2);
        }
        assert_eq!(log.outage_step_count(), 2);
        assert!((log.outage_ratio() - 0.4).abs() < 1e-12);
    }

    fn three_cells() -> Vec<Axial> {
        vec![Axial::ORIGIN, Axial::new(1, 0), Axial::new(0, 1)]
    }

    #[test]
    fn load_histogram_records_and_shares() {
        let mut h = CellLoadHistogram::new(three_cells());
        assert_eq!(h.total(), 0);
        assert_eq!(h.share(Axial::ORIGIN), 0.0, "no division by zero");
        h.record_index(0);
        h.record_index(0);
        h.record(Axial::new(1, 0));
        assert_eq!(h.count(Axial::ORIGIN), 2);
        assert_eq!(h.count(Axial::new(1, 0)), 1);
        assert_eq!(h.count(Axial::new(5, 5)), 0, "untracked cell");
        assert_eq!(h.total(), 3);
        assert!((h.share(Axial::ORIGIN) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.peak(), (Axial::ORIGIN, 2));
        assert_eq!(h.iter().count(), 3);
    }

    #[test]
    fn load_histogram_merges_worker_partials() {
        let mut a = CellLoadHistogram::new(three_cells());
        let mut b = CellLoadHistogram::new(three_cells());
        a.record_index(0);
        b.record_index(0);
        b.record_index(2);
        a.merge(&b);
        assert_eq!(a.count(Axial::ORIGIN), 2);
        assert_eq!(a.count(Axial::new(0, 1)), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "different cells")]
    fn load_histogram_merge_rejects_mismatched_cells() {
        let mut a = CellLoadHistogram::new(three_cells());
        let b = CellLoadHistogram::new(vec![Axial::ORIGIN]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "tracked")]
    fn load_histogram_rejects_unknown_cell_record() {
        let mut h = CellLoadHistogram::new(vec![Axial::ORIGIN]);
        h.record(Axial::new(3, 3));
    }

    #[test]
    fn load_histogram_serde_round_trip() {
        let mut h = CellLoadHistogram::new(three_cells());
        h.record_index(1);
        let back: CellLoadHistogram =
            serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn fleet_summary_rates() {
        let mut s = FleetSummary::default();
        assert_eq!(s.handovers_per_ue(), 0.0);
        assert_eq!(s.handover_rate_per_step(), 0.0);
        assert_eq!(s.ping_pong_ratio(), 0.0);
        assert_eq!(s.outage_ratio(), 0.0);
        assert_eq!(s.mean_hd(), None, "no FLC data is None, never NaN");
        s.absorb(&FleetSummary {
            ues: 2,
            steps: 100,
            handovers: 10,
            ping_pongs: 2,
            outage_steps: 5,
            hd_sum: 6.0,
            hd_count: 8,
        });
        s.absorb(&FleetSummary { ues: 2, steps: 100, ..FleetSummary::default() });
        assert_eq!(s.ues, 4);
        assert!((s.handovers_per_ue() - 2.5).abs() < 1e-12);
        assert!((s.handover_rate_per_step() - 0.05).abs() < 1e-12);
        assert!((s.ping_pong_ratio() - 0.2).abs() < 1e-12);
        assert!((s.outage_ratio() - 0.025).abs() < 1e-12);
        assert_eq!(s.mean_hd(), Some(0.75));
    }

    #[test]
    fn fleet_summary_serde_round_trip_without_nan() {
        let s = FleetSummary { ues: 1, steps: 3, ..FleetSummary::default() };
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("NaN") && !json.contains("null"), "{json}");
        let back: FleetSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
