//! Replay parity: the traced layer replay must reproduce, bit for bit,
//! the per-UE outcomes the engine returns for the same UE ids — the
//! property that makes the per-layer times a description of the
//! engine's own work.

use perfbench::adapter;
use perfbench::fleet::population;
use perfbench::layers::Population;
use perfbench::probe::Probe;
use perfbench::replay::{parity, replay, ReplayConfig};
use perfbench::workloads::{self as wl, Sizes};

/// UEs replayed per population (kept small: tests may run unoptimized).
const SAMPLE: u64 = 24;

/// Check one population; returns the sample's handover count.
fn check(pop: &Population) -> u64 {
    let ids = wl::replay_ids(pop.n_ues, SAMPLE);
    let engine = adapter::run_outcomes(&pop.engine(), &pop.spec, &ids, pop.seed)
        .expect("the engine runs the sample");
    let rc = ReplayConfig {
        cfg: &pop.cfg,
        candidate: pop.candidate,
        spec: &pop.spec,
        base_seed: pop.seed,
        chunk_size: pop.chunk_size,
    };
    // Spans on and off must not change a single outcome.
    let traced = replay(&rc, &ids, &mut Probe::calibrated());
    let untraced = replay(&rc, &ids, &mut Probe::off());
    parity(&traced, &engine).unwrap_or_else(|e| panic!("traced replay: {e}"));
    parity(&untraced, &engine).unwrap_or_else(|e| panic!("untraced replay: {e}"));
    engine.iter().map(|o| o.handovers).sum()
}

#[test]
fn fleet_fuzzy_edge_replay_matches_the_engine() {
    for seed in [7, 11] {
        let pop = population(&Sizes::full(), seed);
        assert!(check(&pop) > 0, "the sample hands over");
    }
}

#[test]
fn twin_tenant_replay_matches_the_engine() {
    let config = wl::twin_config(&Sizes::full(), 7);
    let handovers = check(&Population {
        cfg: config.sim.clone(),
        spec: adapter::session_spec(&config, config.policy),
        seed: config.base_seed,
        candidate: config.candidate_mode,
        chunk_size: config.chunk_size,
        n_ues: config.n_ues,
    });
    assert!(handovers > 0, "the sample hands over");
}

#[test]
fn a_wrong_hd_sum_bit_breaks_parity() {
    let pop = &population(&Sizes::smoke(), 7);
    let ids = wl::replay_ids(pop.n_ues, 8);
    let engine = adapter::run_outcomes(&pop.engine(), &pop.spec, &ids, pop.seed).unwrap();
    let rc = ReplayConfig {
        cfg: &pop.cfg,
        candidate: pop.candidate,
        spec: &pop.spec,
        base_seed: pop.seed,
        chunk_size: pop.chunk_size,
    };
    let mut replayed = replay(&rc, &ids, &mut Probe::off());
    let k = replayed
        .iter()
        .position(|o| o.hd_count > 0)
        .expect("some UE saw an HD value");
    replayed[k].hd_sum = f64::from_bits(replayed[k].hd_sum.to_bits() ^ 1);
    assert!(parity(&replayed, &engine).is_err());
}
