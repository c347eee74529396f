//! Chaos-test the fault-tolerance plane end to end: run a 1 000-UE
//! fleet clean, then run the *same* fleet under supervision with a
//! scripted mid-run worker panic, a sealed-snapshot corruption, an
//! over-deadline stall and a chaos-drawn schedule on top — and assert
//! the supervised result is **bit-identical** to the clean run while
//! printing the supervisor's audit trail (segments, snapshots, retries,
//! restores, degradations, virtual backoff).
//!
//! ```text
//! cargo run --release --example chaos_recovery
//! ```
//!
//! Everything printed is deterministic, so the whole stdout is pinned
//! in `examples/chaos_recovery.stdout`; check a run against it with
//!
//! ```text
//! cargo run --release --example chaos_recovery | diff -u examples/chaos_recovery.stdout -
//! ```
//!
//! The injected worker panics print their messages on stderr.

use std::sync::Arc;

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::{FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind};
use fuzzy_handover::sim::resilience::{Fault, FaultPlan, RetryPolicy};
use fuzzy_handover::sim::SimConfig;

fn main() {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);

    let spec = HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(
            fuzzy_handover::mobility::RandomWalk::paper_default(8),
        ),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: 7,
        cell_radius_km: cfg.layout.cell_radius_km(),
    };
    let ids: Vec<u64> = (0..1_000).collect();
    const SEED: u64 = 42;

    // --- The reference: a clean, unsupervised run ----------------------
    let clean = FleetSimulation::new(cfg.clone())
        .with_workers(4)
        .try_run_ids(&spec, &ids, SEED)
        .expect("clean run");
    println!(
        "clean run      : {} UEs, {} steps, {:.3} handovers/UE",
        clean.summary.ues,
        clean.summary.steps,
        clean.summary.handovers_per_ue()
    );

    // --- The same run, under fire --------------------------------------
    // Scripted: a worker panic mid-run, bit-rot in the first sealed
    // snapshot, an over-deadline stall — plus three chaos-drawn faults.
    // (The fleet's longest walk here is ~17 lockstep steps, so every
    // scheduled step below is actually reached.)
    let mut plan = FaultPlan::scripted(vec![
        Fault::WorkerPanic { at_step: 9 },
        Fault::CorruptCheckpoint { at_snapshot: 0, byte_offset: 1_234 },
        Fault::StallWorker { at_step: 13, delay_steps: 500 },
    ]);
    plan.faults.extend(FaultPlan::chaos(SEED, 16, 3).faults);
    println!("fault plan     : {:?}", plan.faults);

    let policy = RetryPolicy {
        checkpoint_cadence: 4,
        max_retries: 16,
        stall_deadline_steps: 64,
        ..RetryPolicy::default()
    };
    let supervised = FleetSimulation::new(cfg)
        .with_workers(4)
        .with_fault_injection(Arc::new(plan.injector()))
        .run_supervised(&spec, &ids, SEED, &policy)
        .expect("every scripted fault is recoverable");

    // --- The headline property: recovery changed nothing ---------------
    assert_eq!(
        clean, supervised.result,
        "supervised result must be bit-identical to the clean run"
    );
    assert_eq!(
        clean.summary.hd_sum.to_bits(),
        supervised.result.summary.hd_sum.to_bits(),
        "even the f64 HD checksum's bit pattern survives recovery"
    );
    println!("supervised run : bit-identical to the clean run ✓");

    let r = &supervised.report;
    println!("audit trail    :");
    println!("  segments completed   : {}", r.segments);
    println!("  snapshots sealed     : {}", r.snapshots_taken);
    println!("  failed attempts      : {}", r.retries);
    println!("    worker panics      : {}", r.worker_panics);
    println!("    over-deadline stalls: {}", r.stalls);
    println!("  corrupt snaps caught : {}", r.corrupt_snapshots_detected);
    println!("  restores from seal   : {}", r.restores);
    println!("  degradations         : {}", r.degradations);
    println!("  virtual backoff steps: {}", r.virtual_backoff_steps);
    println!("  final worker count   : {}", r.final_workers);
}
