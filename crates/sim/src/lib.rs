//! # handover-sim
//!
//! Simulation engine and experiment harness for the fuzzy-handover
//! reproduction.
//!
//! * [`params`] — the paper's Table 2 simulation parameters.
//! * [`engine`] — the measurement/decision loop binding mobility, radio,
//!   cell geometry and a [`handover_core::HandoverPolicy`].
//! * [`scenario`] — the two pinned paper scenarios (A ≈ `iseed = 100`,
//!   boundary walk; B ≈ `iseed = 200`, cell-crossing walk) plus the seed
//!   search that found them.
//! * [`monte_carlo`] — N-repetition averaging, sequentially or on a
//!   crossbeam thread pool.
//! * [`fleet`] — the multi-UE fleet engine: thousands of mobile stations
//!   stepping through one layout with batched RSS evaluation, per-UE RNG
//!   streams and sharded parallel execution.
//! * [`matrix`] — the scenario-matrix runner sweeping
//!   {UE count} × {mobility model} × {speed} × {policy} × {traffic}
//!   over the fleet engine.
//! * [`traffic`] — the cell-load traffic plane: per-UE call sessions,
//!   per-cell channel capacity with admission control (new-call
//!   blocking vs. handover-call dropping, guard channels), and the
//!   deterministic replay producing [`handover_core::TrafficReport`]s
//!   and the occupancy feedback field.
//! * [`dynamics`] — the dynamic-workload plane: UE churn, tidal
//!   offered-load waves, scheduled BS failure events, and voice/data
//!   service-class mixes — every feature a pure function of
//!   (config, seed, step) on its own domain-separated stream, so
//!   "feature off" is bit-identical to the static engine.
//! * [`checkpoint`] — compact fleet snapshots: freeze a mid-run fleet
//!   pass ([`fleet::FleetSimulation::advance`]) and resume it
//!   bit-identically ([`fleet::FleetSimulation::try_resume`]), plus the
//!   checksummed sealed container ([`checkpoint::FleetCheckpoint::seal`])
//!   that detects bit-rot and truncation on restore.
//! * [`resilience`] — the fault-tolerance plane: the typed
//!   configuration/checkpoint error taxonomy, the deterministic
//!   fault-injection harness ([`resilience::FaultPlan`]) and the
//!   supervised runner ([`fleet::FleetSimulation::run_supervised`])
//!   that checkpoints, detects failures and recovers bit-identically.
//! * [`experiments`] — one module per paper table/figure; the `repro`
//!   binary prints them all.
//! * [`table`] / [`series`] — plain-text renderers for tables and plots.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod checkpoint;
pub mod dynamics;
pub mod engine;
pub mod experiments;
pub mod fleet;
pub mod matrix;
pub mod monte_carlo;
pub mod params;
mod payload;
pub mod resilience;
pub mod scenario;
pub mod series;
pub mod table;
pub mod traffic;

pub use checkpoint::{
    seal_payload, seal_with, unseal_payload, CheckpointError, FleetCheckpoint, UeCheckpoint,
    CHECKPOINT_VERSION, SEALED_FORMAT_VERSION, SEALED_HEADER_LEN, SEALED_MAGIC,
};
pub use dynamics::{
    CellOutage, ChurnConfig, DynamicsConfig, ServiceMix, ServiceParams, TidalWave, CHURN_STREAM,
    SERVICE_STREAM,
};
pub use engine::{SimConfig, SimResult, Simulation, StepRecord};
pub use fleet::{
    ue_seed, FleetError, FleetMobility, FleetPrecision, FleetResult, FleetSimulation,
    FleetStreamSummary, HomogeneousFleet, PolicyKind, UeOutcome, UeSpec,
};
pub use matrix::{MatrixCellResult, MatrixMetric, MatrixResult, ScenarioMatrix};
pub use params::PaperParams;
pub use resilience::{
    validate_planes, ConfigError, Fault, FaultInjector, FaultPlan, RetryPolicy, SupervisedRun,
    Supervisor, SupervisorReport, FAULT_STREAM,
};
pub use scenario::{Scenario, SCENARIO_A_SEED, SCENARIO_B_SEED};
pub use traffic::{TrafficConfig, TRAFFIC_STREAM};
