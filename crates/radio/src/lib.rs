//! # radiolink
//!
//! Radio propagation substrate for the fuzzy-handover reproduction.
//!
//! The paper computes received power from a vertically polarised dipole
//! with beam tilt (its eqs. (3)–(4)):
//!
//! ```text
//! E = √(45 W) · sin(θ − φ) · e^(−jκr) / rⁿ
//! ```
//!
//! This crate implements that model literally ([`PathLoss::PaperField`] +
//! [`DipoleAntenna`]) and adds the standard alternatives (free space,
//! log-distance, two-ray) plus log-normal shadow fading with Gudmundson
//! spatial correlation and an RSS measurement pipeline (noise + smoothing).
//!
//! Units: distances in **km**, heights in **m**, powers in **dBm**, gains
//! and losses in **dB**.
//!
//! ## The compiled measurement plane
//!
//! Fleet-scale simulation steps the radio substrate for every (BS, UE)
//! pair per measurement step, so — mirroring the fuzzy crate's
//! `CompiledFis` decision plane — the hot path runs through *compiled*,
//! batched forms of the three per-sample stages:
//!
//! * [`CompiledBsRadio`] ([`BsRadio::compiled`]) — the link budget with
//!   every position-independent term folded once (TX dBm, tilt radians,
//!   height delta, gain floor, path-loss constants), leaving the
//!   geometry and two `log10`s per sample.
//! * [`ShadowingLane`] — a struct-of-arrays bank of per-BS AR(1)
//!   shadowing processes whose batched update hoists the per-step
//!   Gudmundson `exp` and innovation gain out of the per-BS loop.
//! * [`MeasurementNoise::apply_slice`] — the batched gaussian noise
//!   sampler, one draw per reading in slice order.
//!
//! **Bit-identity contract:** each compiled form evaluates the *same*
//! floating-point expressions as its scalar counterpart (constants are
//! folded, never re-associated) and draws from the RNG in the same order
//! with the same [`fading::box_muller`] expression, so results are
//! bit-for-bit identical to the scalar loops. The contract is pinned by
//! proptests (`tests/radio_plane_props.rs`), a counting-allocator test
//! proving the per-step paths allocation-free
//! (`tests/zero_alloc_radio.rs`), and the 17 golden simulation reports,
//! which run entirely through this plane.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod antenna;
pub mod db;
pub mod fading;
pub mod link;
pub mod measurement;
pub mod pathloss;

pub use antenna::DipoleAntenna;
pub use fading::{
    box_muller, speed_penalty_db, standard_normal, standard_normal_fill, RayleighFading,
    RicianFading, ShadowingConfig, ShadowingLane, ShadowingLaneState, ShadowingProcess,
};
pub use link::{BsRadio, CompiledBsRadio};
pub use measurement::{MeasurementNoise, RssiSmoother};
pub use pathloss::PathLoss;
