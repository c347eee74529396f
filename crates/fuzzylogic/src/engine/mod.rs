//! Inference engines.
//!
//! * [`mamdani`] — the classic clip-and-aggregate engine used by the paper.
//! * [`compiled`] — a [`Fis`](mamdani::Fis) compiled into dense arrays with
//!   pre-sampled consequents: bit-identical results, zero heap allocation
//!   per evaluation.
//! * [`lut`] — a precomputed 3-D lookup table with trilinear
//!   interpolation: approximate but constant-time.
//! * [`sugeno`] — Takagi–Sugeno–Kang functional-consequent engine, provided
//!   for the ablation studies.

pub mod compiled;
mod lanes;
pub mod lut;
pub mod mamdani;
pub mod sugeno;
