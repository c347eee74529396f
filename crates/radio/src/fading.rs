//! Fading models.
//!
//! * [`ShadowingProcess`] — log-normal shadow fading with Gudmundson
//!   spatial correlation (`ρ(Δd) = e^(−Δd/d_corr)`), the mechanism that
//!   produces the RSS fluctuations behind the ping-pong effect.
//! * [`ShadowingLane`] — the same AR(1) recursion over a struct-of-arrays
//!   bank of processes (one per base station), bit-identical to a loop of
//!   [`ShadowingProcess`]es but with the per-step `exp`/gain hoisted out
//!   of the per-BS loop. This is the compiled measurement plane's
//!   shadowing stage.
//! * [`RayleighFading`] — small-scale envelope fading (extension hook).
//! * [`speed_penalty_db`] — the paper's empirical "2 dB per 10 km/h"
//!   degradation applied to the neighbour-BS RSS in Tables 3/4.

use crate::db::power_ratio_to_db_floored;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Box–Muller transform of one uniform pair: `u1 ∈ (0, 1]` (so
/// `ln u1` is finite) and `u2 ∈ [0, 1)` map to one standard-normal
/// variate. `rand_distr` is not among the offline crates, so this is the
/// single gaussian expression the whole measurement plane shares: the
/// scalar sampler [`standard_normal`], the batched
/// [`standard_normal_fill`] and the engine's measurement step all
/// evaluate it, which is what makes the scalar and batched paths
/// bit-identical.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw one standard-normal variate: [`box_muller`] on the next two
/// uniforms (`1 − u` for the first keeps it in `(0, 1]`). The
/// shadowing processes and lanes, the Rayleigh/Rician envelopes and the
/// measurement noise all draw through this sampler or its batched form.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    box_muller(u1, u2)
}

/// Tile width of the batched gaussian kernel: draws are pulled from the
/// RNG in stack tiles of this many output values (2× as many uniforms),
/// sized so one tile's uniforms cover two full eight-block groups of the
/// AVX2 ChaCha12 kernel through [`rand::RngCore::fill_u64_slice`] while
/// staying comfortably on the stack. Purely an internal blocking factor
/// — it never changes which draws happen in which order, so it is
/// invisible to bit-identity and to checkpointing.
const NORMAL_TILE: usize = 64;

/// Fill `dest` with standard-normal draws — the batched form of
/// [`standard_normal`], bit-identical to calling it once per slot in
/// order. The uniforms come from the RNG's bulk block generator
/// ([`rand::RngCore::fill_standard_uniform`], whole ChaCha12 blocks at a
/// time) and each output is [`box_muller`] of its `(1 − u1, u2)` pair,
/// so draw order and floating-point math are unchanged. Allocation-free
/// (stack tiles).
pub fn standard_normal_fill<R: Rng + ?Sized>(dest: &mut [f64], rng: &mut R) {
    let mut uniforms = [0.0f64; 2 * NORMAL_TILE];
    for chunk in dest.chunks_mut(NORMAL_TILE) {
        let pairs = &mut uniforms[..2 * chunk.len()];
        rng.fill_standard_uniform(pairs);
        for (slot, uv) in chunk.iter_mut().zip(pairs.chunks_exact(2)) {
            *slot = box_muller(1.0 - uv[0], uv[1]);
        }
    }
}

/// Configuration of a log-normal shadowing process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowingConfig {
    /// Standard deviation of the shadowing in dB (urban macro: 6–12 dB).
    pub sigma_db: f64,
    /// Gudmundson decorrelation distance in km (urban: 0.02–0.1 km).
    pub decorrelation_km: f64,
}

impl ShadowingConfig {
    /// A moderate urban default: σ = 4 dB, d_corr = 50 m.
    pub fn moderate() -> Self {
        ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 }
    }

    /// Shadowing disabled (σ = 0).
    pub fn none() -> Self {
        ShadowingConfig { sigma_db: 0.0, decorrelation_km: 0.05 }
    }
}

/// A stateful, spatially correlated log-normal shadowing process
/// (first-order Gudmundson autoregression along the mobile's path).
///
/// One independent process is kept **per base station**: shadowing towards
/// different BSs is uncorrelated, which is what makes boundary walks
/// flip-flop between serving cells.
#[derive(Debug, Clone)]
pub struct ShadowingProcess {
    config: ShadowingConfig,
    current_db: f64,
    initialized: bool,
}

impl ShadowingProcess {
    /// New process; the first sample is drawn fresh from `N(0, σ²)`.
    pub fn new(config: ShadowingConfig) -> Self {
        assert!(config.sigma_db >= 0.0, "sigma must be non-negative");
        assert!(config.decorrelation_km > 0.0, "decorrelation distance must be positive");
        ShadowingProcess { config, current_db: 0.0, initialized: false }
    }

    /// The configuration.
    pub fn config(&self) -> ShadowingConfig {
        self.config
    }

    /// Advance the mobile by `delta_km` and return the shadowing value in
    /// dB at the new position.
    pub fn advance<R: Rng + ?Sized>(&mut self, delta_km: f64, rng: &mut R) -> f64 {
        let sigma = self.config.sigma_db;
        if sigma == 0.0 {
            self.initialized = true;
            self.current_db = 0.0;
            return 0.0;
        }
        let innovation: f64 = standard_normal(rng);
        if !self.initialized {
            self.initialized = true;
            self.current_db = sigma * innovation;
        } else {
            let rho = (-delta_km.max(0.0) / self.config.decorrelation_km).exp();
            self.current_db =
                rho * self.current_db + sigma * (1.0 - rho * rho).sqrt() * innovation;
        }
        self.current_db
    }

    /// The last returned value (0 before the first `advance`).
    pub fn current_db(&self) -> f64 {
        self.current_db
    }
}

/// A struct-of-arrays bank of [`ShadowingProcess`]es sharing one
/// configuration — the compiled measurement plane's shadowing stage.
///
/// A mobile keeps one independent shadowing process **per base station**;
/// all of them advance by the *same* travelled distance at every
/// measurement step. The scalar loop therefore recomputes the identical
/// Gudmundson correlation `ρ = e^(−Δd/d_corr)` (an `exp`) and the
/// innovation gain `σ·√(1 − ρ²)` once per process; the lane hoists both
/// out and updates the flat value array in one pass.
///
/// ## Bit-identity contract
///
/// [`ShadowingLane::advance_all`] draws innovations in slot order from the
/// same RNG and evaluates the exact floating-point expression of
/// [`ShadowingProcess::advance`] (the hoisted `ρ` and gain are the same
/// sub-expressions, merely computed once), so a lane is **bit-identical**
/// to advancing a `Vec<ShadowingProcess>` in a loop — pinned by the
/// proptests in `tests/radio_plane_props.rs`. [`ShadowingLane::advance_one`]
/// advances a single slot by its own distance, which is what the
/// neighbour-pruned candidate mode uses together with per-slot
/// accumulated distances (the Gudmundson recursion composes exactly:
/// `ρ(d₁+d₂) = ρ(d₁)·ρ(d₂)`, so skipping a slot for a few steps and then
/// advancing it by the summed distance yields the same process law).
///
/// Neither entry point allocates: the lane owns flat state sized at
/// construction (proven by the counting-allocator test in
/// `tests/zero_alloc_radio.rs`).
#[derive(Debug, Clone)]
pub struct ShadowingLane {
    config: ShadowingConfig,
    values: Vec<f64>,
    fresh: Vec<bool>,
    any_fresh: bool,
}

impl ShadowingLane {
    /// A lane of `n` fresh processes; each slot's first sample is drawn
    /// from `N(0, σ²)` exactly like a fresh [`ShadowingProcess`].
    pub fn new(config: ShadowingConfig, n: usize) -> Self {
        assert!(config.sigma_db >= 0.0, "sigma must be non-negative");
        assert!(config.decorrelation_km > 0.0, "decorrelation distance must be positive");
        ShadowingLane {
            config,
            values: vec![0.0; n],
            fresh: vec![true; n],
            any_fresh: true,
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> ShadowingConfig {
        self.config
    }

    /// Number of processes in the lane.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for a zero-process lane.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current shadowing values in dB, one per slot (0 before a
    /// slot's first advance).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Advance **every** slot by the same `delta_km`, drawing one
    /// innovation per slot in slot order. Bit-identical to calling
    /// [`ShadowingProcess::advance`] on a vector of processes with the
    /// same RNG: the innovations come from [`standard_normal_fill`]
    /// (same draws, same order, bulk-generated) and the AR(1) update is
    /// the same expression per slot.
    pub fn advance_all<R: Rng + ?Sized>(&mut self, delta_km: f64, rng: &mut R) {
        let sigma = self.config.sigma_db;
        if sigma == 0.0 {
            if self.any_fresh {
                self.fresh.fill(false);
                self.any_fresh = false;
            }
            self.values.fill(0.0);
            return;
        }
        let rho = (-delta_km.max(0.0) / self.config.decorrelation_km).exp();
        let gain = sigma * (1.0 - rho * rho).sqrt();
        let mut innovations = [0.0f64; NORMAL_TILE];
        if self.any_fresh {
            for (values, fresh_slots) in self
                .values
                .chunks_mut(NORMAL_TILE)
                .zip(self.fresh.chunks_mut(NORMAL_TILE))
            {
                let tile = &mut innovations[..values.len()];
                standard_normal_fill(tile, rng);
                for ((value, fresh), &innovation) in
                    values.iter_mut().zip(fresh_slots.iter_mut()).zip(tile.iter())
                {
                    if *fresh {
                        *fresh = false;
                        *value = sigma * innovation;
                    } else {
                        *value = rho * *value + gain * innovation;
                    }
                }
            }
            self.any_fresh = false;
        } else {
            for values in self.values.chunks_mut(NORMAL_TILE) {
                let tile = &mut innovations[..values.len()];
                standard_normal_fill(tile, rng);
                // No branches, no calls: one fused multiply-add lane.
                for (value, &innovation) in values.iter_mut().zip(tile.iter()) {
                    *value = rho * *value + gain * innovation;
                }
            }
        }
    }

    /// [`ShadowingLane::advance_all`] with the innovations already drawn
    /// by the caller (one per slot, slot order) — the fused fleet kernel
    /// pulls one bulk gaussian fill per UE step and feeds the shadowing
    /// share through here. Slot-for-slot the same update expression as
    /// `advance_all`; passing draws from [`standard_normal_fill`] on the
    /// UE's RNG is therefore bit-identical to `advance_all` on that RNG.
    ///
    /// With σ = 0 the lane zeroes itself and `innovations` must be empty
    /// (the σ = 0 paths never consume randomness); otherwise it must hold
    /// exactly one draw per slot.
    pub fn advance_all_with(&mut self, delta_km: f64, innovations: &[f64]) {
        let sigma = self.config.sigma_db;
        if sigma == 0.0 {
            assert!(innovations.is_empty(), "σ = 0 advance consumes no draws");
            if self.any_fresh {
                self.fresh.fill(false);
                self.any_fresh = false;
            }
            self.values.fill(0.0);
            return;
        }
        assert_eq!(innovations.len(), self.values.len(), "one innovation per slot");
        let rho = (-delta_km.max(0.0) / self.config.decorrelation_km).exp();
        let gain = sigma * (1.0 - rho * rho).sqrt();
        if self.any_fresh {
            for ((value, fresh), &innovation) in
                self.values.iter_mut().zip(&mut self.fresh).zip(innovations)
            {
                if *fresh {
                    *fresh = false;
                    *value = sigma * innovation;
                } else {
                    *value = rho * *value + gain * innovation;
                }
            }
            self.any_fresh = false;
        } else {
            for (value, &innovation) in self.values.iter_mut().zip(innovations) {
                *value = rho * *value + gain * innovation;
            }
        }
    }

    /// Advance the given subset of slots to the travelled distance
    /// `now_km`, drawing one innovation per listed slot in list order.
    ///
    /// `last_km[slot]` carries the travelled distance at which each slot
    /// last advanced; the slot advances by `now_km − last_km[slot]` and
    /// the entry is updated to `now_km`. This is the neighbour-pruned
    /// engine's lazy update: unlisted slots simply keep their `last_km`,
    /// which is exact under the Gudmundson composition law
    /// `ρ(d₁+d₂) = ρ(d₁)·ρ(d₂)`. Slot-for-slot the arithmetic is the
    /// [`ShadowingProcess::advance`] expression; the correlation/gain
    /// pair is memoized across consecutive equal deltas (the common case
    /// — every slot that was listed on the previous step shares one
    /// delta), which changes nothing but the number of `exp` calls.
    pub fn advance_subset<R: Rng + ?Sized>(
        &mut self,
        slots: &[u32],
        now_km: f64,
        last_km: &mut [f64],
        rng: &mut R,
    ) {
        let sigma = self.config.sigma_db;
        if sigma == 0.0 {
            for &slot in slots {
                let k = slot as usize;
                self.fresh[k] = false;
                self.values[k] = 0.0;
                last_km[k] = now_km;
            }
            return;
        }
        let mut memo_delta = f64::NAN;
        let mut memo_rho = 0.0;
        let mut memo_gain = 0.0;
        // Innovations are bulk-drawn per tile (the memo survives tile
        // boundaries); drawing a tile up front instead of one draw per
        // slot reorders nothing — the computation between draws consumes
        // no randomness.
        let mut innovations = [0.0f64; NORMAL_TILE];
        for slot_tile in slots.chunks(NORMAL_TILE) {
            let tile = &mut innovations[..slot_tile.len()];
            standard_normal_fill(tile, rng);
            for (&slot, &innovation) in slot_tile.iter().zip(tile.iter()) {
                let k = slot as usize;
                if self.fresh[k] {
                    self.fresh[k] = false;
                    self.values[k] = sigma * innovation;
                } else {
                    let delta_km = now_km - last_km[k];
                    if delta_km != memo_delta {
                        memo_delta = delta_km;
                        memo_rho = (-delta_km.max(0.0) / self.config.decorrelation_km).exp();
                        memo_gain = sigma * (1.0 - memo_rho * memo_rho).sqrt();
                    }
                    self.values[k] = memo_rho * self.values[k] + memo_gain * innovation;
                }
                last_km[k] = now_km;
            }
        }
    }

    /// Advance a single slot by `delta_km` (one innovation draw, or none
    /// for σ = 0), returning the slot's new value. Slot-for-slot
    /// bit-identical to [`ShadowingProcess::advance`].
    pub fn advance_one<R: Rng + ?Sized>(
        &mut self,
        slot: usize,
        delta_km: f64,
        rng: &mut R,
    ) -> f64 {
        let sigma = self.config.sigma_db;
        if sigma == 0.0 {
            self.fresh[slot] = false;
            self.values[slot] = 0.0;
            return 0.0;
        }
        let innovation = standard_normal(rng);
        if self.fresh[slot] {
            self.fresh[slot] = false;
            self.values[slot] = sigma * innovation;
        } else {
            let rho = (-delta_km.max(0.0) / self.config.decorrelation_km).exp();
            self.values[slot] =
                rho * self.values[slot] + sigma * (1.0 - rho * rho).sqrt() * innovation;
        }
        self.values[slot]
    }

    /// Reset every slot to the fresh (pre-first-sample) state, keeping
    /// the allocation. A reset lane is indistinguishable from
    /// [`ShadowingLane::new`] with the same configuration and length —
    /// this is what lets chunk arenas recycle lanes across UEs.
    pub fn reset(&mut self) {
        self.values.fill(0.0);
        self.fresh.fill(true);
        self.any_fresh = true;
    }

    /// Capture the lane's exact state (values and per-slot freshness) as
    /// plain serializable data for checkpointing.
    pub fn state(&self) -> ShadowingLaneState {
        ShadowingLaneState {
            values: self.values.clone(),
            fresh: self.fresh.clone(),
            any_fresh: self.any_fresh,
        }
    }

    /// Rebuild a lane from a captured state; advancing the restored lane
    /// with the same RNG stream is bit-identical to advancing the
    /// original. Panics when the state's `values` and `fresh` lengths
    /// disagree.
    pub fn from_state(config: ShadowingConfig, state: ShadowingLaneState) -> Self {
        assert!(config.sigma_db >= 0.0, "sigma must be non-negative");
        assert!(config.decorrelation_km > 0.0, "decorrelation distance must be positive");
        assert_eq!(
            state.values.len(),
            state.fresh.len(),
            "lane state values/fresh lengths must match"
        );
        ShadowingLane {
            config,
            values: state.values,
            fresh: state.fresh,
            any_fresh: state.any_fresh,
        }
    }
}

/// Plain serializable capture of a [`ShadowingLane`]'s mutable state
/// (the shared [`ShadowingConfig`] is carried by the owning simulation
/// config, so it is not duplicated here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowingLaneState {
    /// Current shadowing values in dB, one per slot.
    pub values: Vec<f64>,
    /// Per-slot "has not yet drawn its first sample" flags.
    pub fresh: Vec<bool>,
    /// True while any slot is still fresh (fast-path flag).
    pub any_fresh: bool,
}

/// Rayleigh envelope fading: returns the instantaneous power deviation in
/// dB relative to the local mean (`E[power] = 1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RayleighFading;

impl RayleighFading {
    /// Draw one independent fade in dB.
    pub fn sample_db<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Envelope² = X² + Y² with X, Y ~ N(0, 1/2) → unit mean power.
        let x: f64 = standard_normal(rng);
        let y: f64 = standard_normal(rng);
        let power = 0.5 * (x * x + y * y);
        power_ratio_to_db_floored(power)
    }

    /// Fill `out` with independent fades — bit-identical to calling
    /// [`RayleighFading::sample_db`] once per slot in order (the two
    /// quadrature gaussians per fade come from [`standard_normal_fill`]
    /// in the same x-then-y sequence). Allocation-free.
    pub fn sample_db_fill<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        let mut normals = [0.0f64; 2 * NORMAL_TILE];
        for chunk in out.chunks_mut(NORMAL_TILE) {
            let pairs = &mut normals[..2 * chunk.len()];
            standard_normal_fill(pairs, rng);
            for (slot, xy) in chunk.iter_mut().zip(pairs.chunks_exact(2)) {
                let power = 0.5 * (xy[0] * xy[0] + xy[1] * xy[1]);
                *slot = power_ratio_to_db_floored(power);
            }
        }
    }
}

/// Rician fading: a dominant line-of-sight component of power
/// `K/(K+1)` plus scattered power `1/(K+1)` (unit total mean power).
/// `K → 0` degenerates to Rayleigh; large `K` approaches a constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RicianFading {
    /// Rice factor `K` (linear, ≥ 0): LOS-to-scatter power ratio.
    pub k_factor: f64,
}

impl RicianFading {
    /// Construct with a non-negative K factor.
    pub fn new(k_factor: f64) -> Self {
        assert!(k_factor >= 0.0, "K factor must be non-negative");
        RicianFading { k_factor }
    }

    /// Draw one independent fade in dB (unit mean power).
    pub fn sample_db<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let k = self.k_factor;
        // LOS amplitude ν with ν² = K/(K+1); scatter σ² = 1/(2(K+1)) per
        // quadrature branch.
        let nu = (k / (k + 1.0)).sqrt();
        let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
        let x: f64 = nu + sigma * standard_normal(rng);
        let y: f64 = sigma * standard_normal(rng);
        let power = x * x + y * y;
        power_ratio_to_db_floored(power)
    }

    /// Fill `out` with independent fades — bit-identical to calling
    /// [`RicianFading::sample_db`] once per slot in order, with the LOS
    /// and scatter constants hoisted out of the loop (they are
    /// position-independent sub-expressions, computed once instead of
    /// per fade) and the gaussians bulk-drawn. Allocation-free.
    pub fn sample_db_fill<R: Rng + ?Sized>(&self, out: &mut [f64], rng: &mut R) {
        let k = self.k_factor;
        let nu = (k / (k + 1.0)).sqrt();
        let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
        let mut normals = [0.0f64; 2 * NORMAL_TILE];
        for chunk in out.chunks_mut(NORMAL_TILE) {
            let pairs = &mut normals[..2 * chunk.len()];
            standard_normal_fill(pairs, rng);
            for (slot, xy) in chunk.iter_mut().zip(pairs.chunks_exact(2)) {
                let x = nu + sigma * xy[0];
                let y = sigma * xy[1];
                let power = x * x + y * y;
                *slot = power_ratio_to_db_floored(power);
            }
        }
    }
}

/// The paper's speed rule: "during the RW, for each 10 km/h the signal
/// strength is decreased 2 dB" (applied to the neighbour-BS RSS in the
/// Table 3/4 sweeps).
#[inline]
pub fn speed_penalty_db(speed_kmh: f64) -> f64 {
    assert!(speed_kmh >= 0.0, "speed must be non-negative");
    0.2 * speed_kmh
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn speed_penalty_matches_paper_tables() {
        // Tables 3/4: neighbour RSS drops exactly 2 dB per 10 km/h step.
        assert_eq!(speed_penalty_db(0.0), 0.0);
        assert!((speed_penalty_db(10.0) - 2.0).abs() < 1e-12);
        assert!((speed_penalty_db(30.0) - 6.0).abs() < 1e-12);
        assert!((speed_penalty_db(50.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_sigma_process_is_silent() {
        let mut p = ShadowingProcess::new(ShadowingConfig::none());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(p.advance(0.1, &mut rng), 0.0);
        }
    }

    #[test]
    fn shadowing_statistics() {
        let cfg = ShadowingConfig { sigma_db: 6.0, decorrelation_km: 0.05 };
        let mut rng = StdRng::seed_from_u64(42);
        // Large steps → essentially independent samples.
        let mut p = ShadowingProcess::new(cfg);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| p.advance(5.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "zero-mean, got {mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.2, "σ ≈ 6, got {}", var.sqrt());
    }

    #[test]
    fn gudmundson_correlation_decays() {
        let cfg = ShadowingConfig { sigma_db: 8.0, decorrelation_km: 0.1 };
        let mut rng = StdRng::seed_from_u64(13);
        // Estimate lag-1 autocorrelation for small steps: ρ = e^(−Δ/d).
        let step = 0.02; // ρ = e^-0.2 ≈ 0.8187
        let mut p = ShadowingProcess::new(cfg);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| p.advance(step, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let cov = samples
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        let rho = cov / var;
        let expected = (-step / 0.1f64).exp();
        assert!((rho - expected).abs() < 0.02, "ρ {rho} vs {expected}");
    }

    #[test]
    fn small_steps_move_slowly() {
        let cfg = ShadowingConfig { sigma_db: 8.0, decorrelation_km: 1.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = ShadowingProcess::new(cfg);
        let first = p.advance(0.001, &mut rng);
        let second = p.advance(0.001, &mut rng);
        // With ρ ≈ 0.999 consecutive values are nearly identical.
        assert!((first - second).abs() < 8.0 * 0.1, "{first} vs {second}");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ShadowingConfig::moderate();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = ShadowingProcess::new(cfg);
            (0..50).map(|_| p.advance(0.05, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn standard_normal_fill_matches_scalar_loop_bitwise() {
        // Lengths straddling the tile width and starting at mid-block RNG
        // offsets: the bulk sampler must reproduce the scalar draws.
        for offset in [0usize, 1, 5] {
            for len in [0usize, 1, 2, 31, 32, 33, 64, 100] {
                let mut bulk_rng = StdRng::seed_from_u64(0xB0B5);
                let mut scalar_rng = StdRng::seed_from_u64(0xB0B5);
                for _ in 0..offset {
                    bulk_rng.gen::<f64>();
                    scalar_rng.gen::<f64>();
                }
                let mut batch = vec![0.0f64; len];
                standard_normal_fill(&mut batch, &mut bulk_rng);
                for (i, &b) in batch.iter().enumerate() {
                    let s = standard_normal(&mut scalar_rng);
                    assert_eq!(b.to_bits(), s.to_bits(), "offset {offset} len {len} slot {i}");
                }
                // Streams stay in lockstep afterwards.
                assert_eq!(bulk_rng.gen::<u64>(), scalar_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn lane_advance_all_with_matches_advance_all_bitwise() {
        let cfg = ShadowingConfig { sigma_db: 4.5, decorrelation_km: 0.06 };
        let n = 19;
        let mut reference = ShadowingLane::new(cfg, n);
        let mut fused = ShadowingLane::new(cfg, n);
        let mut ref_rng = StdRng::seed_from_u64(0xFADE);
        let mut fused_rng = StdRng::seed_from_u64(0xFADE);
        let mut innovations = vec![0.0f64; n];
        for step in 0..25 {
            let delta = 0.02 * (step % 5) as f64;
            reference.advance_all(delta, &mut ref_rng);
            standard_normal_fill(&mut innovations, &mut fused_rng);
            fused.advance_all_with(delta, &innovations);
            for k in 0..n {
                assert_eq!(
                    reference.values()[k].to_bits(),
                    fused.values()[k].to_bits(),
                    "slot {k} step {step}"
                );
            }
        }
    }

    #[test]
    fn lane_advance_all_with_zero_sigma_is_silent() {
        let mut lane = ShadowingLane::new(ShadowingConfig::none(), 3);
        lane.advance_all_with(0.5, &[]);
        assert!(lane.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "one innovation per slot")]
    fn lane_advance_all_with_wrong_length_rejected() {
        let mut lane = ShadowingLane::new(ShadowingConfig::moderate(), 4);
        lane.advance_all_with(0.1, &[0.0; 3]);
    }

    #[test]
    fn rayleigh_fill_matches_scalar_loop_bitwise() {
        let fading = RayleighFading;
        let mut batch = vec![0.0f64; 77];
        fading.sample_db_fill(&mut batch, &mut StdRng::seed_from_u64(0xAA));
        let mut rng = StdRng::seed_from_u64(0xAA);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b.to_bits(), fading.sample_db(&mut rng).to_bits(), "slot {i}");
        }
    }

    #[test]
    fn rician_fill_matches_scalar_loop_bitwise() {
        for k in [0.0, 3.7, 12.0] {
            let fading = RicianFading::new(k);
            let mut batch = vec![0.0f64; 50];
            fading.sample_db_fill(&mut batch, &mut StdRng::seed_from_u64(0xBB));
            let mut rng = StdRng::seed_from_u64(0xBB);
            for (i, &b) in batch.iter().enumerate() {
                assert_eq!(b.to_bits(), fading.sample_db(&mut rng).to_bits(), "K {k} slot {i}");
            }
        }
    }

    #[test]
    fn lane_matches_process_loop_bitwise() {
        let cfg = ShadowingConfig { sigma_db: 5.5, decorrelation_km: 0.07 };
        let n = 19;
        let mut lane = ShadowingLane::new(cfg, n);
        let mut processes: Vec<ShadowingProcess> =
            (0..n).map(|_| ShadowingProcess::new(cfg)).collect();
        let mut lane_rng = StdRng::seed_from_u64(99);
        let mut loop_rng = StdRng::seed_from_u64(99);
        for step in 0..40 {
            let delta = 0.01 * (step % 7) as f64;
            lane.advance_all(delta, &mut lane_rng);
            for p in &mut processes {
                p.advance(delta, &mut loop_rng);
            }
            for (slot, p) in processes.iter().enumerate() {
                assert_eq!(
                    lane.values()[slot].to_bits(),
                    p.current_db().to_bits(),
                    "slot {slot} step {step}"
                );
            }
        }
    }

    #[test]
    fn lane_advance_one_matches_scalar_process() {
        let cfg = ShadowingConfig::moderate();
        let mut lane = ShadowingLane::new(cfg, 3);
        let mut process = ShadowingProcess::new(cfg);
        let mut lane_rng = StdRng::seed_from_u64(5);
        let mut scalar_rng = StdRng::seed_from_u64(5);
        for step in 0..20 {
            let delta = 0.02 + 0.01 * (step % 3) as f64;
            let a = lane.advance_one(1, delta, &mut lane_rng);
            let b = process.advance(delta, &mut scalar_rng);
            assert_eq!(a.to_bits(), b.to_bits(), "step {step}");
        }
        // Untouched slots stay at their pre-first-sample zero.
        assert_eq!(lane.values()[0], 0.0);
        assert_eq!(lane.values()[2], 0.0);
    }

    #[test]
    fn lane_advance_subset_matches_advance_one_bitwise() {
        let cfg = ShadowingConfig { sigma_db: 6.0, decorrelation_km: 0.08 };
        let n = 9;
        let mut fast = ShadowingLane::new(cfg, n);
        let mut reference = ShadowingLane::new(cfg, n);
        let mut fast_rng = StdRng::seed_from_u64(11);
        let mut ref_rng = StdRng::seed_from_u64(11);
        let mut last = vec![0.0f64; n];
        let mut ref_last = vec![0.0f64; n];
        let mut now = 0.0;
        // Rotating subsets: slots drop out and re-enter with accumulated
        // distances; the memoized batch must match the per-slot calls.
        for step in 1..30u32 {
            now += 0.05 + 0.01 * (step % 4) as f64;
            let subset: Vec<u32> = (0..n as u32).filter(|s| (s + step) % 3 != 0).collect();
            fast.advance_subset(&subset, now, &mut last, &mut fast_rng);
            for &s in &subset {
                let k = s as usize;
                reference.advance_one(k, now - ref_last[k], &mut ref_rng);
                ref_last[k] = now;
            }
            for k in 0..n {
                assert_eq!(
                    fast.values()[k].to_bits(),
                    reference.values()[k].to_bits(),
                    "slot {k} step {step}"
                );
                assert_eq!(last[k], ref_last[k]);
            }
        }
    }

    #[test]
    fn lane_zero_sigma_is_silent_and_drawless() {
        let mut lane = ShadowingLane::new(ShadowingConfig::none(), 4);
        let mut rng = StdRng::seed_from_u64(3);
        let before: u64 = rng.gen();
        let mut rng = StdRng::seed_from_u64(3);
        lane.advance_all(0.5, &mut rng);
        lane.advance_one(2, 0.1, &mut rng);
        assert!(lane.values().iter().all(|&v| v == 0.0));
        assert_eq!(rng.gen::<u64>(), before, "σ = 0 must not consume the RNG");
        assert_eq!(lane.len(), 4);
        assert!(!lane.is_empty());
        assert_eq!(lane.config(), ShadowingConfig::none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn lane_negative_sigma_rejected() {
        let _ = ShadowingLane::new(
            ShadowingConfig { sigma_db: -0.1, decorrelation_km: 0.1 },
            2,
        );
    }

    #[test]
    fn lane_state_round_trip_is_bitwise() {
        let cfg = ShadowingConfig { sigma_db: 5.0, decorrelation_km: 0.06 };
        let mut lane = ShadowingLane::new(cfg, 7);
        let mut rng = StdRng::seed_from_u64(17);
        lane.advance_all(0.04, &mut rng);
        lane.advance_one(3, 0.02, &mut rng);
        let mut restored = ShadowingLane::from_state(cfg, lane.state());
        let mut rng_a = StdRng::seed_from_u64(101);
        let mut rng_b = StdRng::seed_from_u64(101);
        for step in 0..10 {
            lane.advance_all(0.03, &mut rng_a);
            restored.advance_all(0.03, &mut rng_b);
            for k in 0..7 {
                assert_eq!(
                    lane.values()[k].to_bits(),
                    restored.values()[k].to_bits(),
                    "slot {k} step {step}"
                );
            }
        }
    }

    #[test]
    fn lane_reset_matches_fresh_lane() {
        let cfg = ShadowingConfig::moderate();
        let mut lane = ShadowingLane::new(cfg, 5);
        let mut rng = StdRng::seed_from_u64(4);
        lane.advance_all(0.1, &mut rng);
        lane.reset();
        let fresh = ShadowingLane::new(cfg, 5);
        assert_eq!(lane.state(), fresh.state());
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let mut also_fresh = ShadowingLane::new(cfg, 5);
        lane.advance_all(0.05, &mut rng_a);
        also_fresh.advance_all(0.05, &mut rng_b);
        assert_eq!(lane.values(), also_fresh.values());
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn lane_state_length_mismatch_rejected() {
        let state = ShadowingLaneState { values: vec![0.0; 3], fresh: vec![true; 2], any_fresh: true };
        let _ = ShadowingLane::from_state(ShadowingConfig::moderate(), state);
    }

    #[test]
    fn rayleigh_mean_power_is_unity() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 50_000;
        let mean_linear: f64 = (0..n)
            .map(|_| 10f64.powf(RayleighFading.sample_db(&mut rng) / 10.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean_linear - 1.0).abs() < 0.03, "mean power {mean_linear}");
        // Deep fades exist: Rayleigh should dip below −10 dB sometimes.
        let mut rng = StdRng::seed_from_u64(22);
        let deep = (0..10_000).any(|_| RayleighFading.sample_db(&mut rng) < -10.0);
        assert!(deep);
    }

    #[test]
    fn rician_mean_power_is_unity_and_k_controls_spread() {
        let n = 50_000;
        let spread = |k: f64, seed: u64| -> (f64, f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fading = RicianFading::new(k);
            let samples: Vec<f64> = (0..n)
                .map(|_| 10f64.powf(fading.sample_db(&mut rng) / 10.0))
                .collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
            (mean, var)
        };
        let (m0, v0) = spread(0.0, 31);
        let (m10, v10) = spread(10.0, 32);
        assert!((m0 - 1.0).abs() < 0.03, "K=0 mean {m0}");
        assert!((m10 - 1.0).abs() < 0.03, "K=10 mean {m10}");
        // Rayleigh (K=0) power variance is 1; strong LOS shrinks it.
        assert!((v0 - 1.0).abs() < 0.05, "K=0 var {v0}");
        assert!(v10 < 0.25, "K=10 var {v10}");
        // Deep fades vanish with a strong LOS component.
        let mut rng = StdRng::seed_from_u64(33);
        let strong = RicianFading::new(20.0);
        let deep = (0..20_000).any(|_| strong.sample_db(&mut rng) < -10.0);
        assert!(!deep, "K=20 should show no deep fades");
    }

    #[test]
    #[should_panic(expected = "K factor")]
    fn negative_k_rejected() {
        let _ = RicianFading::new(-0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = ShadowingProcess::new(ShadowingConfig { sigma_db: -1.0, decorrelation_km: 0.1 });
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_speed_rejected() {
        let _ = speed_penalty_db(-5.0);
    }
}
