//! Discretised fuzzy sets over a variable's universe.
//!
//! The Mamdani engine aggregates fired consequents into a [`SampledSet`],
//! which the sampling-based defuzzifiers then reduce to a crisp value.

use crate::norms::Aggregation;
use serde::{Deserialize, Serialize};

/// The `i`-th coordinate of `n` evenly spaced grid points spanning
/// `[min, max]`, endpoints included.
///
/// This is the one formula shared by every universe discretisation in the
/// crate — [`SampledSet`], the interpreted Mamdani engine, the compiled
/// engine's pre-sampled consequent tables and the LUT grids all call it, so
/// their sample coordinates are bit-identical by construction.
///
/// `n` must be at least 2 (a grid needs both endpoints); every grid in the
/// crate enforces that at construction time, and debug builds assert it.
#[inline]
pub fn grid_x(min: f64, max: f64, n: usize, i: usize) -> f64 {
    debug_assert!(n >= 2, "a sample grid needs at least two points, got {n}");
    min + (max - min) * i as f64 / (n - 1) as f64
}

/// Maximum membership degree of a sampled curve (its *height*). The one
/// implementation behind [`SampledSet::height`] and the slice-based
/// defuzzifiers, so both paths agree bit for bit.
pub(crate) fn slice_height(mu: &[f64]) -> f64 {
    mu.iter().cloned().fold(0.0, f64::max)
}

/// Trapezoidal-rule area of a sampled curve over `[min, max]` (`mu.len()`
/// must be ≥ 2). Used by [`SampledSet::area`] and the bisector.
pub(crate) fn slice_area(min: f64, max: f64, mu: &[f64]) -> f64 {
    slice_area_moment(min, max, mu, 0..mu.len(), |i| grid_x(min, max, mu.len(), i)).0
}

/// Trapezoidal-rule first moment `∫ x μ(x) dx` of a sampled curve over
/// `[min, max]` (`mu.len()` must be ≥ 2). Used by
/// [`SampledSet::first_moment`].
pub(crate) fn slice_first_moment(min: f64, max: f64, mu: &[f64]) -> f64 {
    slice_area_moment(min, max, mu, 0..mu.len(), |i| grid_x(min, max, mu.len(), i)).1
}

/// Trapezoidal-rule area and first moment of a sampled curve over
/// `[min, max]`, in one pass over its `support` — the one implementation
/// behind [`slice_area`], [`slice_first_moment`], the centroid and the
/// compiled engine's sparse centroid.
///
/// `mu.len()` (≥ 2) is the grid size; `mu` is read only inside `support`
/// and taken to be `+0.0` outside it (those slots may hold stale data).
/// `x(i)` is the grid coordinate of sample `i`, i.e.
/// [`grid_x`]`(min, max, mu.len(), i)` or a table built from it.
///
/// With `support` the full grid these are the plain trapezoid sums, term by
/// term and left to right exactly like `Iterator::sum`. With a narrower
/// support the result has the same bits. The interior terms outside the
/// support are `+0.0` (area) and `+0.0 · xᵢ` (moment). A run of such terms
/// changes a partial sum only when that sum is a zero, and then only its
/// sign: to `+0.0` iff some term of the run is `+0.0`. The grid is
/// non-decreasing, so a run's signs go `−` then `+`, and its last term
/// alone has exactly the run's effect. Each skipped run is therefore
/// replaced by its last term, and the summed terms keep their order.
pub(crate) fn slice_area_moment(
    min: f64,
    max: f64,
    mu: &[f64],
    support: std::ops::Range<usize>,
    x: impl Fn(usize) -> f64,
) -> (f64, f64) {
    let n = mu.len();
    let at = |i: usize| if support.contains(&i) { mu[i] } else { 0.0 };
    // The interior 1..n-1 splits into a skipped run [1, a), the summed
    // terms [a, b) and a skipped run [b, n - 1).
    let a = support.start.clamp(1, n - 1);
    let b = support.end.clamp(a, n - 1);
    // Start from the neutral element `Iterator::sum` starts from, so the
    // full-support case is bit-identical to summing with it.
    let mut area: f64 = std::iter::empty::<f64>().sum();
    let mut moment = area;
    if a > 1 {
        area += 0.0;
        moment += 0.0 * x(a - 1);
    }
    for (i, &m) in mu.iter().enumerate().take(b).skip(a) {
        area += m;
        moment += m * x(i);
    }
    if b < n - 1 {
        area += 0.0;
        moment += 0.0 * x(n - 2);
    }
    let dx = (max - min) / (n - 1) as f64;
    let (first, last) = (at(0), at(n - 1));
    (
        dx * (0.5 * (first + last) + area),
        dx * (0.5 * (first * x(0) + last * x(n - 1)) + moment),
    )
}

/// A fuzzy set represented by membership degrees sampled on a uniform grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledSet {
    /// Lower bound of the sampled universe.
    pub min: f64,
    /// Upper bound of the sampled universe.
    pub max: f64,
    /// Membership degrees at `len()` evenly spaced points, endpoints
    /// included.
    pub mu: Vec<f64>,
}

impl SampledSet {
    /// An all-zero (empty) set sampled at `n >= 2` points.
    pub fn empty(min: f64, max: f64, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples");
        assert!(min < max, "empty universe [{min}, {max}]");
        SampledSet { min, max, mu: vec![0.0; n] }
    }

    /// Build from an arbitrary membership closure.
    pub fn from_fn(min: f64, max: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
        let mut s = Self::empty(min, max, n);
        for i in 0..n {
            s.mu[i] = f(s.x_at(i)).clamp(0.0, 1.0);
        }
        s
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.mu.len()
    }

    /// True when the set holds no samples (never constructible via public
    /// API, but required for a well-behaved `len`).
    pub fn is_empty(&self) -> bool {
        self.mu.is_empty()
    }

    /// The grid coordinate of sample `i`.
    #[inline]
    pub fn x_at(&self, i: usize) -> f64 {
        grid_x(self.min, self.max, self.mu.len(), i)
    }

    /// Grid spacing.
    #[inline]
    pub fn dx(&self) -> f64 {
        (self.max - self.min) / (self.mu.len() - 1) as f64
    }

    /// Membership at an arbitrary `x` by linear interpolation between grid
    /// points; zero outside the universe.
    pub fn interp(&self, x: f64) -> f64 {
        if x < self.min || x > self.max {
            return 0.0;
        }
        let t = (x - self.min) / (self.max - self.min) * (self.mu.len() - 1) as f64;
        let i = (t.floor() as usize).min(self.mu.len() - 2);
        let frac = t - i as f64;
        self.mu[i] * (1.0 - frac) + self.mu[i + 1] * frac
    }

    /// Accumulate another membership closure into this set under the given
    /// aggregation operator. Used per fired rule.
    pub fn aggregate_fn(&mut self, agg: Aggregation, f: impl Fn(f64) -> f64) {
        for i in 0..self.mu.len() {
            let x = self.x_at(i);
            self.mu[i] = agg.apply(self.mu[i], f(x).clamp(0.0, 1.0));
        }
    }

    /// Pointwise union (max) with another set on the same grid.
    pub fn union(&self, other: &SampledSet) -> SampledSet {
        self.zip_with(other, f64::max)
    }

    /// Pointwise intersection (min) with another set on the same grid.
    pub fn intersection(&self, other: &SampledSet) -> SampledSet {
        self.zip_with(other, f64::min)
    }

    /// Pointwise complement.
    pub fn complement(&self) -> SampledSet {
        SampledSet {
            min: self.min,
            max: self.max,
            mu: self.mu.iter().map(|&m| 1.0 - m).collect(),
        }
    }

    fn zip_with(&self, other: &SampledSet, f: impl Fn(f64, f64) -> f64) -> SampledSet {
        assert_eq!(self.min, other.min, "sets must share a universe");
        assert_eq!(self.max, other.max, "sets must share a universe");
        assert_eq!(self.len(), other.len(), "sets must share a grid");
        SampledSet {
            min: self.min,
            max: self.max,
            mu: self.mu.iter().zip(&other.mu).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Maximum membership degree (the set's *height*).
    pub fn height(&self) -> f64 {
        slice_height(&self.mu)
    }

    /// Trapezoidal-rule area under the sampled membership curve.
    pub fn area(&self) -> f64 {
        slice_area(self.min, self.max, &self.mu)
    }

    /// Trapezoidal-rule first moment `∫ x μ(x) dx`.
    pub fn first_moment(&self) -> f64 {
        slice_first_moment(self.min, self.max, &self.mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::Mf;

    #[test]
    fn grid_coordinates() {
        let s = SampledSet::empty(0.0, 10.0, 11);
        assert_eq!(s.len(), 11);
        assert_eq!(s.x_at(0), 0.0);
        assert_eq!(s.x_at(10), 10.0);
        assert!((s.x_at(3) - 3.0).abs() < 1e-12);
        assert!((s.dx() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_fn_clamps() {
        let s = SampledSet::from_fn(0.0, 1.0, 3, |x| 2.0 * x - 0.5);
        assert_eq!(s.mu, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn interpolation() {
        let s = SampledSet::from_fn(0.0, 2.0, 3, |x| x / 2.0);
        assert!((s.interp(0.5) - 0.25).abs() < 1e-12);
        assert!((s.interp(1.5) - 0.75).abs() < 1e-12);
        assert_eq!(s.interp(-0.1), 0.0, "outside universe");
        assert_eq!(s.interp(2.1), 0.0);
        assert!((s.interp(2.0) - 1.0).abs() < 1e-12, "right endpoint exact");
    }

    #[test]
    fn aggregation_max_accumulates() {
        let tri1 = Mf::triangular(0.0, 2.0, 4.0);
        let tri2 = Mf::triangular(2.0, 4.0, 6.0);
        let mut s = SampledSet::empty(0.0, 6.0, 61);
        s.aggregate_fn(Aggregation::Max, |x| tri1.eval(x));
        s.aggregate_fn(Aggregation::Max, |x| tri2.eval(x));
        // At the crossover x = 3 both triangles give 0.5.
        assert!((s.interp(3.0) - 0.5).abs() < 1e-9);
        assert!((s.interp(2.0) - 1.0).abs() < 1e-9);
        assert!((s.interp(4.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn union_intersection_complement() {
        let a = SampledSet::from_fn(0.0, 1.0, 5, |x| x);
        let b = SampledSet::from_fn(0.0, 1.0, 5, |x| 1.0 - x);
        let u = a.union(&b);
        let i = a.intersection(&b);
        for k in 0..5 {
            assert!(u.mu[k] >= i.mu[k]);
            assert!((u.mu[k] - a.mu[k].max(b.mu[k])).abs() < 1e-12);
            assert!((i.mu[k] - a.mu[k].min(b.mu[k])).abs() < 1e-12);
        }
        let c = a.complement();
        for k in 0..5 {
            assert!((c.mu[k] - (1.0 - a.mu[k])).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "share a universe")]
    fn mismatched_universes_panic() {
        let a = SampledSet::empty(0.0, 1.0, 5);
        let b = SampledSet::empty(0.0, 2.0, 5);
        let _ = a.union(&b);
    }

    #[test]
    fn height_area_moment() {
        // Unit-height triangle (0, 1, 2): area 1, centroid 1.
        let tri = Mf::triangular(0.0, 1.0, 2.0);
        let s = SampledSet::from_fn(0.0, 2.0, 2001, |x| tri.eval(x));
        assert!((s.height() - 1.0).abs() < 1e-9);
        assert!((s.area() - 1.0).abs() < 1e-6);
        assert!((s.first_moment() / s.area() - 1.0).abs() < 1e-6);
    }

    /// The ranged sums equal the full-grid sums bit for bit, including the
    /// sign of a zero moment: `mu` below is denormal, so every interior
    /// moment term underflows to `-0.0` while the area stays positive, and
    /// only the skipped `+0.0 · x` terms right of 0 make the full-grid
    /// moment `+0.0` (the endpoint half-term is `0.5 · (-5e-324) = -0.0`).
    #[test]
    fn ranged_sums_match_full_sums_bitwise() {
        let (min, max, n) = (-1.0, 1.0, 201);
        let unit = f64::from_bits(1);
        let mut mu = vec![0.0; n];
        mu[0] = unit;
        mu[98] = 24.0 * unit;
        mu[99] = 49.0 * unit;
        let x = |i: usize| grid_x(min, max, n, i);
        let full = slice_area_moment(min, max, &mu, 0..n, x);
        assert!(full.0 > 0.0 && full.1 == 0.0 && full.1.is_sign_positive(), "{full:?}");
        // Stale data outside the support must not be read.
        let mut stale = mu.clone();
        stale[100..].fill(f64::NAN);
        let ranged = slice_area_moment(min, max, &stale, 0..100, x);
        assert_eq!((full.0.to_bits(), full.1.to_bits()), (ranged.0.to_bits(), ranged.1.to_bits()));

        // Every sub-range that covers the non-zero samples, on curves that
        // are zero at x = 0, straddle it, or sit on one side.
        let mut curves = vec![mu];
        for (s, e) in [(40, 60), (95, 106), (100, 101), (0, 1), (200, 201), (120, 180)] {
            let mut c = vec![0.0; n];
            for (k, slot) in c[s..e].iter_mut().enumerate() {
                *slot = (k as f64 + 1.0) / (e - s) as f64;
            }
            curves.push(c);
        }
        for c in &curves {
            let full = slice_area_moment(min, max, c, 0..n, x);
            let first = c.iter().position(|&m| m != 0.0).unwrap();
            let last = c.iter().rposition(|&m| m != 0.0).unwrap() + 1;
            for s in [0, first / 2, first] {
                for e in [last, (last + n) / 2, n] {
                    let ranged = slice_area_moment(min, max, c, s..e, x);
                    assert_eq!(full.0.to_bits(), ranged.0.to_bits(), "area over {s}..{e}");
                    assert_eq!(full.1.to_bits(), ranged.1.to_bits(), "moment over {s}..{e}");
                }
            }
        }
    }

    #[test]
    fn empty_set_has_zero_everything() {
        let s = SampledSet::empty(0.0, 1.0, 16);
        assert_eq!(s.height(), 0.0);
        assert_eq!(s.area(), 0.0);
        assert_eq!(s.first_moment(), 0.0);
        assert!(!s.is_empty(), "has samples, just all-zero");
    }
}
