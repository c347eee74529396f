//! Defuzzification: reducing an output fuzzy set to a crisp value.

use crate::fuzzyset::{grid_x, slice_area, slice_area_moment, slice_height, SampledSet};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Defuzzification strategy.
///
/// All strategies operate on the aggregated, sampled output set. `Centroid`
/// is the paper's (and the industry's) default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Defuzzifier {
    /// Center of gravity: `∫ x μ(x) dx / ∫ μ(x) dx`.
    #[default]
    Centroid,
    /// The abscissa that splits the area under μ into two equal halves.
    Bisector,
    /// Mean of the maxima.
    MeanOfMax,
    /// Smallest abscissa attaining the maximum.
    SmallestOfMax,
    /// Largest abscissa attaining the maximum.
    LargestOfMax,
}

impl Defuzzifier {
    /// Defuzzify `set`; `None` when the set is identically zero (no rule
    /// fired).
    pub fn defuzzify(&self, set: &SampledSet) -> Option<f64> {
        self.defuzzify_slice(set.min, set.max, &set.mu)
    }

    /// Defuzzify a membership curve given as raw samples over `[min, max]`
    /// (endpoints included, uniform spacing) without constructing a
    /// [`SampledSet`].
    ///
    /// This is the allocation-free core behind [`Defuzzifier::defuzzify`];
    /// the compiled engine ([`CompiledFis`](crate::CompiledFis)) calls it on
    /// its reusable scratch buffer. `None` when the curve is identically
    /// zero (no rule fired) — or when fewer than two samples are supplied,
    /// since a grid needs two endpoints to span a universe (every engine
    /// path enforces `resolution >= 2` at build time).
    pub fn defuzzify_slice(&self, min: f64, max: f64, mu: &[f64]) -> Option<f64> {
        if mu.len() < 2 {
            return None;
        }
        let height = slice_height(mu);
        if height <= 0.0 {
            return None;
        }
        match self {
            Defuzzifier::Centroid => {
                centroid_over(min, max, mu, 0..mu.len(), |i| grid_x(min, max, mu.len(), i))
                    // Degenerate: positive height but measure-zero area
                    // (single non-zero sample); fall back to mean-of-max.
                    .or_else(|| Defuzzifier::MeanOfMax.defuzzify_slice(min, max, mu))
            }
            Defuzzifier::Bisector => {
                let total = slice_area(min, max, mu);
                if total <= 0.0 {
                    return Defuzzifier::MeanOfMax.defuzzify_slice(min, max, mu);
                }
                // Walk trapezoid panels until the running area crosses half.
                let dx = (max - min) / (mu.len() - 1) as f64;
                let mut acc = 0.0;
                let half = total / 2.0;
                for i in 0..mu.len() - 1 {
                    let panel = 0.5 * (mu[i] + mu[i + 1]) * dx;
                    if acc + panel >= half {
                        // Linear interpolation within the panel.
                        let frac = if panel > 0.0 { (half - acc) / panel } else { 0.5 };
                        return Some(grid_x(min, max, mu.len(), i) + frac * dx);
                    }
                    acc += panel;
                }
                Some(max)
            }
            Defuzzifier::MeanOfMax => {
                let (sum, count) = max_positions(min, max, mu, height)
                    .fold((0.0, 0usize), |(s, c), x| (s + x, c + 1));
                Some(sum / count as f64)
            }
            Defuzzifier::SmallestOfMax => max_positions(min, max, mu, height).next(),
            Defuzzifier::LargestOfMax => max_positions(min, max, mu, height).last(),
        }
    }

    /// All variants, for ablation sweeps.
    pub const ALL: [Defuzzifier; 5] = [
        Defuzzifier::Centroid,
        Defuzzifier::Bisector,
        Defuzzifier::MeanOfMax,
        Defuzzifier::SmallestOfMax,
        Defuzzifier::LargestOfMax,
    ];
}

/// Centroid `∫ x μ dx / ∫ μ dx` of a curve that is `+0.0` outside `support`
/// (see [`slice_area_moment`] for the arguments and why a narrow support
/// gives the same bits as the full one). `None` when the area is `<= 0`;
/// [`Defuzzifier::Centroid`] then falls back to mean-of-max.
pub(crate) fn centroid_over(
    min: f64,
    max: f64,
    mu: &[f64],
    support: Range<usize>,
    x: impl Fn(usize) -> f64,
) -> Option<f64> {
    let (area, moment) = slice_area_moment(min, max, mu, support, x);
    if area <= 0.0 {
        return None;
    }
    Some(moment / area)
}

/// Iterator over grid positions whose membership ties the maximum (within a
/// small tolerance that absorbs floating-point jitter).
fn max_positions(
    min: f64,
    max: f64,
    mu: &[f64],
    height: f64,
) -> impl Iterator<Item = f64> + '_ {
    const TOL: f64 = 1e-12;
    (0..mu.len()).filter_map(move |i| {
        if (mu[i] - height).abs() <= TOL {
            Some(grid_x(min, max, mu.len(), i))
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::Mf;

    fn sampled(mf: Mf, min: f64, max: f64) -> SampledSet {
        SampledSet::from_fn(min, max, 4001, |x| mf.eval(x))
    }

    #[test]
    fn centroid_of_symmetric_triangle() {
        let s = sampled(Mf::triangular(0.0, 1.0, 2.0), 0.0, 2.0);
        let c = Defuzzifier::Centroid.defuzzify(&s).unwrap();
        assert!((c - 1.0).abs() < 1e-6);
    }

    #[test]
    fn centroid_of_asymmetric_triangle() {
        // Triangle (0, 0, 3): centroid x = (0 + 0 + 3)/3 = 1.
        let s = sampled(Mf::triangular(0.0, 0.0, 3.0), 0.0, 3.0);
        let c = Defuzzifier::Centroid.defuzzify(&s).unwrap();
        assert!((c - 1.0).abs() < 1e-5, "got {c}");
    }

    #[test]
    fn bisector_of_symmetric_set_equals_centroid() {
        let s = sampled(Mf::trapezoidal(0.0, 1.0, 3.0, 4.0), 0.0, 4.0);
        let c = Defuzzifier::Centroid.defuzzify(&s).unwrap();
        let b = Defuzzifier::Bisector.defuzzify(&s).unwrap();
        assert!((c - 2.0).abs() < 1e-6);
        assert!((b - 2.0).abs() < 1e-3);
    }

    #[test]
    fn bisector_skewed() {
        // Right-angled triangle rising (0,3,3): most area near x=3, so the
        // bisector sits right of the midpoint 1.5 and right of nothing else.
        let s = sampled(Mf::triangular(0.0, 3.0, 3.0), 0.0, 3.0);
        let b = Defuzzifier::Bisector.defuzzify(&s).unwrap();
        // Area left of t: t²/9 of total -> half at t = 3/sqrt(2) ≈ 2.121.
        assert!((b - 3.0 / 2.0f64.sqrt()).abs() < 1e-3, "got {b}");
    }

    #[test]
    fn maxima_family_on_plateau() {
        let s = sampled(Mf::trapezoidal(0.0, 1.0, 3.0, 4.0), 0.0, 4.0);
        let mom = Defuzzifier::MeanOfMax.defuzzify(&s).unwrap();
        let som = Defuzzifier::SmallestOfMax.defuzzify(&s).unwrap();
        let lom = Defuzzifier::LargestOfMax.defuzzify(&s).unwrap();
        assert!((mom - 2.0).abs() < 1e-3, "mean of plateau [1,3]");
        assert!((som - 1.0).abs() < 1e-3);
        assert!((lom - 3.0).abs() < 1e-3);
        assert!(som <= mom && mom <= lom);
    }

    #[test]
    fn empty_set_defuzzifies_to_none() {
        let s = SampledSet::empty(0.0, 1.0, 101);
        for d in Defuzzifier::ALL {
            assert_eq!(d.defuzzify(&s), None, "{d:?}");
        }
    }

    #[test]
    fn degenerate_slices_defuzzify_to_none() {
        // Fewer than two samples cannot span a universe: the raw-slice API
        // declines instead of panicking on the trapezoid arithmetic.
        for d in Defuzzifier::ALL {
            assert_eq!(d.defuzzify_slice(0.0, 1.0, &[]), None, "{d:?} on empty");
            assert_eq!(d.defuzzify_slice(0.0, 1.0, &[0.5]), None, "{d:?} on singleton");
        }
    }

    #[test]
    fn all_results_inside_universe() {
        let s = sampled(Mf::gaussian(0.3, 0.1), 0.0, 1.0);
        for d in Defuzzifier::ALL {
            let v = d.defuzzify(&s).unwrap();
            assert!((0.0..=1.0).contains(&v), "{d:?} gave {v}");
        }
    }

    #[test]
    fn single_spike_falls_back_sanely() {
        // One non-zero sample: centroid's area is ~0 at machine precision
        // but the maxima family still locates the spike.
        let mut s = SampledSet::empty(0.0, 1.0, 101);
        s.mu[50] = 1.0;
        for d in Defuzzifier::ALL {
            let v = d.defuzzify(&s).unwrap();
            assert!((v - 0.5).abs() < 0.02, "{d:?} gave {v}");
        }
    }

    #[test]
    fn clipped_output_still_centers() {
        // Aggregate of a clipped symmetric triangle keeps centroid at peak.
        let tri = Mf::triangular(0.0, 1.0, 2.0);
        let s = SampledSet::from_fn(0.0, 2.0, 2001, |x| tri.eval(x).min(0.4));
        let c = Defuzzifier::Centroid.defuzzify(&s).unwrap();
        assert!((c - 1.0).abs() < 1e-6);
    }
}
