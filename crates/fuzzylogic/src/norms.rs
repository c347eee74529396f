//! Triangular norms and co-norms, implication and aggregation operators.
//!
//! A Mamdani engine is parameterised by four operators:
//!
//! * a **t-norm** for AND-connected antecedents,
//! * an **s-norm** for OR-connected antecedents,
//! * an **implication** operator that shapes each fired consequent,
//! * an **aggregation** operator that merges fired consequents into one
//!   output fuzzy set.
//!
//! The paper uses the classic min/max (Zadeh) family; the alternatives here
//! power the ablation benchmarks.

use serde::{Deserialize, Serialize};

/// Triangular norm (fuzzy AND).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TNorm {
    /// Zadeh minimum: `min(a, b)`. The paper's choice.
    #[default]
    Min,
    /// Algebraic product: `a * b`.
    Product,
    /// Łukasiewicz (bounded difference): `max(0, a + b - 1)`.
    Lukasiewicz,
    /// Drastic product: `min` if one operand is 1, else 0.
    Drastic,
    /// Nilpotent minimum: `min(a, b)` if `a + b > 1`, else 0.
    NilpotentMin,
    /// Hamacher product: `ab / (a + b - ab)` (0 when both are 0).
    Hamacher,
}

impl TNorm {
    /// Apply the norm to two membership degrees. Both operands are clamped
    /// into `[0, 1]` first so numerical noise cannot escape the lattice.
    #[inline]
    pub fn apply(&self, a: f64, b: f64) -> f64 {
        let a = a.clamp(0.0, 1.0);
        let b = b.clamp(0.0, 1.0);
        match self {
            TNorm::Min => a.min(b),
            TNorm::Product => a * b,
            TNorm::Lukasiewicz => (a + b - 1.0).max(0.0),
            TNorm::Drastic => {
                if a == 1.0 {
                    b
                } else if b == 1.0 {
                    a
                } else {
                    0.0
                }
            }
            TNorm::NilpotentMin => {
                if a + b > 1.0 {
                    a.min(b)
                } else {
                    0.0
                }
            }
            TNorm::Hamacher => {
                let denom = a + b - a * b;
                if denom == 0.0 {
                    0.0
                } else {
                    a * b / denom
                }
            }
        }
    }

    /// Fold the norm over an iterator of degrees; the empty conjunction is 1.
    pub fn fold(&self, values: impl IntoIterator<Item = f64>) -> f64 {
        values.into_iter().fold(1.0, |acc, v| self.apply(acc, v))
    }

    /// All variants, for exhaustive ablation sweeps.
    pub const ALL: [TNorm; 6] = [
        TNorm::Min,
        TNorm::Product,
        TNorm::Lukasiewicz,
        TNorm::Drastic,
        TNorm::NilpotentMin,
        TNorm::Hamacher,
    ];
}

/// Triangular co-norm (fuzzy OR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SNorm {
    /// Zadeh maximum: `max(a, b)`. The paper's choice.
    #[default]
    Max,
    /// Probabilistic (algebraic) sum: `a + b - ab`.
    ProbabilisticSum,
    /// Bounded sum: `min(1, a + b)`.
    BoundedSum,
    /// Drastic sum: `max` if one operand is 0, else 1.
    Drastic,
    /// Nilpotent maximum: `max(a, b)` if `a + b < 1`, else 1.
    NilpotentMax,
    /// Einstein sum: `(a + b) / (1 + ab)`.
    Einstein,
}

impl SNorm {
    /// Apply the co-norm to two membership degrees (clamped to `[0, 1]`).
    #[inline]
    pub fn apply(&self, a: f64, b: f64) -> f64 {
        let a = a.clamp(0.0, 1.0);
        let b = b.clamp(0.0, 1.0);
        match self {
            SNorm::Max => a.max(b),
            SNorm::ProbabilisticSum => a + b - a * b,
            SNorm::BoundedSum => (a + b).min(1.0),
            SNorm::Drastic => {
                if a == 0.0 {
                    b
                } else if b == 0.0 {
                    a
                } else {
                    1.0
                }
            }
            SNorm::NilpotentMax => {
                if a + b < 1.0 {
                    a.max(b)
                } else {
                    1.0
                }
            }
            SNorm::Einstein => (a + b) / (1.0 + a * b),
        }
    }

    /// Fold the co-norm over an iterator of degrees; the empty disjunction
    /// is 0.
    pub fn fold(&self, values: impl IntoIterator<Item = f64>) -> f64 {
        values.into_iter().fold(0.0, |acc, v| self.apply(acc, v))
    }

    /// All variants, for exhaustive ablation sweeps.
    pub const ALL: [SNorm; 6] = [
        SNorm::Max,
        SNorm::ProbabilisticSum,
        SNorm::BoundedSum,
        SNorm::Drastic,
        SNorm::NilpotentMax,
        SNorm::Einstein,
    ];
}

/// Implication operator: shapes the consequent MF by the firing strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Implication {
    /// Mamdani clipping: `min(w, μ(x))`. The paper's choice.
    #[default]
    Min,
    /// Larsen scaling: `w * μ(x)`.
    Product,
}

impl Implication {
    /// Apply the implication of firing strength `w` to membership `mu`.
    #[inline]
    pub fn apply(&self, w: f64, mu: f64) -> f64 {
        match self {
            Implication::Min => w.min(mu),
            Implication::Product => w * mu,
        }
    }
}

/// Aggregation operator: merges all fired consequents into the output set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Aggregation {
    /// Pointwise maximum. The paper's choice.
    #[default]
    Max,
    /// Bounded sum `min(1, Σ)`, emphasising consensus between rules.
    BoundedSum,
    /// Probabilistic sum `a + b - ab` applied pairwise.
    ProbabilisticSum,
}

impl Aggregation {
    /// Combine an accumulated degree with a new fired degree.
    #[inline]
    pub fn apply(&self, acc: f64, v: f64) -> f64 {
        match self {
            Aggregation::Max => acc.max(v),
            Aggregation::BoundedSum => (acc + v).min(1.0),
            Aggregation::ProbabilisticSum => acc + v - acc * v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];

    #[test]
    fn tnorm_identity_and_annihilator() {
        // T(a, 1) = a and T(a, 0) = 0 for every t-norm.
        for t in TNorm::ALL {
            for &a in &SAMPLES {
                assert!((t.apply(a, 1.0) - a).abs() < 1e-12, "{t:?} identity at {a}");
                assert_eq!(t.apply(a, 0.0), 0.0, "{t:?} annihilator at {a}");
                // Both sides and both zeros: the compiled engine's zero gate
                // relies on a zero degree anywhere in a fold giving 0.
                assert_eq!(t.apply(0.0, a), 0.0, "{t:?} left annihilator at {a}");
                assert_eq!(t.apply(a, -0.0), 0.0, "{t:?} annihilator -0 at {a}");
            }
        }
    }

    #[test]
    fn tnorm_commutative_and_bounded() {
        for t in TNorm::ALL {
            for &a in &SAMPLES {
                for &b in &SAMPLES {
                    let ab = t.apply(a, b);
                    let ba = t.apply(b, a);
                    assert!((ab - ba).abs() < 1e-12, "{t:?} commutativity");
                    assert!((0.0..=1.0).contains(&ab), "{t:?} in [0,1]");
                    assert!(ab <= a.min(b) + 1e-12, "{t:?} below min");
                }
            }
        }
    }

    #[test]
    fn tnorm_monotone() {
        for t in TNorm::ALL {
            for &a in &SAMPLES {
                for w in SAMPLES.windows(2) {
                    assert!(
                        t.apply(a, w[0]) <= t.apply(a, w[1]) + 1e-12,
                        "{t:?} monotone in second arg"
                    );
                }
            }
        }
    }

    #[test]
    fn snorm_identity_and_annihilator() {
        // S(a, 0) = a and S(a, 1) = 1 for every s-norm.
        for s in SNorm::ALL {
            for &a in &SAMPLES {
                assert!((s.apply(a, 0.0) - a).abs() < 1e-12, "{s:?} identity at {a}");
                assert!((s.apply(a, 1.0) - 1.0).abs() < 1e-12, "{s:?} annihilator at {a}");
            }
        }
    }

    #[test]
    fn snorm_commutative_bounded_above_max() {
        for s in SNorm::ALL {
            for &a in &SAMPLES {
                for &b in &SAMPLES {
                    let ab = s.apply(a, b);
                    assert!((ab - s.apply(b, a)).abs() < 1e-12, "{s:?} commutativity");
                    assert!((0.0..=1.0).contains(&ab), "{s:?} in [0,1]");
                    assert!(ab >= a.max(b) - 1e-12, "{s:?} above max");
                }
            }
        }
    }

    #[test]
    fn de_morgan_for_zadeh_pair() {
        // max(a, b) = 1 - min(1-a, 1-b).
        for &a in &SAMPLES {
            for &b in &SAMPLES {
                let lhs = SNorm::Max.apply(a, b);
                let rhs = 1.0 - TNorm::Min.apply(1.0 - a, 1.0 - b);
                assert!((lhs - rhs).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn specific_values() {
        assert_eq!(TNorm::Min.apply(0.3, 0.7), 0.3);
        assert!((TNorm::Product.apply(0.5, 0.5) - 0.25).abs() < 1e-12);
        assert!((TNorm::Lukasiewicz.apply(0.7, 0.7) - 0.4).abs() < 1e-12);
        assert_eq!(TNorm::Lukasiewicz.apply(0.3, 0.3), 0.0);
        assert_eq!(TNorm::Drastic.apply(0.4, 0.9), 0.0);
        assert_eq!(TNorm::NilpotentMin.apply(0.6, 0.7), 0.6);
        assert_eq!(TNorm::NilpotentMin.apply(0.3, 0.3), 0.0);
        assert!((TNorm::Hamacher.apply(0.5, 0.5) - (0.25 / 0.75)).abs() < 1e-12);
        assert_eq!(TNorm::Hamacher.apply(0.0, 0.0), 0.0, "no division by zero");

        assert_eq!(SNorm::Max.apply(0.3, 0.7), 0.7);
        assert!((SNorm::ProbabilisticSum.apply(0.5, 0.5) - 0.75).abs() < 1e-12);
        assert_eq!(SNorm::BoundedSum.apply(0.7, 0.7), 1.0);
        assert_eq!(SNorm::Drastic.apply(0.4, 0.9), 1.0);
        assert_eq!(SNorm::NilpotentMax.apply(0.3, 0.3), 0.3);
        assert_eq!(SNorm::NilpotentMax.apply(0.6, 0.7), 1.0);
        assert!((SNorm::Einstein.apply(0.5, 0.5) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fold_neutral_elements() {
        assert_eq!(TNorm::Min.fold(std::iter::empty()), 1.0);
        assert_eq!(SNorm::Max.fold(std::iter::empty()), 0.0);
        assert_eq!(TNorm::Min.fold([0.8, 0.3, 0.5]), 0.3);
        assert_eq!(SNorm::Max.fold([0.8, 0.3, 0.5]), 0.8);
        assert!((TNorm::Product.fold([0.5, 0.5, 0.5]) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn clamping_guards_against_numeric_noise() {
        assert_eq!(TNorm::Min.apply(1.2, 0.5), 0.5);
        assert_eq!(TNorm::Product.apply(-0.1, 0.5), 0.0);
        assert_eq!(SNorm::Max.apply(1.5, 0.2), 1.0);
    }

    #[test]
    fn implication_operators() {
        assert_eq!(Implication::Min.apply(0.4, 0.9), 0.4);
        assert_eq!(Implication::Min.apply(0.9, 0.4), 0.4);
        assert!((Implication::Product.apply(0.5, 0.6) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn aggregation_operators() {
        assert_eq!(Aggregation::Max.apply(0.3, 0.6), 0.6);
        assert_eq!(Aggregation::BoundedSum.apply(0.7, 0.6), 1.0);
        assert!((Aggregation::ProbabilisticSum.apply(0.5, 0.5) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn defaults_match_the_paper() {
        assert_eq!(TNorm::default(), TNorm::Min);
        assert_eq!(SNorm::default(), SNorm::Max);
        assert_eq!(Implication::default(), Implication::Min);
        assert_eq!(Aggregation::default(), Aggregation::Max);
    }

    #[test]
    fn serde_round_trip() {
        let t = TNorm::Lukasiewicz;
        let s: TNorm = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(t, s);
    }
}
