//! Property tests pinning the compiled decision plane:
//!
//! * [`CompiledFis`] output is **bitwise identical** to the interpreted
//!   [`Fis`] engine for arbitrary in-range, edge-of-range and out-of-range
//!   CSSP/SSN/DMB inputs, for both FLC profiles and every defuzzifier —
//!   the contract that lets the fleet engine and the controllers swap the
//!   interpreted engine for the compiled plan without moving a single
//!   golden byte.
//! * The batch entry point equals the scalar path bit for bit, for every
//!   batch length up to two lane groups plus a ragged tail, for every
//!   variant, whatever a row's neighbours in the batch; a failing batch
//!   returns its first failing row's error after writing every earlier
//!   row and no later one.
//! * The paper LUT's absolute HD error stays under its documented bound.
//! * Every path of the sparse evaluator (supports, merged consequents, the
//!   zero gate, the ranged centroid, the dense fallback) is swept
//!   deterministically: the paper FLC over every membership breakpoint
//!   ±1 ulp, and a non-paper system over every operator combination, each
//!   through `evaluate_one` and through `evaluate_batch` in odd-sized
//!   chunks.

use fuzzy_handover::core::flc::{
    build_flc_with, paper_flc_lut, paper_flc_plan, FlcProfile, CSSP_RANGE, DMB_RANGE, SSN_RANGE,
    PAPER_LUT_MAX_ABS_ERROR,
};
use fuzzy_handover::fuzzy::engine::mamdani::NoFirePolicy;
use fuzzy_handover::fuzzy::{
    Aggregation, Antecedent, CompiledFis, Connective, Consequent, Defuzzifier, EngineConfig,
    EvalScratch, Fis, FisBuilder, FuzzyError, Hedge, Implication, LinguisticVariable, Mf, Rule,
    SNorm, TNorm,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::OnceLock;

/// The widest row-lane group `evaluate_batch` forms: 8 rows with AVX2, 4
/// without. Batch lengths `0..=2 * LANES + 3` cover every ragged tail of
/// both widths.
const LANES: usize = 8;

/// Every (profile, defuzzifier) variant of the paper FLC with its compiled
/// plan, built once per process.
fn variants() -> &'static Vec<(String, Fis, CompiledFis)> {
    static VARIANTS: OnceLock<Vec<(String, Fis, CompiledFis)>> = OnceLock::new();
    VARIANTS.get_or_init(|| {
        let mut out = Vec::new();
        for profile in [FlcProfile::Paper, FlcProfile::Product] {
            for defuzz in Defuzzifier::ALL {
                let fis = build_flc_with(profile, defuzz);
                let plan = fis.compile();
                out.push((format!("{profile:?}/{defuzz:?}"), fis, plan));
            }
        }
        out
    })
}

/// An axis value: mostly interior points, plus the exact universe edges
/// and clearly out-of-range values (which both engines clamp).
fn axis(range: (f64, f64)) -> impl Strategy<Value = f64> {
    let (min, max) = range;
    prop_oneof![
        min..=max,
        Just(min),
        Just(max),
        Just(min - 7.5),
        Just(max + 7.5),
    ]
}

fn flc_inputs() -> impl Strategy<Value = [f64; 3]> {
    (axis(CSSP_RANGE), axis(SSN_RANGE), axis(DMB_RANGE))
        .prop_map(|(cssp, ssn, dmb)| [cssp, ssn, dmb])
}

/// A batch of `0..=2 * LANES + 3` rows drawn from [`flc_inputs`].
struct FlcBatch;

impl Strategy for FlcBatch {
    type Value = Vec<[f64; 3]>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = (0..=2 * LANES + 3).generate(rng);
        (0..len).map(|_| flc_inputs().generate(rng)).collect()
    }
}

proptest! {
    #[test]
    fn compiled_equals_interpreted_bitwise(x in flc_inputs()) {
        let mut scratch = EvalScratch::new();
        for (label, fis, plan) in variants() {
            let interpreted = fis.evaluate(&x).unwrap()[0];
            let compiled = plan.evaluate_one(&x, &mut scratch).unwrap();
            prop_assert_eq!(
                interpreted.to_bits(),
                compiled.to_bits(),
                "{} drifted at {:?}: {} vs {}",
                label,
                x,
                interpreted,
                compiled
            );
        }
    }

    #[test]
    fn plain_evaluate_equals_traced_evaluate(x in flc_inputs()) {
        // The interpreted engine's scratch-buffer plain path must remain
        // bit-identical to the allocating traced path it replaced.
        for (label, fis, _) in variants() {
            let plain = fis.evaluate(&x).unwrap();
            let traced = fis.evaluate_with_trace(&x).unwrap().outputs;
            prop_assert_eq!(plain[0].to_bits(), traced[0].to_bits(), "{} at {:?}", label, x);
        }
    }

    #[test]
    fn batch_equals_scalar_bitwise(
        rows in FlcBatch,
        shift in 0..=2 * LANES + 3,
    ) {
        let mut scratch = EvalScratch::new();
        for (label, _, plan) in variants() {
            let scalar: Vec<u64> = rows
                .iter()
                .map(|row| plan.evaluate_one(row, &mut scratch).unwrap().to_bits())
                .collect();
            // The same rows with other neighbours: reversed and rotated.
            let mut reversed = rows.clone();
            reversed.reverse();
            let mut rotated = rows.clone();
            rotated.rotate_left(shift.min(rows.len()));
            let orders = [("as drawn", &rows), ("reversed", &reversed), ("rotated", &rotated)];
            for (order, batch) in orders {
                let flat: Vec<f64> = batch.iter().flatten().copied().collect();
                let mut hds = vec![0.0; batch.len()];
                plan.evaluate_batch(&flat, &mut hds, &mut scratch).unwrap();
                for (row, hd) in batch.iter().zip(&hds) {
                    let k = rows.iter().position(|r| r == row).unwrap();
                    prop_assert_eq!(scalar[k], hd.to_bits(), "{} {} at {:?}", label, order, row);
                }
            }
        }
    }

    #[test]
    fn paper_lut_error_within_documented_bound(x in flc_inputs()) {
        let plan = paper_flc_plan();
        let lut = paper_flc_lut();
        let mut scratch = EvalScratch::new();
        let exact = plan.evaluate_one(&x, &mut scratch).unwrap();
        let approx = lut.evaluate(x);
        prop_assert!(
            (exact - approx).abs() <= PAPER_LUT_MAX_ABS_ERROR,
            "LUT error {} at {:?} exceeds the documented bound {}",
            (exact - approx).abs(),
            x,
            PAPER_LUT_MAX_ABS_ERROR
        );
    }
}

/// Deterministic off-node sweep pinning the LUT bound (denser than the
/// proptest samples, aligned *between* the 33-node grid cells).
#[test]
fn paper_lut_dense_offgrid_sweep_within_bound() {
    let plan = paper_flc_plan();
    let lut = paper_flc_lut();
    let worst = lut
        .max_abs_error(&plan, 48)
        .expect("the paper FLC fires on every probe");
    assert!(
        worst <= PAPER_LUT_MAX_ABS_ERROR,
        "48³ off-grid sweep found error {worst} above the documented bound {PAPER_LUT_MAX_ABS_ERROR}"
    );
    assert!(worst > 0.0, "trilinear interpolation of a kinked surface is not exact");
}

/// `x` and its two neighbouring doubles (one ulp below and above).
fn with_ulp_neighbours(x: f64) -> [f64; 3] {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return [-tiny, x, tiny];
    }
    [f64::from_bits(x.to_bits() - 1), x, f64::from_bits(x.to_bits() + 1)]
}

/// Every finite breakpoint (support and core ends) of every term of input
/// `v`, plus the universe edges, each with its ±1 ulp neighbours.
fn breakpoint_axis(fis: &Fis, v: usize) -> Vec<f64> {
    let var = &fis.inputs()[v];
    let mut points = vec![var.min, var.max];
    for term in var.terms() {
        let ((s0, s1), (c0, c1)) = (term.mf.support(), term.mf.core());
        points.extend([s0, s1, c0, c1].into_iter().filter(|x| x.is_finite()));
    }
    let mut axis: Vec<f64> = points.into_iter().flat_map(with_ulp_neighbours).collect();
    axis.sort_by(f64::total_cmp);
    axis.dedup();
    axis
}

/// Outcome of one evaluation as comparable bits (`Err` kept as is).
fn outcome_bits(r: Result<f64, FuzzyError>) -> Result<u64, FuzzyError> {
    r.map(f64::to_bits)
}

/// Check `evaluate_batch` over `inputs` (rows of `plan.n_inputs()` values)
/// in chunks of `chunk` rows against each row's `expected` outcome. A
/// chunk without a failing row returns `Ok` with every row's bits; one
/// with a failing row returns that row's error after writing every
/// earlier row and leaving it and every later row as they were, and the
/// next chunk starts after the failing row.
fn assert_batches_match(
    plan: &CompiledFis,
    inputs: &[f64],
    expected: &[Result<u64, FuzzyError>],
    chunk: usize,
    label: &str,
) {
    let ni = plan.n_inputs();
    assert_eq!(inputs.len(), expected.len() * ni, "{label}: one outcome per row");
    let unwritten = f64::from_bits(0x7ff8_0000_dead_beef);
    let mut scratch = EvalScratch::new();
    let mut out = vec![0.0; chunk];
    let mut start = 0;
    while start < expected.len() {
        let end = (start + chunk).min(expected.len());
        let hds = &mut out[..end - start];
        hds.fill(unwritten);
        let result = plan.evaluate_batch(&inputs[start * ni..end * ni], hds, &mut scratch);
        let failing = (start..end).find(|&r| expected[r].is_err());
        for r in start..failing.unwrap_or(end) {
            let row = &inputs[r * ni..(r + 1) * ni];
            assert_eq!(Ok(hds[r - start].to_bits()), expected[r], "{label}: row {r} at {row:?}");
        }
        match failing {
            Some(f) => {
                let row = &inputs[f * ni..(f + 1) * ni];
                assert_eq!(result.err().as_ref(), expected[f].as_ref().err(), "{label}: {row:?}");
                for (r, hd) in (f..end).zip(&hds[f - start..]) {
                    assert_eq!(hd.to_bits(), unwritten.to_bits(), "{label}: row {r} written");
                }
                start = f + 1;
            }
            None => {
                assert_eq!(result, Ok(()), "{label}: rows {start}..{end}");
                start = end;
            }
        }
    }
}

/// Lever coverage on the paper FLC: at a breakpoint a membership is exactly
/// 0 (the zero gate), a row's support starts or ends, and at the corners no
/// rule but the shoulders fires. Compiled must equal interpreted bit for
/// bit on every point of the breakpoint grid, for both profiles.
#[test]
fn paper_flc_breakpoint_sweep_is_bit_identical() {
    for profile in [FlcProfile::Paper, FlcProfile::Product] {
        let fis = build_flc_with(profile, Defuzzifier::Centroid);
        let plan = fis.compile();
        let mut scratch = EvalScratch::new();
        let axes: Vec<Vec<f64>> = (0..3).map(|v| breakpoint_axis(&fis, v)).collect();
        let (mut inputs, mut expected) = (Vec::new(), Vec::new());
        for &cssp in &axes[0] {
            for &ssn in &axes[1] {
                for &dmb in &axes[2] {
                    let x = [cssp, ssn, dmb];
                    let interpreted = outcome_bits(fis.evaluate(&x).map(|o| o[0]));
                    let compiled = plan.evaluate_one(&x, &mut scratch);
                    assert_eq!(interpreted, outcome_bits(compiled), "{profile:?} drifted at {x:?}");
                    inputs.extend(x);
                    expected.push(interpreted);
                }
            }
        }
        for chunk in [1, LANES - 1, 2 * LANES + 3, 101] {
            let label = format!("{profile:?} batches of {chunk}");
            assert_batches_match(&plan, &inputs, &expected, chunk, &label);
        }
    }
}

/// The paper FLC at every defuzzifier over the breakpoints of one input at
/// a time (the others at their own breakpoints' midpoints).
#[test]
fn paper_flc_breakpoints_for_every_defuzzifier() {
    for defuzz in Defuzzifier::ALL {
        let fis = build_flc_with(FlcProfile::Paper, defuzz);
        let plan = fis.compile();
        let mut scratch = EvalScratch::new();
        let centre = [-3.5, -99.0, 0.55];
        for v in 0..3 {
            for x in breakpoint_axis(&fis, v) {
                let mut input = centre;
                input[v] = x;
                assert_eq!(
                    outcome_bits(fis.evaluate(&input).map(|o| o[0])),
                    outcome_bits(plan.evaluate_one(&input, &mut scratch)),
                    "{defuzz:?} drifted at {input:?}"
                );
            }
        }
    }
}

/// A non-paper system that reaches every branch of the sparse evaluator:
///
/// * `y` spans negative and positive values, so skipped moment terms are
///   `-0.0` on the left and `+0.0` on the right;
/// * `mid` is a Gaussian with full support (clipping to it is a no-op),
///   `spike` is non-zero on one sample only (at x = 0), `far` lies outside
///   the universe (an all-zero row);
/// * `b IS zero` is a full-support Gaussian antecedent (never gated);
/// * rule 3 is an `Or` rule, rule 4 has a `Not` hedge (hedge(0) = 1, so
///   its rule must not be gated), rule 7 has weight 0, rules 1 and 8 share
///   the `lo` row (merged under `Max`);
/// * rules 9 and 10 get an antecedent whose term index does not resolve
///   (read as degree 0) — the builder rejects those, a deserialised system
///   does not.
fn sweep_system() -> Fis {
    let a = LinguisticVariable::new("a", 0.0, 10.0)
        .with_term("low", Mf::left_shoulder(2.0, 5.0))
        .with_term("mid", Mf::triangular(2.0, 5.0, 8.0))
        .with_term("high", Mf::right_shoulder(5.0, 8.0));
    let b = LinguisticVariable::new("b", -5.0, 5.0)
        .with_term("neg", Mf::trapezoidal(-5.0, -5.0, -2.0, 0.0))
        .with_term("zero", Mf::gaussian(0.0, 1.5))
        .with_term("pos", Mf::triangular(0.0, 5.0, 5.0));
    let y = LinguisticVariable::new("y", -1.0, 1.0)
        .with_term("lo", Mf::triangular(-1.0, -0.6, -0.2))
        .with_term("mid", Mf::gaussian(0.0, 0.35))
        .with_term("hi", Mf::trapezoidal(0.2, 0.6, 1.0, 1.0))
        .with_term("far", Mf::triangular(2.0, 3.0, 4.0))
        .with_term("spike", Mf::triangular(-0.01, 0.0, 0.01));
    let (lo, mid, hi, far, spike) = (0, 1, 2, 3, 4);
    let ant = Antecedent::new;
    let rule = |ants: Vec<Antecedent>, conn: Connective, term: usize| {
        Rule::new(ants, conn, vec![Consequent::new(0, term)])
    };
    let and = Connective::And;
    // The only antecedent with this hedge; re-pointed below.
    let marked = Antecedent::hedged(0, 0, Hedge::Intensify);
    let fis = FisBuilder::new("sweep")
        .input(a)
        .input(b)
        .output(y)
        .rule(rule(vec![ant(0, 0), ant(1, 0)], and, lo))
        .rule(rule(vec![ant(0, 1), ant(1, 1)], and, mid))
        .rule(rule(vec![ant(0, 2), ant(1, 2)], Connective::Or, hi))
        .rule(rule(vec![Antecedent::hedged(0, 0, Hedge::Not), ant(1, 2)], and, hi))
        .rule(rule(vec![Antecedent::hedged(0, 2, Hedge::Very)], and, far))
        .rule(rule(vec![ant(0, 1), ant(1, 0)], and, spike))
        .rule(rule(vec![ant(0, 0)], and, mid).with_weight(0.0))
        .rule(rule(vec![Antecedent::hedged(0, 1, Hedge::Somewhat), ant(1, 1)], and, lo))
        .rule(rule(vec![marked, ant(1, 1)], and, hi))
        .rule(rule(vec![marked, ant(1, 2)], Connective::Or, mid))
        .resolution(201)
        .build()
        .unwrap();
    // Re-point the two marked antecedents at a term that does not exist.
    let json = serde_json::to_string(&fis).unwrap();
    let marker = serde_json::to_string(&marked).unwrap();
    assert_eq!(json.matches(&marker).count(), 2, "{marker} must mark exactly two antecedents");
    let unresolved = marker.replace("\"term\":0", "\"term\":99");
    assert_ne!(unresolved, marker, "unexpected antecedent encoding {marker}");
    let fis: Fis = serde_json::from_str(&json.replace(&marker, &unresolved)).unwrap();
    for r in [8, 9] {
        assert_eq!(fis.rules().rules()[r].antecedents[0].term, 99, "rule {r} unresolved");
    }
    fis
}

/// Every `TNorm` × `SNorm` × `Implication` × `Aggregation` × `Defuzzifier`
/// combination on [`sweep_system`], over inputs on and between the
/// breakpoints and outside both universes.
#[test]
fn every_operator_combination_is_bit_identical() {
    let base = sweep_system();
    let a_axis = [-3.0, 0.0, 2.0, 3.3, 5.0, 6.1, 8.0, 10.0];
    let b_axis = [-5.0, -2.0, -0.7, 0.0, 1.2, 5.0, 7.0];
    let mut scratch = EvalScratch::new();
    let mut checked = 0usize;
    for and in TNorm::ALL {
        for or in SNorm::ALL {
            for implication in [Implication::Min, Implication::Product] {
                for aggregation in
                    [Aggregation::Max, Aggregation::BoundedSum, Aggregation::ProbabilisticSum]
                {
                    for defuzzifier in Defuzzifier::ALL {
                        let fis = base.clone().with_config(EngineConfig {
                            and,
                            or,
                            implication,
                            aggregation,
                            defuzzifier,
                            resolution: 201,
                            no_fire: NoFirePolicy::Error,
                        });
                        let plan = fis.compile();
                        let label = format!(
                            "{and:?}/{or:?}/{implication:?}/{aggregation:?}/{defuzzifier:?}"
                        );
                        let (mut inputs, mut expected) = (Vec::new(), Vec::new());
                        for &a in &a_axis {
                            for &b in &b_axis {
                                let x = [a, b];
                                let interpreted = outcome_bits(fis.evaluate(&x).map(|o| o[0]));
                                assert_eq!(
                                    interpreted,
                                    outcome_bits(plan.evaluate_one(&x, &mut scratch)),
                                    "{label} drifted at {x:?}"
                                );
                                inputs.extend(x);
                                expected.push(interpreted);
                                checked += 1;
                            }
                        }
                        for chunk in [LANES - 1, 2 * LANES + 3] {
                            let label = format!("{label} in batches of {chunk}");
                            assert_batches_match(&plan, &inputs, &expected, chunk, &label);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, 6 * 6 * 2 * 3 * 5 * a_axis.len() * b_axis.len());
}

/// A one-sample output term fired alone: the area comes from the single
/// sample at x = 0 and the first moment is exactly zero, so the centroid's
/// sign of zero rests on the skipped `-0.0`/`+0.0` moment terms either
/// side of the support.
#[test]
fn single_sample_term_keeps_the_sign_of_a_zero_centroid() {
    let x = LinguisticVariable::new("x", 0.0, 1.0).with_term("on", Mf::right_shoulder(0.2, 0.8));
    let y = LinguisticVariable::new("y", -1.0, 1.0)
        .with_term("spike", Mf::triangular(-0.01, 0.0, 0.01));
    for implication in [Implication::Min, Implication::Product] {
        for defuzzifier in Defuzzifier::ALL {
            let fis = FisBuilder::new("spike")
                .input(x.clone())
                .output(y.clone())
                .rule_str("IF x IS on THEN y IS spike")
                .unwrap()
                .implication(implication)
                .defuzzifier(defuzzifier)
                .resolution(201)
                .no_fire(NoFirePolicy::UniverseMidpoint)
                .build()
                .unwrap();
            let plan = fis.compile();
            let mut scratch = EvalScratch::new();
            for input in [0.0, 0.3, 0.5, 1.0] {
                let interpreted = fis.evaluate(&[input]).unwrap()[0];
                let compiled = plan.evaluate_one(&[input], &mut scratch).unwrap();
                assert_eq!(
                    interpreted.to_bits(),
                    compiled.to_bits(),
                    "{implication:?}/{defuzzifier:?} drifted at {input}"
                );
            }
            if defuzzifier == Defuzzifier::Centroid {
                let fired = plan.evaluate_one(&[1.0], &mut scratch).unwrap();
                assert_eq!(fired.to_bits(), 0.0f64.to_bits(), "centroid of the spike is +0.0");
            }
        }
    }
}

/// Malformed membership functions (a zero-width Gaussian evaluates to NaN
/// at its mean) take the compiled plan's dense fallback: a NaN output
/// sample, or a NaN firing strength from a NaN input membership.
#[test]
fn malformed_membership_functions_take_the_dense_path() {
    let nan_at_zero = Mf::Gaussian { mean: 0.0, sigma: 0.0 };
    let build = |input_mf: Mf, output_mf: Mf, and: TNorm, ops: (Implication, Aggregation)| {
        let x = LinguisticVariable::new("x", -1.0, 1.0)
            .with_term("t", input_mf)
            .with_term("left", Mf::left_shoulder(-0.5, 0.0));
        let y = LinguisticVariable::new("y", -1.0, 1.0)
            .with_term("u", output_mf)
            .with_term("v", Mf::triangular(-1.0, -0.5, 0.0));
        FisBuilder::new("malformed")
            .input(x)
            .output(y)
            .rule_str("IF x IS t THEN y IS u")
            .unwrap()
            .rule_str("IF x IS left THEN y IS v")
            .unwrap()
            .and(and)
            .implication(ops.0)
            .aggregation(ops.1)
            .resolution(101)
            .no_fire(NoFirePolicy::UniverseMidpoint)
            .build()
            .unwrap()
    };
    let well_formed = Mf::triangular(-0.5, 0.0, 0.5);
    let mfs =
        [(well_formed, nan_at_zero), (nan_at_zero, well_formed), (nan_at_zero, nan_at_zero)];
    // The product t-norm carries a NaN membership into the firing strength
    // (the minimum drops it); product implication with probabilistic-sum
    // aggregation carries a NaN sample into the output curve.
    for and in [TNorm::Min, TNorm::Product] {
        for implication in [Implication::Min, Implication::Product] {
            for aggregation in
                [Aggregation::Max, Aggregation::BoundedSum, Aggregation::ProbabilisticSum]
            {
                for (input_mf, output_mf) in mfs {
                    let fis = build(input_mf, output_mf, and, (implication, aggregation));
                    let plan = fis.compile();
                    let mut scratch = EvalScratch::new();
                    for x in [-1.0, -0.6, -0.25, 0.0, 0.2, 1.0] {
                        assert_eq!(
                            outcome_bits(fis.evaluate(&[x]).map(|o| o[0])),
                            outcome_bits(plan.evaluate_one(&[x], &mut scratch)),
                            "{and:?}/{implication:?}/{aggregation:?} with {input_mf:?} -> \
                             {output_mf:?} drifted at {x}"
                        );
                    }
                }
            }
        }
    }
}

/// Rows for the lane sweeps: interior points spread over the three
/// universes, the exact universe edges, and values 7.5 outside them (which
/// are clamped), interleaved so that every window of the list mixes them.
fn mixed_rows(count: usize) -> Vec<[f64; 3]> {
    let ranges = [CSSP_RANGE, SSN_RANGE, DMB_RANGE];
    (0..count)
        .map(|k| {
            let mut row = [0.0; 3];
            for (v, (slot, &(min, max))) in row.iter_mut().zip(&ranges).enumerate() {
                let t = ((k * (2 * v + 3) + v) % 17) as f64 / 16.0;
                *slot = match (k + v) % 5 {
                    0 => min - 7.5,
                    1 => max,
                    2 if k % 3 == 0 => min,
                    _ => min + t * (max - min),
                };
            }
            row
        })
        .collect()
}

/// Every batch length from empty to two full lane groups plus a ragged
/// tail, at several offsets into the row list, for every variant: the
/// fallback paths (every defuzzifier but the centroid) as well as the row
/// lanes. Each row must get its scalar bits, and keep them when the batch
/// is reversed or rotated.
#[test]
fn lane_sweep_covers_every_batch_length_and_variant() {
    let pool = mixed_rows(4 * LANES + 5);
    let mut scratch = EvalScratch::new();
    for (label, _, plan) in variants() {
        let scalar: Vec<u64> = pool
            .iter()
            .map(|row| plan.evaluate_one(row, &mut scratch).unwrap().to_bits())
            .collect();
        for len in 0..=2 * LANES + 3 {
            for start in [0, 1, LANES - 1, pool.len() - len] {
                let mut order: Vec<usize> = (start..start + len).collect();
                for shape in ["forward", "reversed", "rotated"] {
                    match shape {
                        "reversed" => order.reverse(),
                        "rotated" => order.rotate_left(len / 3),
                        _ => {}
                    }
                    let flat: Vec<f64> = order.iter().flat_map(|&k| pool[k]).collect();
                    let mut hds = vec![0.0; len];
                    plan.evaluate_batch(&flat, &mut hds, &mut scratch).unwrap();
                    for (&k, hd) in order.iter().zip(&hds) {
                        assert_eq!(
                            scalar[k],
                            hd.to_bits(),
                            "{label}: row {k} ({:?}) in a {shape} batch of {len} from {start}",
                            pool[k]
                        );
                    }
                }
            }
        }
    }
}

/// A batch stops at its first failing row and returns that row's error,
/// after writing every earlier row with its scalar bits: a non-finite
/// input on the paper FLC, and a row that fires nothing under
/// `NoFirePolicy::Error`, each placed in the middle of a lane group, at
/// the end of one, and behind a second failing row.
#[test]
fn failing_rows_mid_group_return_the_scalar_error() {
    let paper = paper_flc_plan();
    let mut scratch = EvalScratch::new();
    let pool = mixed_rows(2 * LANES + 3);
    let bad_rows =
        [[f64::INFINITY, -95.0, 0.5], [-3.0, f64::NEG_INFINITY, 0.5], [-3.0, -95.0, f64::NAN]];
    for bad in bad_rows {
        for at in [LANES / 2 + 1, LANES - 1, LANES + 2] {
            let mut rows = pool.clone();
            rows[at] = bad;
            rows[at + 3] = [f64::NEG_INFINITY; 3];
            let expected: Vec<Result<u64, FuzzyError>> = rows
                .iter()
                .map(|row| outcome_bits(paper.evaluate_one(row, &mut scratch)))
                .collect();
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let mut hds = vec![0.0; rows.len()];
            let err = paper.evaluate_batch(&flat, &mut hds, &mut scratch).unwrap_err();
            // NaN inputs make the error unequal to itself: compare its text.
            let first = expected[at].as_ref().unwrap_err();
            assert_eq!(format!("{err:?}"), format!("{first:?}"), "bad row {bad:?} at {at}");
            for (k, hd) in hds.iter().enumerate().take(at) {
                assert_eq!(Ok(hd.to_bits()), expected[k], "row {k} before the bad row at {at}");
            }
        }
    }

    // One input whose single term covers [0, 1): at 5 nothing fires.
    let x =
        LinguisticVariable::new("x", 0.0, 10.0).with_term("edge", Mf::triangular(0.0, 0.0, 1.0));
    let y =
        LinguisticVariable::new("y", 0.0, 10.0).with_term("t", Mf::triangular(0.0, 5.0, 10.0));
    let strict = FisBuilder::new("gap")
        .input(x)
        .output(y)
        .rule_str("IF x IS edge THEN y IS t")
        .unwrap()
        .no_fire(NoFirePolicy::Error)
        .build()
        .unwrap();
    let plan = strict.compile();
    let len = 2 * LANES + 3;
    for at in [LANES / 2 + 1, LANES - 1, LANES + 2] {
        let mut inputs: Vec<f64> = (0..len).map(|k| k as f64 / len as f64).collect();
        inputs[at] = 5.0;
        inputs[at + 3] = 7.0;
        let expected: Vec<Result<u64, FuzzyError>> = inputs
            .iter()
            .map(|&x| outcome_bits(strict.evaluate(&[x]).map(|o| o[0])))
            .collect();
        assert_eq!(expected[at], Err(FuzzyError::NoRuleFired));
        for chunk in [len, LANES, LANES - 1] {
            assert_batches_match(&plan, &inputs, &expected, chunk, &format!("no fire at {at}"));
        }
    }
}

/// Rows whose lane area underflows to `+0.0` take the scalar fallback
/// (the centroid's mean-of-max) from inside a lane group, among rows the
/// lanes take and rows that fire nothing under `NoFirePolicy::Error`.
/// At `x = k · 2^-1074` only `on` fires, at strength `w = x`; `spike` is
/// non-zero on 19 samples 0.01 apart, so the lane's area `0.01 · 19 · w`
/// rounds to `+0.0` for `k <= 2`. At `x = 0` nothing fires.
#[test]
fn lanes_whose_area_underflows_take_the_scalar_path() {
    let x = LinguisticVariable::new("x", -1.0, 1.0)
        .with_term("on", Mf::right_shoulder(0.0, 1.0))
        .with_term("off", Mf::left_shoulder(-1.0, 0.0));
    let y = LinguisticVariable::new("y", 0.0, 1.0)
        .with_term("spike", Mf::triangular(0.4, 0.5, 0.6))
        .with_term("low", Mf::triangular(0.0, 0.2, 0.4));
    let strict = FisBuilder::new("underflow")
        .input(x)
        .output(y)
        .rule_str("IF x IS on THEN y IS spike")
        .unwrap()
        .rule_str("IF x IS off THEN y IS low")
        .unwrap()
        .resolution(101)
        .no_fire(NoFirePolicy::Error)
        .build()
        .unwrap();
    let plan = strict.compile();
    let unit = f64::from_bits(1);
    let pattern = [0.5, unit, -0.5, 0.3, 2.0 * unit, -0.2, 0.7, unit, 3.0 * unit];
    let len = 2 * LANES + 3;
    for zero_at in [LANES / 2 + 1, LANES - 1, LANES + 2] {
        let mut inputs: Vec<f64> = pattern.iter().cycle().take(len).copied().collect();
        inputs[zero_at] = 0.0;
        let expected: Vec<Result<u64, FuzzyError>> = inputs
            .iter()
            .map(|&x| outcome_bits(strict.evaluate(&[x]).map(|o| o[0])))
            .collect();
        assert_eq!(expected[zero_at], Err(FuzzyError::NoRuleFired));
        for chunk in [len, LANES, LANES - 1, 3] {
            let label = format!("no fire at {zero_at}, chunks of {chunk}");
            assert_batches_match(&plan, &inputs, &expected, chunk, &label);
        }
    }
}
