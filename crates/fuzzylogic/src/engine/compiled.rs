//! A compiled, allocation-free Mamdani evaluation plan.
//!
//! [`CompiledFis`] is built once from a [`Fis`] and flattens everything the
//! hot path touches into dense, index-based arrays:
//!
//! * input variables become `(min, max)` bounds plus a flat array of term
//!   membership functions delimited by offsets — no nested `Vec<Vec<_>>`
//!   during fuzzification;
//! * rules become flat antecedent/consequent tables with pre-resolved
//!   membership indices — no bounds-checked nested lookups per clause;
//! * every output term's membership function is **pre-sampled** over the
//!   fixed-resolution output universe, so the imply/aggregate loop reads a
//!   contiguous `f64` row instead of re-evaluating the MF at every grid
//!   point of every call.
//!
//! Evaluation writes into a caller-owned [`EvalScratch`], so after the
//! scratch has grown to the plan's dimensions (its first use) a call to
//! [`CompiledFis::evaluate`] performs **zero heap allocations** — verified
//! by a counting-allocator test in the workspace test suite.
//!
//! # Sparse evaluation, bit-identical to the interpreted engine
//!
//! [`Fis::evaluate`] imply/aggregates every fired consequent over all
//! `resolution` samples and then scans the whole curve for its height, area
//! and first moment. With the paper's Ruspini partitions at most 8 of the 64
//! rules fire and each output term is non-zero on a fraction of the
//! universe, so most of that work adds zeros. The compiled plan skips it,
//! and every skip is exact — `CompiledFis::evaluate` returns the same `f64`
//! bits as [`Fis::evaluate`] for every input, as property tests pin:
//!
//! 1. **Precomputed supports and grid.** At compile time each pre-sampled
//!    row records its support `[s, e)`: the samples outside it are exactly
//!    `+0.0`. Each output also gets a table of grid coordinates built with
//!    the same [`grid_x`] expression the interpreted engine evaluates per
//!    sample, so the table holds the same bits without a division per
//!    sample at run time.
//! 2. **Imply/aggregate over the support only.** Outside a row's support the
//!    sample is `+0.0`, so the update is `agg(acc, clamp(imp(w, +0.0)))` with
//!    `0 < w`: `imp` gives `+0.0` (`min(w, 0)`, `w · 0`), and `agg(acc, +0.0)`
//!    is `acc` for every [`Aggregation`] (`max(acc, 0)`, `min(acc + 0, 1)`,
//!    `acc + 0 - acc · 0`) because `acc` is built from clamped values and is
//!    never negative, `-0.0` or above 1. The operator pair is matched once
//!    per row, outside the sample loop.
//! 3. **Merged consequents under `Max` aggregation.** Consequents that share
//!    a row fold into one strength `W = max w` before any sample is read:
//!    both implications are non-decreasing in `w`, so
//!    `max_k clamp(imp(w_k, s)) = clamp(imp(max_k w_k, s))` exactly — `max`
//!    selects one of its operands and no rounding is involved. At most 4
//!    row passes replace the paper FLC's 8 rule passes.
//! 4. **One fused centroid pass over the union support.** The area and the
//!    first moment are summed together, left to right, over the union of
//!    the fired supports only (`slice_area_moment` in `fuzzyset.rs`, the
//!    same code the interpreted engine sums the whole grid with). The
//!    skipped terms are signed zeros, whose only possible effect is the sign
//!    of a zero partial sum; each skipped run is replaced by its last term,
//!    which has exactly that effect, and the kept terms are never
//!    reassociated. No height scan is needed: every sample is finite and
//!    `>= +0.0`, so a positive area implies a positive height, and a
//!    non-positive area (zero height, or one lone sample) falls back to the
//!    full defuzzifier, which checks the height itself. Other defuzzifiers
//!    zero the rest of the curve and read all of it.
//! 5. **Zero gate on AND rules.** When every hedge of an `And` rule maps `0`
//!    to `0`, one raw membership `<= 0` makes the rule's t-norm fold a zero —
//!    `T(a, 0) = T(0, a) = 0` holds exactly for every [`TNorm`](crate::TNorm)
//!    — and a strength `<= 0` is skipped by steps 3–5 whatever its sign, so
//!    the rule can get firing `0` without the fold. Each input term carries
//!    the bitset of gated rules that read it; evaluation clears the sets of
//!    the terms at `<= 0` from the live-rule bitset and folds only the rules
//!    left (about 8 of the paper's 64).
//! 6. **Row lanes in a batch.** [`CompiledFis::evaluate_batch`] fires each
//!    row as above (steps 1–2 are one helper, shared with
//!    [`CompiledFis::evaluate`]) and then evaluates the rows 4 at a time, 8
//!    with AVX2, one row per SIMD lane. Implication, aggregation and the
//!    centroid sums are fused into one pass over the group's union range,
//!    `m = max_k min(W_k, S_k[i])`, `area += m`, `moment += m · x[i]`, with
//!    no curve in memory. Each lane keeps its own row's left-to-right order,
//!    so the sums have the bits of lever 4. The proof is in the `lanes`
//!    module: (a) a lane's zero padding across the group has the effect of
//!    its row's skipped-run stand-ins, (b) a term that did not fire is the
//!    identity, (c) compare-select `min`/`max` equal `f64::min`/`max` on
//!    samples and strengths that are never NaN or `-0.0`, (d) under `Min`
//!    implication, the only one the lanes take, the clamp is the identity
//!    and is skipped, and (e) Rust never fuses a multiply-add, so the AVX2
//!    and portable builds of the one kernel agree. Rows the lanes cannot
//!    take run [`CompiledFis::evaluate`] in place: a non-finite input, a
//!    NaN firing strength, a merged strength that is not finite, a row
//!    where nothing fired, and a lane whose area is `<= 0`. Plans with
//!    several outputs, an implication other than `Min`, an aggregation
//!    other than `Max`, a defuzzifier other than the centroid, or an output
//!    with a sample outside `[+0, 1]` (or a `-0.0` or NaN one) evaluate
//!    every row that way.
//!
//! Levers 2–4 need every sample of an output to be `+0.0` or positive and
//! every firing strength to be a number. An output with a negative, `-0.0`
//! or NaN sample, or an evaluation with a NaN strength — only a malformed
//! membership function, such as a zero-width Gaussian, yields one — runs
//! densely instead: every consequent the interpreted engine applies
//! (`!(w <= 0)`), over the whole grid, in table order, then the shared
//! defuzzifier.
//!
//! Because the plan is immutable and `Send + Sync`, many consumers (e.g.
//! thousands of per-UE handover controllers) can share one plan behind an
//! `Arc` while each owns only a small scratch.

use super::lanes::{self, Segments, MAX_LANES};
use crate::defuzz::{centroid_over, Defuzzifier};
use crate::engine::mamdani::{EngineConfig, Fis, NoFirePolicy};
use crate::error::{FuzzyError, Result};
use crate::fuzzyset::grid_x;
use crate::hedge::Hedge;
use crate::membership::Mf;
use crate::norms::{Aggregation, Implication};
use crate::rule::Connective;

/// Sentinel membership index for antecedents whose variable/term index does
/// not resolve (the interpreted engine reads those as degree 0).
const NO_MEMBERSHIP: u32 = u32::MAX;

/// One flattened antecedent clause: a pre-resolved index into the scratch
/// membership buffer plus the hedge to apply.
#[derive(Debug, Clone, Copy)]
struct FlatAntecedent {
    /// Index into [`EvalScratch::memberships`], or [`NO_MEMBERSHIP`].
    mu_index: u32,
    hedge: Hedge,
}

/// One flattened consequent clause of a specific output variable: which
/// rule gates it and which pre-sampled row shapes it.
#[derive(Debug, Clone, Copy)]
struct FlatConsequent {
    /// Index of the gating rule (into the firing-strength buffer).
    rule: u32,
    /// Row index into [`CompiledFis::samples`].
    row: u32,
}

/// A [`Fis`] compiled into dense arrays with pre-sampled consequent shapes.
///
/// Build with [`CompiledFis::compile`] (or [`Fis::compile`]), evaluate with
/// [`CompiledFis::evaluate`] / [`CompiledFis::evaluate_batch`] against a
/// reusable [`EvalScratch`]. See the [module docs](self) for the layout and
/// the bit-identity guarantee.
#[derive(Debug, Clone)]
pub struct CompiledFis {
    name: String,
    /// Universe bounds per input (for clamping before fuzzification).
    input_bounds: Vec<(f64, f64)>,
    /// `input_offsets[v]..input_offsets[v + 1]` delimits input `v`'s terms
    /// in both `input_mfs` and the scratch membership buffer.
    input_offsets: Vec<u32>,
    /// Flat input-term membership functions, in declaration order.
    input_mfs: Vec<Mf>,
    /// `ant_offsets[r]..ant_offsets[r + 1]` delimits rule `r`'s antecedents.
    ant_offsets: Vec<u32>,
    antecedents: Vec<FlatAntecedent>,
    connectives: Vec<Connective>,
    weights: Vec<f64>,
    /// Rule bitsets of `rule_words` words each (bit `r` is rule `r`).
    /// `gates[t]` holds the zero-gated rules — `And` rules whose hedges all
    /// map 0 to 0 — with an antecedent on input term `t`: a membership
    /// `<= 0` on `t` zeroes their firing strength (module docs, lever 5).
    gates: Vec<u64>,
    /// Every rule, as the bitset evaluation starts from.
    all_rules: Vec<u64>,
    /// Universe bounds per output.
    pub(super) output_bounds: Vec<(f64, f64)>,
    /// `cons_offsets[o]..cons_offsets[o + 1]` delimits output `o`'s
    /// consequent table, in (rule, consequent) declaration order — the
    /// exact aggregation order of the interpreted engine.
    cons_offsets: Vec<u32>,
    consequents: Vec<FlatConsequent>,
    /// `row_offsets[o]..row_offsets[o + 1]` delimits output `o`'s rows.
    pub(super) row_offsets: Vec<u32>,
    /// Pre-sampled output-term shapes: row `k` holds `resolution` samples
    /// of one output term's MF over its variable's universe.
    pub(super) samples: Vec<f64>,
    /// Per row: the range `[s, e)` outside which its samples are exactly
    /// `+0.0` (`(0, 0)` for an all-zero row).
    supports: Vec<(usize, usize)>,
    /// Per output: every sample is `+0.0` or positive, so the sparse levers
    /// apply; otherwise the output is evaluated densely (module docs).
    sparse: Vec<bool>,
    /// Per output: every sample is at most 1, so, on a sparse output, the
    /// row lanes apply (lever 6).
    pub(super) unit: Vec<bool>,
    /// The first output's grid in runs of constant non-zero rows, for the
    /// row lanes (`lanes.rs`).
    pub(super) segments: Segments,
    /// Per output, `resolution` grid coordinates from [`grid_x`].
    pub(super) grid: Vec<f64>,
    config: EngineConfig,
}

impl CompiledFis {
    /// Compile a [`Fis`] into a dense evaluation plan.
    pub fn compile(fis: &Fis) -> Self {
        let config = *fis.config();
        let res = config.resolution;

        let mut input_bounds = Vec::with_capacity(fis.inputs().len());
        let mut input_offsets = Vec::with_capacity(fis.inputs().len() + 1);
        let mut input_mfs = Vec::new();
        input_offsets.push(0);
        for var in fis.inputs() {
            input_bounds.push((var.min, var.max));
            input_mfs.extend(var.terms().iter().map(|t| t.mf));
            input_offsets.push(input_mfs.len() as u32);
        }

        let rules = fis.rules().rules();
        let mut ant_offsets = Vec::with_capacity(rules.len() + 1);
        let mut antecedents = Vec::new();
        let mut connectives = Vec::with_capacity(rules.len());
        let mut weights = Vec::with_capacity(rules.len());
        let rule_words = rules.len().div_ceil(64);
        let mut all_rules = vec![0u64; rule_words];
        let mut gates = vec![0u64; input_mfs.len() * rule_words];
        ant_offsets.push(0);
        for (r, rule) in rules.iter().enumerate() {
            let (word, bit) = (r / 64, 1u64 << (r % 64));
            all_rules[word] |= bit;
            // A membership `<= 0` reaches the hedge as +0.0 or -0.0.
            let gated = rule.connective == Connective::And
                && rule
                    .antecedents
                    .iter()
                    .all(|a| a.hedge.apply(0.0) == 0.0 && a.hedge.apply(-0.0) == 0.0);
            for a in &rule.antecedents {
                let in_range =
                    a.var < fis.inputs().len() && a.term < fis.inputs()[a.var].term_count();
                let mu_index =
                    if in_range { input_offsets[a.var] + a.term as u32 } else { NO_MEMBERSHIP };
                if gated && in_range {
                    gates[mu_index as usize * rule_words + word] |= bit;
                }
                antecedents.push(FlatAntecedent { mu_index, hedge: a.hedge });
            }
            ant_offsets.push(antecedents.len() as u32);
            connectives.push(rule.connective);
            weights.push(rule.weight);
        }

        // Pre-sample every output term once; consequent tables reference
        // the rows. `grid_x` makes the sample coordinates bit-identical to
        // the interpreted engine's `SampledSet` grid.
        let mut output_bounds = Vec::with_capacity(fis.outputs().len());
        let mut cons_offsets = Vec::with_capacity(fis.outputs().len() + 1);
        let mut row_offsets = Vec::with_capacity(fis.outputs().len() + 1);
        let mut consequents = Vec::new();
        let mut samples = Vec::new();
        let mut supports = Vec::new();
        let mut sparse = Vec::with_capacity(fis.outputs().len());
        let mut unit = Vec::with_capacity(fis.outputs().len());
        let mut grid = Vec::with_capacity(fis.outputs().len() * res);
        cons_offsets.push(0);
        row_offsets.push(0);
        let mut row_of = Vec::new(); // (output, term) -> row, built lazily
        for (oi, var) in fis.outputs().iter().enumerate() {
            output_bounds.push((var.min, var.max));
            grid.extend((0..res).map(|i| grid_x(var.min, var.max, res, i)));
            let xs = &grid[oi * res..];
            let (mut clean, mut at_most_one) = (true, true);
            for (ri, rule) in rules.iter().enumerate() {
                for cons in rule.consequents.iter().filter(|c| c.var == oi) {
                    let key = (oi, cons.term);
                    let row = match row_of.iter().find(|(k, _)| *k == key) {
                        Some(&(_, row)) => row,
                        None => {
                            let row = (samples.len() / res) as u32;
                            let mf = var.terms()[cons.term].mf;
                            samples.extend(xs.iter().map(|&x| mf.eval(x)));
                            // The support spans the samples that are not
                            // +0.0; the output stays sparse while every
                            // sample is +0.0 or positive, and unit while
                            // none is above 1.
                            let sampled = &samples[row as usize * res..];
                            let nonzero = |v: &f64| v.to_bits() != 0;
                            let first = sampled.iter().position(nonzero);
                            let last = sampled.iter().rposition(nonzero);
                            supports.push(match (first, last) {
                                (Some(s), Some(e)) => (s, e + 1),
                                _ => (0, 0),
                            });
                            clean &= sampled
                                .iter()
                                .fold(true, |c, &v| c & (v >= 0.0) & v.is_sign_positive());
                            at_most_one &= sampled.iter().fold(true, |u, &v| u & (v <= 1.0));
                            row_of.push((key, row));
                            row
                        }
                    };
                    consequents.push(FlatConsequent { rule: ri as u32, row });
                }
            }
            cons_offsets.push(consequents.len() as u32);
            row_offsets.push((samples.len() / res) as u32);
            sparse.push(clean);
            unit.push(at_most_one);
        }

        let first_rows = row_offsets.get(1).map_or(0, |&end| end as usize);
        let segments = Segments::new(&supports[..first_rows], res);
        CompiledFis {
            name: fis.name().to_string(),
            input_bounds,
            input_offsets,
            input_mfs,
            ant_offsets,
            antecedents,
            connectives,
            weights,
            gates,
            all_rules,
            output_bounds,
            cons_offsets,
            consequents,
            row_offsets,
            samples,
            supports,
            sparse,
            unit,
            segments,
            grid,
            config,
        }
    }

    /// System name (inherited from the source [`Fis`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of crisp inputs.
    pub fn n_inputs(&self) -> usize {
        self.input_bounds.len()
    }

    /// Number of crisp outputs.
    pub fn n_outputs(&self) -> usize {
        self.output_bounds.len()
    }

    /// Number of rules.
    pub fn n_rules(&self) -> usize {
        self.weights.len()
    }

    /// Engine configuration (operators, resolution, defuzzifier).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Universe bounds `(min, max)` of input `v`.
    pub fn input_bounds(&self, v: usize) -> (f64, f64) {
        self.input_bounds[v]
    }

    /// Universe bounds `(min, max)` of output `o`.
    pub fn output_bounds(&self, o: usize) -> (f64, f64) {
        self.output_bounds[o]
    }

    /// A scratch pre-sized for this plan (a fresh [`EvalScratch::new`]
    /// works too; it grows to the right size on first use).
    pub fn scratch(&self) -> EvalScratch {
        let mut s = EvalScratch::new();
        s.prepare(self);
        s
    }

    /// Evaluate crisp inputs into `outputs` (one slot per declared output)
    /// using the caller's scratch. Zero heap allocations once `scratch` has
    /// been used with this plan (or was created by [`CompiledFis::scratch`]).
    ///
    /// Bit-identical to [`Fis::evaluate`] on the source system.
    ///
    /// # Errors
    ///
    /// [`FuzzyError::InputArity`] / [`FuzzyError::NonFiniteInput`] on bad
    /// inputs, [`FuzzyError::OutputArity`] when `outputs.len()` differs from
    /// [`CompiledFis::n_outputs`], and [`FuzzyError::NoRuleFired`] under
    /// [`NoFirePolicy::Error`].
    pub fn evaluate(
        &self,
        crisp: &[f64],
        scratch: &mut EvalScratch,
        outputs: &mut [f64],
    ) -> Result<()> {
        if crisp.len() != self.n_inputs() {
            return Err(FuzzyError::InputArity { expected: self.n_inputs(), got: crisp.len() });
        }
        for (i, &x) in crisp.iter().enumerate() {
            if !x.is_finite() {
                return Err(FuzzyError::NonFiniteInput { index: i, value: x });
            }
        }
        if outputs.len() != self.n_outputs() {
            return Err(FuzzyError::OutputArity { expected: self.n_outputs(), got: outputs.len() });
        }
        scratch.prepare(self);
        let nan_firing = self.fire(crisp, scratch);

        // Steps 3–5 — imply/aggregate the fired rows over their supports,
        // then defuzzify the scratch curve in place. A NaN strength, or an
        // output with a sample that is not `+0.0` or positive, takes the
        // dense path (module docs).
        let res = self.config.resolution;
        let (imp, agg) = (self.config.implication, self.config.aggregation);
        for (oi, out) in outputs.iter_mut().enumerate() {
            let (lo, hi) = self.output_bounds[oi];
            let table = &self.consequents
                [self.cons_offsets[oi] as usize..self.cons_offsets[oi + 1] as usize];
            let rows = self.row_offsets[oi] as usize..self.row_offsets[oi + 1] as usize;
            let dense = nan_firing || !self.sparse[oi];
            let merge = !dense && agg == Aggregation::Max;
            let support = |k: usize| if dense { (0, res) } else { self.supports[k] };
            let fires = |w: f64| w > 0.0 || w.is_nan();

            // The union of the fired supports, after merging the strengths
            // per row (lever 3).
            let (s, e) = if merge {
                self.merge_rows(oi, scratch)
            } else {
                let fired = table.iter().filter(|c| fires(scratch.firing[c.rule as usize]));
                union_support(res, fired.map(|c| support(c.row as usize)))
            };

            let EvalScratch { firing, row_strength, mu, .. } = &mut *scratch;
            let mu = &mut mu[..res];
            if s < e {
                mu[s..e].fill(0.0);
                let mut pass = |k: usize, w: f64| {
                    let (a, b) = support(k);
                    let row = &self.samples[k * res..][a..b];
                    imply_aggregate(&mut mu[a..b], row, w, imp, agg);
                };
                if merge {
                    for k in rows.clone().filter(|&k| row_strength[k] > 0.0) {
                        pass(k, row_strength[k]);
                    }
                } else {
                    for c in table.iter().filter(|c| fires(firing[c.rule as usize])) {
                        pass(c.row as usize, firing[c.rule as usize]);
                    }
                }
            }

            // Nothing fired: the curve is all +0.0. The sparse centroid
            // needs no height scan (lever 4).
            let value = if s >= e {
                None
            } else {
                let xs = &self.grid[oi * res..][..res];
                let sparse_centroid = match self.config.defuzzifier {
                    Defuzzifier::Centroid if !dense => {
                        centroid_over(lo, hi, mu, s..e, |i| xs[i])
                    }
                    _ => None,
                };
                sparse_centroid.or_else(|| {
                    // Every other defuzzifier, the dense path and the
                    // centroid's fallback read the whole curve.
                    mu[..s].fill(0.0);
                    mu[e..].fill(0.0);
                    self.config.defuzzifier.defuzzify_slice(lo, hi, mu)
                })
            };
            *out = match value {
                Some(v) => v,
                None => match self.config.no_fire {
                    NoFirePolicy::Error => return Err(FuzzyError::NoRuleFired),
                    NoFirePolicy::UniverseMidpoint => 0.5 * (lo + hi),
                },
            };
        }
        Ok(())
    }

    /// Steps 1–2 of an evaluation, shared by [`CompiledFis::evaluate`] and
    /// the row lanes: fuzzify `crisp` (finite, one value per input) into the
    /// prepared scratch and fold the live rules' firing strengths. Returns
    /// whether any strength is NaN.
    pub(super) fn fire(&self, crisp: &[f64], scratch: &mut EvalScratch) -> bool {
        let EvalScratch { memberships, live, firing, .. } = scratch;

        // Step 1 — fuzzify (clamp to the universe, then every term MF).
        for (v, &(lo, hi)) in self.input_bounds.iter().enumerate() {
            let x = crisp[v].clamp(lo, hi);
            let terms = self.input_offsets[v] as usize..self.input_offsets[v + 1] as usize;
            for (m, mf) in memberships[terms.clone()].iter_mut().zip(&self.input_mfs[terms]) {
                *m = mf.eval(x);
            }
        }

        // Step 2 — firing strengths. A membership `<= 0` clears every
        // zero-gated rule on its term from the live set (lever 5); only the
        // live rules are folded, the rest keep firing 0.
        let words = self.all_rules.len();
        let live = &mut live[..words];
        live.copy_from_slice(&self.all_rules);
        for (t, &m) in memberships[..self.input_mfs.len()].iter().enumerate() {
            let zero = if m <= 0.0 { u64::MAX } else { 0 };
            for (l, &g) in live.iter_mut().zip(&self.gates[t * words..][..words]) {
                *l &= !(g & zero);
            }
        }
        let degree = |a: &FlatAntecedent| {
            if a.mu_index == NO_MEMBERSHIP {
                0.0
            } else {
                memberships[a.mu_index as usize]
            }
        };
        firing[..self.n_rules()].fill(0.0);
        let mut nan_firing = false;
        for (word, &bits) in live.iter().enumerate() {
            let mut rest = bits;
            while rest != 0 {
                let r = word * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let clauses = &self.antecedents
                    [self.ant_offsets[r] as usize..self.ant_offsets[r + 1] as usize];
                let degrees = clauses.iter().map(|a| a.hedge.apply(degree(a)));
                let strength = match self.connectives[r] {
                    Connective::And => self.config.and.fold(degrees),
                    Connective::Or => self.config.or.fold(degrees),
                };
                firing[r] = strength * self.weights[r];
                nan_firing |= firing[r].is_nan();
            }
        }
        nan_firing
    }

    /// Lever 3 for output `oi`, after [`CompiledFis::fire`] found no NaN
    /// strength: fold the strengths of the consequents that share a row into
    /// `W = max w` (`+0.0` for a row nothing fired) in the scratch's
    /// per-row strengths, and return the union `[s, e)` of the fired rows'
    /// supports (`s >= e` when nothing fired).
    pub(super) fn merge_rows(&self, oi: usize, scratch: &mut EvalScratch) -> (usize, usize) {
        let EvalScratch { firing, row_strength, .. } = scratch;
        let table =
            &self.consequents[self.cons_offsets[oi] as usize..self.cons_offsets[oi + 1] as usize];
        let rows = self.row_offsets[oi] as usize..self.row_offsets[oi + 1] as usize;
        row_strength[rows.clone()].fill(0.0);
        for c in table.iter().filter(|c| firing[c.rule as usize] > 0.0) {
            let k = c.row as usize;
            row_strength[k] = row_strength[k].max(firing[c.rule as usize]);
        }
        let fired = rows.filter(|&k| row_strength[k] > 0.0);
        union_support(self.config.resolution, fired.map(|k| self.supports[k]))
    }

    /// Single-output convenience: evaluate and return the one crisp output.
    ///
    /// # Errors
    ///
    /// [`FuzzyError::NotSingleOutput`] when the system declares more than
    /// one output, otherwise as [`CompiledFis::evaluate`].
    pub fn evaluate_one(&self, crisp: &[f64], scratch: &mut EvalScratch) -> Result<f64> {
        if self.n_outputs() != 1 {
            return Err(FuzzyError::NotSingleOutput { outputs: self.n_outputs() });
        }
        let mut out = [0.0f64];
        self.evaluate(crisp, scratch, &mut out)?;
        Ok(out[0])
    }

    /// Evaluate a batch of input rows.
    ///
    /// `inputs` is row-major with [`CompiledFis::n_inputs`] values per row;
    /// `outputs` receives [`CompiledFis::n_outputs`] values per row. Every
    /// output is bit-identical to [`CompiledFis::evaluate`] on its row, and
    /// does not depend on the other rows of the batch. The rows are
    /// evaluated several at a time, one per SIMD lane (lever 6 in the
    /// [module docs](self)); rows and plans the lanes cannot take fall back
    /// to [`CompiledFis::evaluate`]. Stops at the first row that fails,
    /// after writing every earlier row and no later one.
    ///
    /// # Errors
    ///
    /// [`FuzzyError::RaggedBatch`] when `inputs.len()` is not a multiple of
    /// the input arity, [`FuzzyError::OutputArity`] when `outputs` does not
    /// hold exactly one output row per input row, and otherwise the first
    /// failing row's error from [`CompiledFis::evaluate`].
    pub fn evaluate_batch(
        &self,
        inputs: &[f64],
        outputs: &mut [f64],
        scratch: &mut EvalScratch,
    ) -> Result<()> {
        let ni = self.n_inputs();
        let no = self.n_outputs();
        if inputs.len() % ni != 0 {
            return Err(FuzzyError::RaggedBatch { len: inputs.len(), arity: ni });
        }
        let rows = inputs.len() / ni;
        if outputs.len() != rows * no {
            return Err(FuzzyError::OutputArity { expected: rows * no, got: outputs.len() });
        }
        if self.lanes_apply() {
            return lanes::evaluate_rows(self, inputs, outputs, scratch);
        }
        for r in 0..rows {
            self.evaluate(
                &inputs[r * ni..(r + 1) * ni],
                scratch,
                &mut outputs[r * no..(r + 1) * no],
            )?;
        }
        Ok(())
    }

    /// Whether [`CompiledFis::evaluate_batch`] runs the row lanes (lever 6):
    /// one output, `Min` implication, `Max` aggregation, the centroid, and
    /// every sample of the output in `[+0, 1]`.
    pub(super) fn lanes_apply(&self) -> bool {
        self.n_outputs() == 1
            && self.config.implication == Implication::Min
            && self.config.aggregation == Aggregation::Max
            && self.config.defuzzifier == Defuzzifier::Centroid
            && self.sparse[0]
            && self.unit[0]
    }
}

/// The union `[s, e)` of the non-empty `supports` on a `res`-sample grid;
/// `(res, 0)` when there is none.
fn union_support(res: usize, supports: impl Iterator<Item = (usize, usize)>) -> (usize, usize) {
    supports.filter(|(a, b)| a < b).fold((res, 0), |(s, e), (a, b)| (s.min(a), e.max(b)))
}

/// `mu[i] = agg(mu[i], clamp(imp(w, row[i])))` over one row's support — the
/// interpreted engine's per-sample update, with the operator pair matched
/// once so each arm compiles to its own loop.
fn imply_aggregate(mu: &mut [f64], row: &[f64], w: f64, imp: Implication, agg: Aggregation) {
    #[inline(always)]
    fn pass(mu: &mut [f64], row: &[f64], w: f64, imp: Implication, agg: Aggregation) {
        for (slot, &sample) in mu.iter_mut().zip(row) {
            *slot = agg.apply(*slot, imp.apply(w, sample).clamp(0.0, 1.0));
        }
    }
    use Aggregation as A;
    use Implication as I;
    match (imp, agg) {
        (I::Min, A::Max) => pass(mu, row, w, I::Min, A::Max),
        (I::Min, A::BoundedSum) => pass(mu, row, w, I::Min, A::BoundedSum),
        (I::Min, A::ProbabilisticSum) => pass(mu, row, w, I::Min, A::ProbabilisticSum),
        (I::Product, A::Max) => pass(mu, row, w, I::Product, A::Max),
        (I::Product, A::BoundedSum) => pass(mu, row, w, I::Product, A::BoundedSum),
        (I::Product, A::ProbabilisticSum) => pass(mu, row, w, I::Product, A::ProbabilisticSum),
    }
}

/// Reusable working memory for [`CompiledFis`] evaluation.
///
/// Holds the fuzzified membership degrees, the live-rule bitset, the
/// per-rule firing strengths, the per-row merged strengths, the
/// aggregated output curve and the row lanes' strengths. Buffers grow to
/// the plan's dimensions on first use and are reused (never freed, never
/// reallocated) afterwards, which is what makes the evaluation loop
/// allocation-free. A scratch may be reused across different plans; it
/// simply grows to the largest.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    memberships: Vec<f64>,
    live: Vec<u64>,
    firing: Vec<f64>,
    pub(super) row_strength: Vec<f64>,
    mu: Vec<f64>,
    /// Per output row, each lane's merged strength in the pending row-lane
    /// group (`lanes.rs`).
    pub(super) lane_w: Vec<[f64; MAX_LANES]>,
}

impl EvalScratch {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the buffers to `fis`'s dimensions (no-op once large enough).
    pub(super) fn prepare(&mut self, fis: &CompiledFis) {
        if self.memberships.len() < fis.input_mfs.len() {
            self.memberships.resize(fis.input_mfs.len(), 0.0);
        }
        if self.firing.len() < fis.n_rules() {
            self.firing.resize(fis.n_rules(), 0.0);
        }
        if self.live.len() < fis.all_rules.len() {
            self.live.resize(fis.all_rules.len(), 0);
        }
        if self.row_strength.len() < fis.supports.len() {
            self.row_strength.resize(fis.supports.len(), 0.0);
        }
        if self.lane_w.len() < fis.supports.len() {
            self.lane_w.resize(fis.supports.len(), [0.0; MAX_LANES]);
        }
        if self.mu.len() < fis.config.resolution {
            self.mu.resize(fis.config.resolution, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defuzz::Defuzzifier;
    use crate::engine::mamdani::FisBuilder;
    use crate::membership::Mf;
    use crate::norms::{Aggregation, Implication, SNorm, TNorm};
    use crate::variable::LinguisticVariable;

    fn tipper() -> Fis {
        let service = LinguisticVariable::new("service", 0.0, 10.0)
            .with_term("poor", Mf::gaussian(0.0, 1.5))
            .with_term("good", Mf::gaussian(5.0, 1.5))
            .with_term("excellent", Mf::gaussian(10.0, 1.5));
        let food = LinguisticVariable::new("food", 0.0, 10.0)
            .with_term("rancid", Mf::trapezoidal(0.0, 0.0, 1.0, 3.0))
            .with_term("delicious", Mf::trapezoidal(7.0, 9.0, 10.0, 10.0));
        let tip = LinguisticVariable::new("tip", 0.0, 30.0)
            .with_term("cheap", Mf::triangular(0.0, 5.0, 10.0))
            .with_term("average", Mf::triangular(10.0, 15.0, 20.0))
            .with_term("generous", Mf::triangular(20.0, 25.0, 30.0));
        FisBuilder::new("tipper")
            .input(service)
            .input(food)
            .output(tip)
            .rule_str("IF service IS poor OR food IS rancid THEN tip IS cheap")
            .unwrap()
            .rule_str("IF service IS good THEN tip IS average")
            .unwrap()
            .rule_str("IF service IS excellent OR food IS delicious THEN tip IS generous")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn matches_interpreted_engine_bitwise() {
        let fis = tipper();
        let plan = fis.compile();
        let mut scratch = plan.scratch();
        let mut out = [0.0f64];
        for x in [0.0, 0.5, 2.5, 5.0, 7.7, 10.0, -3.0, 13.0] {
            for y in [0.0, 1.0, 4.9, 8.1, 10.0, 42.0] {
                let interpreted = fis.evaluate(&[x, y]).unwrap()[0];
                plan.evaluate(&[x, y], &mut scratch, &mut out).unwrap();
                assert_eq!(
                    interpreted.to_bits(),
                    out[0].to_bits(),
                    "compiled drifted at ({x}, {y}): {interpreted} vs {}",
                    out[0]
                );
            }
        }
    }

    #[test]
    fn matches_across_operator_families_and_defuzzifiers() {
        for d in Defuzzifier::ALL {
            for (and, or, imp, agg) in [
                (TNorm::Min, SNorm::Max, Implication::Min, Aggregation::Max),
                (
                    TNorm::Product,
                    SNorm::ProbabilisticSum,
                    Implication::Product,
                    Aggregation::ProbabilisticSum,
                ),
                (TNorm::Lukasiewicz, SNorm::BoundedSum, Implication::Min, Aggregation::BoundedSum),
            ] {
                let fis = tipper().with_config(EngineConfig {
                    and,
                    or,
                    implication: imp,
                    aggregation: agg,
                    defuzzifier: d,
                    resolution: 301,
                    no_fire: NoFirePolicy::Error,
                });
                let plan = fis.compile();
                let mut scratch = EvalScratch::new();
                for x in [0.3, 4.2, 9.6] {
                    let a = fis.evaluate(&[x, 10.0 - x]).unwrap()[0];
                    let b = plan.evaluate_one(&[x, 10.0 - x], &mut scratch).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "{d:?}/{and:?} drifted at {x}");
                }
            }
        }
    }

    #[test]
    fn batch_equals_scalar() {
        let plan = tipper().compile();
        let mut scratch = plan.scratch();
        let inputs: Vec<f64> = (0..32).flat_map(|k| [k as f64 * 0.3, 10.0 - k as f64 * 0.25]).collect();
        let mut batch = vec![0.0; 32];
        plan.evaluate_batch(&inputs, &mut batch, &mut scratch).unwrap();
        for k in 0..32 {
            let scalar = plan.evaluate_one(&inputs[2 * k..2 * k + 2], &mut scratch).unwrap();
            assert_eq!(scalar.to_bits(), batch[k].to_bits());
        }
    }

    #[test]
    fn error_paths_match_interpreted() {
        let fis = tipper();
        let plan = fis.compile();
        let mut scratch = plan.scratch();
        let mut out = [0.0f64];
        assert_eq!(
            plan.evaluate(&[1.0], &mut scratch, &mut out),
            Err(FuzzyError::InputArity { expected: 2, got: 1 })
        );
        assert!(matches!(
            plan.evaluate(&[f64::NAN, 1.0], &mut scratch, &mut out),
            Err(FuzzyError::NonFiniteInput { index: 0, .. })
        ));
    }

    #[test]
    fn wrong_output_buffer_is_a_typed_error() {
        let plan = tipper().compile();
        let mut scratch = plan.scratch();
        assert_eq!(
            plan.evaluate(&[1.0, 2.0], &mut scratch, &mut [0.0; 2]),
            Err(FuzzyError::OutputArity { expected: 1, got: 2 })
        );
        assert_eq!(
            plan.evaluate(&[1.0, 2.0], &mut scratch, &mut []),
            Err(FuzzyError::OutputArity { expected: 1, got: 0 })
        );
        // A batch of three rows needs three output slots.
        assert_eq!(
            plan.evaluate_batch(&[1.0; 6], &mut [0.0; 2], &mut scratch),
            Err(FuzzyError::OutputArity { expected: 3, got: 2 })
        );
    }

    #[test]
    fn ragged_batch_is_a_typed_error() {
        let plan = tipper().compile();
        let mut scratch = plan.scratch();
        assert_eq!(
            plan.evaluate_batch(&[1.0; 5], &mut [0.0; 2], &mut scratch),
            Err(FuzzyError::RaggedBatch { len: 5, arity: 2 })
        );
    }

    #[test]
    fn evaluate_one_on_a_multi_output_system_is_a_typed_error() {
        let x = LinguisticVariable::new("x", 0.0, 1.0).with_term("lo", Mf::left_shoulder(0.0, 1.0));
        let y1 = LinguisticVariable::new("y1", 0.0, 1.0).with_term("a", Mf::triangular(0.0, 0.5, 1.0));
        let y2 = LinguisticVariable::new("y2", 0.0, 1.0).with_term("b", Mf::triangular(0.0, 0.5, 1.0));
        let plan = FisBuilder::new("dual")
            .input(x)
            .output(y1)
            .output(y2)
            .rule_str("IF x IS lo THEN y1 IS a AND y2 IS b")
            .unwrap()
            .build()
            .unwrap()
            .compile();
        let mut scratch = plan.scratch();
        assert_eq!(
            plan.evaluate_one(&[0.3], &mut scratch),
            Err(FuzzyError::NotSingleOutput { outputs: 2 })
        );
    }

    #[test]
    fn no_fire_policies_match() {
        let input = LinguisticVariable::new("x", 0.0, 10.0)
            .with_term("edge", Mf::triangular(0.0, 0.0, 1.0));
        let output = LinguisticVariable::new("y", 0.0, 10.0)
            .with_term("t", Mf::triangular(0.0, 5.0, 10.0));
        let build = |p: NoFirePolicy| {
            FisBuilder::new("nf")
                .input(input.clone())
                .output(output.clone())
                .rule_str("IF x IS edge THEN y IS t")
                .unwrap()
                .no_fire(p)
                .build()
                .unwrap()
        };
        let strict = build(NoFirePolicy::Error).compile();
        let mut scratch = EvalScratch::new();
        assert_eq!(strict.evaluate_one(&[5.0], &mut scratch), Err(FuzzyError::NoRuleFired));
        let lenient = build(NoFirePolicy::UniverseMidpoint).compile();
        assert_eq!(lenient.evaluate_one(&[5.0], &mut scratch).unwrap(), 5.0);
    }

    #[test]
    fn two_output_systems_compile() {
        let x = LinguisticVariable::new("x", 0.0, 1.0)
            .with_term("lo", Mf::left_shoulder(0.0, 1.0))
            .with_term("hi", Mf::right_shoulder(0.0, 1.0));
        let y1 = LinguisticVariable::new("y1", 0.0, 1.0)
            .with_term("a", Mf::triangular(0.0, 0.25, 0.5))
            .with_term("b", Mf::triangular(0.5, 0.75, 1.0));
        let y2 = LinguisticVariable::new("y2", 0.0, 1.0)
            .with_term("c", Mf::triangular(0.0, 0.25, 0.5))
            .with_term("d", Mf::triangular(0.5, 0.75, 1.0));
        let fis = FisBuilder::new("dual")
            .input(x)
            .output(y1)
            .output(y2)
            .rule_str("IF x IS lo THEN y1 IS a AND y2 IS d")
            .unwrap()
            .rule_str("IF x IS hi THEN y1 IS b AND y2 IS c")
            .unwrap()
            .build()
            .unwrap();
        let plan = fis.compile();
        assert_eq!(plan.n_outputs(), 2);
        let mut scratch = plan.scratch();
        let mut out = [0.0f64; 2];
        for x in [0.05, 0.5, 0.95] {
            plan.evaluate(&[x], &mut scratch, &mut out).unwrap();
            let reference = fis.evaluate(&[x]).unwrap();
            assert_eq!(out[0].to_bits(), reference[0].to_bits());
            assert_eq!(out[1].to_bits(), reference[1].to_bits());
        }
    }

    #[test]
    fn plan_reports_shape() {
        let plan = tipper().compile();
        assert_eq!(plan.name(), "tipper");
        assert_eq!(plan.n_inputs(), 2);
        assert_eq!(plan.n_outputs(), 1);
        assert_eq!(plan.n_rules(), 3);
        assert_eq!(plan.input_bounds(0), (0.0, 10.0));
        assert_eq!(plan.output_bounds(0), (0.0, 30.0));
        assert_eq!(plan.config().resolution, 501);
    }
}
