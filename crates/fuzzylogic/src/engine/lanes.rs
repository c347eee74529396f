//! Row lanes: the batch form of the compiled plan's sparse centroid
//! (lever 6 in the [`compiled`](super::compiled) module docs).
//!
//! [`CompiledFis::evaluate`] sums one row's area and first moment left to
//! right over its union support, two dependent chains per sample. Reordering
//! the terms of a row is not exact, but running several rows side by side
//! is: [`CompiledFis::evaluate_batch`] groups the rows the lanes can take,
//! 4 at a time (8 with AVX2), one row per SIMD lane. Each lane keeps its
//! own row's summation order, so nothing is reassociated. Implication,
//! aggregation and the centroid sums are fused into one pass over the
//! group's interior range, with no aggregated curve in memory: per sample
//! `i`, lane by lane,
//!
//! ```text
//! m = max_k min(W_k, S_k[i])    area += m    moment += m · x[i]
//! ```
//!
//! where `S_k` is output term `k`'s pre-sampled row and `W_k` the lane's
//! merged strength of term `k` (lever 3; `+0.0` if the term did not fire).
//! Every lane's area and moment are the bits [`CompiledFis::evaluate`]
//! computes for its row:
//!
//! * **(a) Zero padding across the group.** A row's own sum
//!   (`slice_area_moment`) runs over its interior range `[a, b)` with one
//!   `+0.0` stand-in for each skipped run `[1, a)` and `[b, n - 1)`. A lane
//!   runs over the group's range `[a_g, b_g) ⊇ [a, b)` instead: the real
//!   terms of `[a_g, b_g)` — zeros outside the row's support, by (b) — and
//!   a stand-in for `[b_g, n - 1)`. Both start from `iter::empty().sum()`
//!   (`-0.0`). Where the row adds one stand-in the lane adds a run of
//!   zeros, and by `slice_area_moment`'s skipped-run lemma a run of zeros
//!   has exactly the effect of its last term: the lane's run after `b` ends
//!   with the term at `n - 2`, its run before `a` (when `a_g < a`) with the
//!   one at `a - 1`, the same terms the row's stand-ins are. The lane needs
//!   no stand-in for `[1, a_g)`. Where the row's own range starts there
//!   (`a = a_g > 1`), its stand-in meets the starting `-0.0`. Its moment
//!   term `+0.0 · x[a - 1]` is `-0.0` when `x[a - 1] < 0` and changes
//!   nothing. Otherwise every later `x` is `>= 0` on the non-decreasing
//!   grid and `m(0)` is `+0.0` (the support starts at `a > 1`), so every
//!   later term, up to the endpoint sum added last, is `+0.0` or positive;
//!   the area's later terms always are. A zero sum followed by such terms
//!   ends with the same bits whether it starts as `-0.0` or as `+0.0`, so
//!   the stand-in changes nothing. The endpoints `m(0)` and `m(n - 1)` are
//!   the row's `at(0)` and `at(n - 1)`.
//! * **(b) Unfired terms are the identity.** Every sample is in `[+0, 1]`
//!   and every strength `W_k` positive and finite or `+0.0`, so
//!   `min(+0.0, s) = +0.0`, and `max(acc, +0.0) = acc` because
//!   `acc >= +0.0`. Outside its fired rows' supports a lane's `m` is
//!   therefore `+0.0`, as the row's curve is. The same holds for a term
//!   whose support does not reach the sample, so the kernel walks the grid
//!   in runs on which the same terms are non-zero ([`Segments`]) and reads
//!   only those terms: one or two on a Ruspini partition such as the
//!   paper's.
//! * **(c) Compare-select equals `f64::min`/`max` here.** The lanes never
//!   see NaN or `-0.0`, so `if a > b { a } else { b }` gives the bits of
//!   `f64::max` (and likewise for `min`). It lowers to one `maxpd`/`minpd`,
//!   where `f64::max` needs a NaN fix-up that chains the terms serially.
//!   `max` selects and does not round, so folding the terms in any order is
//!   exact.
//! * **(d) No clamp.** Under `Min` implication with every sample of the
//!   output in `[+0, 1]` (checked at compile time) and `w > 0`,
//!   `clamp(0, 1)` is the identity, so the lanes skip it.
//! * **(e) No fused multiply-add.** Rust never contracts `a * b + c` into
//!   an FMA, so the AVX2 and portable instantiations of the one generic
//!   body compute the same bits.
//!
//! Rows the lanes cannot take go through [`CompiledFis::evaluate`] one at a
//! time, in place: a non-finite input, a NaN firing strength, a merged
//! strength that is not finite, a row where nothing fired, and a lane whose
//! area comes out `<= 0` (the centroid's mean-of-max fallback). Plans with
//! more than one output, an implication other than `Min`, an aggregation
//! other than `Max`, a defuzzifier other than the centroid, or an output
//! with a sample outside `[+0, 1]` (or a `-0.0` or NaN one) never reach
//! this module. The pending group is written before a fallback row is
//! evaluated, so a failing row returns its error after every earlier row
//! has been written and before any later one is. (A lane row cannot fail:
//! its curve has a positive sample, so the mean-of-max fallback has a
//! value.)

use super::compiled::{CompiledFis, EvalScratch};
use crate::error::Result;
use std::ops::Range;

/// The widest lane group: eight `f64` lanes, two AVX2 registers.
pub(super) const MAX_LANES: usize = 8;

/// The output's grid cut into runs of samples on which the same term rows
/// have a sample that is not `+0.0`, built once at compile time. Outside
/// a row's support its samples are `+0.0`, so a lane reads only the rows
/// of the run it is in; the others add the identity (lever (b)).
#[derive(Debug, Clone, Default)]
pub(super) struct Segments {
    /// Per run, its samples and its slice of `rows`.
    runs: Vec<(Range<usize>, Range<usize>)>,
    rows: Vec<usize>,
}

impl Segments {
    /// The runs of an `n`-sample grid for term rows with `supports`.
    pub(super) fn new(supports: &[(usize, usize)], n: usize) -> Self {
        let mut cuts: Vec<usize> = supports.iter().flat_map(|&(s, e)| [s, e]).collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        cuts.dedup();
        let mut segments = Segments::default();
        for pair in cuts.windows(2) {
            let (p, q) = (pair[0], pair[1]);
            let first = segments.rows.len();
            let covering = supports
                .iter()
                .enumerate()
                .filter(|(_, &(s, e))| s <= p && q <= e);
            segments.rows.extend(covering.map(|(k, _)| k));
            segments.runs.push((p..q, first..segments.rows.len()));
        }
        segments
    }
}

/// One lane group's input to the kernel.
struct Group<'a> {
    /// The output's pre-sampled term rows, `terms × n`, row-major.
    samples: &'a [f64],
    segments: &'a Segments,
    /// Per term, each lane's merged strength (`+0.0` in unused lanes).
    w: &'a [[f64; MAX_LANES]],
    /// The output's `n` grid coordinates.
    xs: &'a [f64],
    /// The group's interior range `[a_g, b_g)` (lever (a)).
    interior: Range<usize>,
    /// The grid spacing, as `slice_area_moment` computes it.
    dx: f64,
}

/// Per lane, the trapezoid area and first moment of its row's curve.
type Sums<const L: usize> = ([f64; L], [f64; L]);

#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Lane by lane, `area += m` and `moment += m · x`.
#[inline(always)]
fn accumulate<const L: usize>(area: &mut [f64; L], moment: &mut [f64; L], m: [f64; L], x: f64) {
    for l in 0..L {
        area[l] += m[l];
        moment[l] += m[l] * x;
    }
}

/// The aggregated membership `m(i)` of sample `i` over `rows`, per lane.
#[inline(always)]
fn sample<const L: usize>(g: &Group<'_>, rows: &[usize], i: usize) -> [f64; L] {
    let n = g.xs.len();
    let mut m = [0.0f64; L];
    for &k in rows {
        let (w, s) = (&g.w[k], g.samples[k * n + i]);
        for l in 0..L {
            m[l] = max(m[l], min(w[l], s));
        }
    }
    m
}

/// The one kernel body: the group's fused imply–aggregate–centroid pass,
/// run by run, left to right.
#[inline(always)]
fn body<const L: usize>(g: &Group<'_>) -> Sums<L> {
    let (xs, n) = (g.xs, g.xs.len());
    let Range { start: a, end: b } = g.interior;
    let mut area = [std::iter::empty::<f64>().sum::<f64>(); L];
    let mut moment = area;
    for (run, rows) in &g.segments.runs {
        let (p, q) = (run.start.max(a), run.end.min(b));
        if p >= q {
            continue;
        }
        let rows = &g.segments.rows[rows.clone()];
        if let (1 | 2, Some(&k0), Some(&k1)) = (rows.len(), rows.first(), rows.last()) {
            // One or two rows (a lone row paired with itself): the
            // strengths stay in registers across the run.
            let (w0, w1) = (&g.w[k0], &g.w[k1]);
            let (s0, s1) = (&g.samples[k0 * n..][p..q], &g.samples[k1 * n..][p..q]);
            for ((&x, &a0), &a1) in xs[p..q].iter().zip(s0).zip(s1) {
                let mut m = [0.0f64; L];
                for l in 0..L {
                    m[l] = max(min(w0[l], a0), min(w1[l], a1));
                }
                accumulate(&mut area, &mut moment, m, x);
            }
        } else {
            for (i, &x) in (p..q).zip(&xs[p..q]) {
                let m = sample::<L>(g, rows, i);
                accumulate(&mut area, &mut moment, m, x);
            }
        }
    }
    if b < n - 1 {
        accumulate(&mut area, &mut moment, [0.0; L], xs[n - 2]);
    }
    // The endpoints, from the first and the last run.
    let (runs, rows) = (&g.segments.runs, &g.segments.rows);
    let at = |run: Option<&(Range<usize>, Range<usize>)>, i: usize| {
        run.map_or([0.0; L], |(_, k)| sample::<L>(g, &rows[k.clone()], i))
    };
    let (first, last) = (at(runs.first(), 0), at(runs.last(), n - 1));
    for l in 0..L {
        area[l] = g.dx * (0.5 * (first[l] + last[l]) + area[l]);
        moment[l] = g.dx * (0.5 * (first[l] * xs[0] + last[l] * xs[n - 1]) + moment[l]);
    }
    (area, moment)
}

/// The kernel compiled for the baseline target.
fn portable<const L: usize>(g: &Group<'_>) -> Sums<L> {
    body::<L>(g)
}

/// The same kernel compiled with AVX2 codegen.
///
/// # Safety
///
/// The caller must have verified at runtime that the CPU supports AVX2
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<const L: usize>(g: &Group<'_>) -> Sums<L> {
    body::<L>(g)
}

/// [`CompiledFis::evaluate_batch`] for a plan whose only output the lanes
/// can take (`CompiledFis::lanes_apply`); the caller has checked the
/// batch's shape.
pub(super) fn evaluate_rows(
    plan: &CompiledFis,
    inputs: &[f64],
    outputs: &mut [f64],
    scratch: &mut EvalScratch,
) -> Result<()> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was verified just above.
        let kernel = |g: &Group<'_>| unsafe { avx2::<MAX_LANES>(g) };
        return Lanes::<MAX_LANES>::new(plan, inputs).run(outputs, scratch, kernel);
    }
    Lanes::<4>::new(plan, inputs).run(outputs, scratch, portable::<4>)
}

/// A batch being evaluated `L` rows at a time.
struct Lanes<'a, const L: usize> {
    plan: &'a CompiledFis,
    inputs: &'a [f64],
    /// The output's term rows `0..terms` and their samples.
    terms: usize,
    samples: &'a [f64],
    xs: &'a [f64],
    dx: f64,
    /// The pending group: its batch rows and the ends of its interior
    /// range (`(usize::MAX, 0)` while it is empty).
    rows: [usize; L],
    len: usize,
    interior: (usize, usize),
}

impl<'a, const L: usize> Lanes<'a, L> {
    fn new(plan: &'a CompiledFis, inputs: &'a [f64]) -> Self {
        let n = plan.config().resolution;
        let terms = plan.row_offsets[1] as usize;
        let (lo, hi) = plan.output_bounds[0];
        Lanes {
            plan,
            inputs,
            terms,
            samples: &plan.samples[..terms * n],
            xs: &plan.grid[..n],
            dx: (hi - lo) / (n - 1) as f64,
            rows: [0; L],
            len: 0,
            interior: (usize::MAX, 0),
        }
    }

    fn crisp(&self, r: usize) -> &'a [f64] {
        let ni = self.plan.n_inputs();
        &self.inputs[r * ni..(r + 1) * ni]
    }

    /// Fire row `crisp` into the scratch and return its union support when
    /// a lane can take it (module docs).
    fn merged(&self, crisp: &[f64], scratch: &mut EvalScratch) -> Option<(usize, usize)> {
        if !crisp.iter().all(|x| x.is_finite()) || self.plan.fire(crisp, scratch) {
            return None;
        }
        let (s, e) = self.plan.merge_rows(0, scratch);
        let finite = scratch.row_strength[..self.terms]
            .iter()
            .all(|w| w.is_finite());
        (s < e && finite).then_some((s, e))
    }

    fn run(
        mut self,
        outputs: &mut [f64],
        scratch: &mut EvalScratch,
        kernel: impl Fn(&Group<'_>) -> Sums<L>,
    ) -> Result<()> {
        scratch.prepare(self.plan);
        let n = self.xs.len();
        for r in 0..outputs.len() {
            let crisp = self.crisp(r);
            let Some((s, e)) = self.merged(crisp, scratch) else {
                // The pending rows come first (module docs).
                self.flush(outputs, scratch, &kernel)?;
                self.plan
                    .evaluate(crisp, scratch, std::slice::from_mut(&mut outputs[r]))?;
                continue;
            };
            // The row's interior range, as `slice_area_moment` clamps it.
            let a = s.clamp(1, n - 1);
            self.interior.0 = self.interior.0.min(a);
            self.interior.1 = self.interior.1.max(e.clamp(a, n - 1));
            let strengths = &scratch.row_strength[..self.terms];
            for (lanes, &w) in scratch.lane_w.iter_mut().zip(strengths) {
                lanes[self.len] = w;
            }
            self.rows[self.len] = r;
            self.len += 1;
            if self.len == L {
                self.flush(outputs, scratch, &kernel)?;
            }
        }
        self.flush(outputs, scratch, &kernel)
    }

    /// Evaluate the pending group and write its rows' outputs.
    fn flush(
        &mut self,
        outputs: &mut [f64],
        scratch: &mut EvalScratch,
        kernel: &impl Fn(&Group<'_>) -> Sums<L>,
    ) -> Result<()> {
        let len = std::mem::take(&mut self.len);
        if len == 0 {
            return Ok(());
        }
        let lane_w = &mut scratch.lane_w[..self.terms];
        for lanes in lane_w.iter_mut() {
            lanes[len..L].fill(0.0);
        }
        let (a, b) = std::mem::replace(&mut self.interior, (usize::MAX, 0));
        let group = Group {
            samples: self.samples,
            segments: &self.plan.segments,
            w: lane_w,
            xs: self.xs,
            interior: a..b,
            dx: self.dx,
        };
        let (area, moment) = kernel(&group);
        for (l, &r) in self.rows[..len].iter().enumerate() {
            if area[l] > 0.0 {
                outputs[r] = moment[l] / area[l];
            } else {
                let out = std::slice::from_mut(&mut outputs[r]);
                self.plan.evaluate(self.crisp(r), scratch, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mamdani::{FisBuilder, NoFirePolicy};
    use crate::fuzzyset::grid_x;
    use crate::membership::Mf;
    use crate::norms::Implication;
    use crate::variable::LinguisticVariable;

    /// A two-input system whose output terms form a Ruspini partition
    /// (one or two rows per run) or overlapping Gaussians (every row in
    /// every run), under the given implication.
    fn plan(implication: Implication, gaussian: bool) -> CompiledFis {
        let a = LinguisticVariable::new("a", 0.0, 10.0)
            .with_term("low", Mf::left_shoulder(2.0, 5.0))
            .with_term("mid", Mf::triangular(2.0, 5.0, 8.0))
            .with_term("high", Mf::right_shoulder(5.0, 8.0));
        let b = LinguisticVariable::new("b", -5.0, 5.0)
            .with_term("neg", Mf::left_shoulder(-4.0, 0.0))
            .with_term("pos", Mf::right_shoulder(0.0, 4.0));
        let terms: [Mf; 4] = if gaussian {
            [-0.6, -0.2, 0.2, 0.6].map(|mean| Mf::gaussian(mean, 0.3))
        } else {
            [
                Mf::left_shoulder(-0.6, -0.2),
                Mf::triangular(-0.6, -0.2, 0.2),
                Mf::triangular(-0.2, 0.2, 0.6),
                Mf::right_shoulder(0.2, 0.6),
            ]
        };
        let y = terms
            .iter()
            .enumerate()
            .fold(LinguisticVariable::new("y", -1.0, 1.0), |y, (k, &mf)| {
                y.with_term(format!("t{k}"), mf)
            });
        let mut builder = FisBuilder::new("lanes").input(a).input(b).output(y);
        for (ai, at) in ["low", "mid", "high"].iter().enumerate() {
            for (bi, bt) in ["neg", "pos"].iter().enumerate() {
                let rule = format!("IF a IS {at} AND b IS {bt} THEN y IS t{}", (ai + bi) % 4);
                builder = builder.rule_str(&rule).unwrap();
            }
        }
        // At b = 0 nothing fires: those rows take the scalar fallback.
        let builder = builder.no_fire(NoFirePolicy::UniverseMidpoint);
        builder
            .implication(implication)
            .resolution(201)
            .build()
            .unwrap()
            .compile()
    }

    /// Rows on and between the breakpoints and outside both universes.
    fn rows() -> Vec<f64> {
        let a_axis = [-1.0, 0.0, 1.3, 2.0, 3.7, 5.0, 6.4, 8.0, 9.1, 10.0, 12.0];
        let b_axis = [-6.0, -4.0, -2.5, -0.3, 0.0, 1.1, 3.9, 4.0, 5.0];
        a_axis
            .iter()
            .flat_map(|&a| b_axis.iter().flat_map(move |&b| [a, b]))
            .collect()
    }

    /// The portable and the AVX2 instantiations of the kernel, run on the
    /// same 8-row groups, and the 4-lane portable grouping, all give every
    /// row the bits of a scalar evaluation. Product implication never
    /// reaches the lanes.
    #[test]
    fn portable_and_avx2_kernels_agree_with_the_scalar_path() {
        let inputs = rows();
        for gaussian in [false, true] {
            assert!(!plan(Implication::Product, gaussian).lanes_apply());
            let plan = plan(Implication::Min, gaussian);
            assert!(plan.lanes_apply());
            let mut scratch = plan.scratch();
            let len = inputs.len() / 2;
            let scalar: Vec<u64> = inputs
                .chunks_exact(2)
                .map(|x| plan.evaluate_one(x, &mut scratch).unwrap().to_bits())
                .collect();
            let mut run = |kernel: &dyn Fn(&Group<'_>) -> Sums<8>| {
                let mut out = vec![0.0; len];
                let lanes = Lanes::<8>::new(&plan, &inputs);
                lanes.run(&mut out, &mut scratch, kernel).unwrap();
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let label = format!("gaussian {gaussian}");
            assert_eq!(run(&portable::<8>), scalar, "portable, {label}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was verified just above.
                assert_eq!(run(&|g| unsafe { avx2::<8>(g) }), scalar, "AVX2, {label}");
            }
            let mut out = vec![0.0; len];
            Lanes::<4>::new(&plan, &inputs)
                .run(&mut out, &mut scratch, portable::<4>)
                .unwrap();
            assert!(
                out.iter().map(|v| v.to_bits()).eq(scalar),
                "4 lanes, {label}"
            );
        }
    }

    /// Lever (a) on curves where the sign of a zero sum decides the bits:
    /// the rows below are denormal left of `x = 0`, so their moment terms
    /// underflow to `-0.0` and only the skipped `+0.0 · x` terms to the
    /// right make a zero moment `+0.0` (as in `fuzzyset`'s ranged-sum
    /// test). Every lane of every group must get the bits of its own
    /// curve's `slice_area_moment` over its own support.
    #[test]
    fn group_sums_equal_each_rows_own_sums() {
        let (lo, hi, n) = (-1.0, 1.0, 201);
        let xs: Vec<f64> = (0..n).map(|i| grid_x(lo, hi, n, i)).collect();
        let unit = f64::from_bits(1);
        let mut rows = vec![vec![0.0f64; n]; 6];
        (rows[0][0], rows[0][98], rows[0][99]) = (unit, 24.0 * unit, 49.0 * unit);
        rows[1][97] = 3.0 * unit;
        for (row, (s, e)) in rows[2..]
            .iter_mut()
            .zip([(40, 60), (95, 106), (120, 180), (200, 201)])
        {
            for (k, slot) in row[s..e].iter_mut().enumerate() {
                *slot = (k as f64 + 1.0) / (e - s) as f64;
            }
        }
        let supports: Vec<(usize, usize)> = rows
            .iter()
            .map(|r| {
                let first = r.iter().position(|&v| v != 0.0).unwrap();
                (first, r.iter().rposition(|&v| v != 0.0).unwrap() + 1)
            })
            .collect();
        let samples: Vec<f64> = rows.concat();
        let segments = Segments::new(&supports, n);
        let dx = (hi - lo) / (n - 1) as f64;
        // Lane `l` of group `g` fires the rows of bitmask `8 g + l + 1`;
        // group 0 only fires rows ending left of `x = 0`, so its lanes
        // take their sign of zero from the stand-in for `[b_g, n - 1)`.
        for group in 0..8 {
            let mut w = vec![[0.0f64; MAX_LANES]; rows.len()];
            let (mut a_g, mut b_g) = (usize::MAX, 0);
            let mut lane = |l: usize| {
                let mask = if group == 0 {
                    l % 7 + 1
                } else {
                    (MAX_LANES * group + l + 1) % 64
                };
                let fired: Vec<usize> = (0..rows.len()).filter(|k| mask >> k & 1 == 1).collect();
                let mut mu = vec![0.0f64; n];
                for &k in &fired {
                    w[k][l] = if k % 2 == 0 { 1.0 } else { 0.5 };
                    for (m, &v) in mu.iter_mut().zip(&rows[k]) {
                        *m = m.max(w[k][l].min(v));
                    }
                }
                let s = fired.iter().map(|&k| supports[k].0).min().unwrap_or(n);
                let e = fired.iter().map(|&k| supports[k].1).max().unwrap_or(0);
                let a = s.clamp(1, n - 1);
                (a_g, b_g) = (a_g.min(a), b_g.max(e.clamp(a, n - 1)));
                let sums = crate::fuzzyset::slice_area_moment(lo, hi, &mu, s..e.max(s), |i| xs[i]);
                (sums.0.to_bits(), sums.1.to_bits())
            };
            let expected: Vec<(u64, u64)> = (0..MAX_LANES).map(&mut lane).collect();
            let g = Group {
                samples: &samples,
                segments: &segments,
                w: &w,
                xs: &xs,
                interior: a_g..b_g,
                dx,
            };
            let mut kernels: Vec<Sums<MAX_LANES>> = vec![portable::<MAX_LANES>(&g)];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was verified just above.
                kernels.push(unsafe { avx2::<MAX_LANES>(&g) });
            }
            for (area, moment) in kernels {
                let got: Vec<(u64, u64)> = area
                    .iter()
                    .zip(&moment)
                    .map(|(a, m)| (a.to_bits(), m.to_bits()))
                    .collect();
                assert_eq!(got, expected, "group {group}");
            }
        }
    }

    /// A Ruspini partition gives runs of at most two rows; Gaussians put
    /// every row in every run.
    #[test]
    fn segments_cover_the_grid_in_order() {
        for (gaussian, widest) in [(false, 2), (true, 4)] {
            let plan = plan(Implication::Min, gaussian);
            let Segments { runs, rows } = &plan.segments;
            assert_eq!(runs.first().map(|r| r.0.start), Some(0));
            assert_eq!(runs.last().map(|r| r.0.end), Some(201));
            assert!(runs.windows(2).all(|p| p[0].0.end == p[1].0.start));
            assert_eq!(runs.iter().map(|(_, k)| k.len()).max(), Some(widest));
            assert!(rows.iter().all(|&k| k < 4));
        }
    }
}
