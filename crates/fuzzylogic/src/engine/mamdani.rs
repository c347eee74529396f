//! The Mamdani inference engine.
//!
//! Evaluation pipeline for each output variable:
//!
//! 1. **Fuzzify** every crisp input against every term of its variable.
//! 2. **Fire** each rule: combine antecedent memberships with the
//!    configured t-norm/s-norm and scale by the rule weight.
//! 3. **Imply**: clip (min) or scale (product) the consequent term's MF by
//!    the firing strength.
//! 4. **Aggregate** all implied consequents into one sampled output set.
//! 5. **Defuzzify** the aggregate into a crisp output.

use crate::defuzz::Defuzzifier;
use crate::engine::compiled::CompiledFis;
use crate::error::{FuzzyError, Result};
use crate::fuzzyset::{grid_x, SampledSet};
use crate::norms::{Aggregation, Implication, SNorm, TNorm};
use crate::parser::parse_rule;
use crate::rule::{Connective, Rule, RuleSet};
use crate::variable::LinguisticVariable;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Reusable buffers of the plain (untraced) evaluation path; one per
/// thread, grown on first use and reused for every subsequent call.
#[derive(Debug, Default)]
struct PlainScratch {
    /// Fuzzified degrees of every (input, term), flat in declaration order.
    memberships: Vec<f64>,
    /// `offsets[v]..offsets[v + 1]` delimits input `v`'s terms.
    offsets: Vec<usize>,
    /// Firing strength per rule.
    firing: Vec<f64>,
    /// Aggregated output samples (one output variable at a time).
    mu: Vec<f64>,
}

thread_local! {
    static PLAIN_SCRATCH: RefCell<PlainScratch> = RefCell::new(PlainScratch::default());
}

/// Behaviour when no rule fires for a given input vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NoFirePolicy {
    /// Return [`FuzzyError::NoRuleFired`].
    #[default]
    Error,
    /// Return the midpoint of each output universe.
    UniverseMidpoint,
}

/// Operator and discretisation configuration for a [`Fis`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// t-norm for AND-connected antecedents.
    pub and: TNorm,
    /// s-norm for OR-connected antecedents.
    pub or: SNorm,
    /// Implication (consequent shaping) operator.
    pub implication: Implication,
    /// Aggregation (consequent merging) operator.
    pub aggregation: Aggregation,
    /// Defuzzifier applied to the aggregated output set.
    pub defuzzifier: Defuzzifier,
    /// Number of samples per output universe (>= 2).
    pub resolution: usize,
    /// What to do when no rule fires.
    pub no_fire: NoFirePolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            and: TNorm::Min,
            or: SNorm::Max,
            implication: Implication::Min,
            aggregation: Aggregation::Max,
            defuzzifier: Defuzzifier::Centroid,
            resolution: 501,
            no_fire: NoFirePolicy::Error,
        }
    }
}

/// Per-evaluation diagnostic trace (for explainability and tests).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// `memberships[v][t]`: fuzzified degree of input `v` in its term `t`.
    pub memberships: Vec<Vec<f64>>,
    /// Firing strength of each rule, in rule order.
    pub firing: Vec<f64>,
    /// Aggregated output set per output variable.
    pub output_sets: Vec<SampledSet>,
    /// Crisp outputs, in output-variable order.
    pub outputs: Vec<f64>,
}

/// A complete Mamdani fuzzy inference system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fis {
    name: String,
    inputs: Vec<LinguisticVariable>,
    outputs: Vec<LinguisticVariable>,
    rules: RuleSet,
    config: EngineConfig,
}

impl Fis {
    /// System name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared input variables, in declaration order.
    pub fn inputs(&self) -> &[LinguisticVariable] {
        &self.inputs
    }

    /// Declared output variables, in declaration order.
    pub fn outputs(&self) -> &[LinguisticVariable] {
        &self.outputs
    }

    /// The rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replace the engine configuration (used by the ablation benches).
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Index of the input variable with the given name.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|v| v.name.eq_ignore_ascii_case(name))
    }

    /// Index of the output variable with the given name.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|v| v.name.eq_ignore_ascii_case(name))
    }

    fn check_inputs(&self, crisp: &[f64]) -> Result<()> {
        if crisp.len() != self.inputs.len() {
            return Err(FuzzyError::InputArity { expected: self.inputs.len(), got: crisp.len() });
        }
        for (i, &x) in crisp.iter().enumerate() {
            if !x.is_finite() {
                return Err(FuzzyError::NonFiniteInput { index: i, value: x });
            }
        }
        Ok(())
    }

    /// Step 1: fuzzify all crisp inputs.
    pub fn fuzzify(&self, crisp: &[f64]) -> Result<Vec<Vec<f64>>> {
        self.check_inputs(crisp)?;
        Ok(self
            .inputs
            .iter()
            .zip(crisp)
            .map(|(var, &x)| var.fuzzify(x))
            .collect())
    }

    /// Step 2: firing strength of every rule for the given inputs.
    pub fn firing_strengths(&self, crisp: &[f64]) -> Result<Vec<f64>> {
        let memberships = self.fuzzify(crisp)?;
        Ok(self
            .rules
            .rules()
            .iter()
            .map(|r| r.firing_strength(&memberships, self.config.and, self.config.or))
            .collect())
    }

    /// Steps 3–4: the aggregated output fuzzy set for output `out_idx`.
    pub fn output_set(&self, crisp: &[f64], out_idx: usize) -> Result<SampledSet> {
        let firing = self.firing_strengths(crisp)?;
        Ok(self.aggregate(&firing, out_idx))
    }

    fn aggregate(&self, firing: &[f64], out_idx: usize) -> SampledSet {
        let var = &self.outputs[out_idx];
        let mut set = SampledSet::empty(var.min, var.max, self.config.resolution);
        for (rule, &w) in self.rules.rules().iter().zip(firing) {
            if w <= 0.0 {
                continue;
            }
            for cons in rule.consequents.iter().filter(|c| c.var == out_idx) {
                let mf = var.terms()[cons.term].mf;
                let implication = self.config.implication;
                set.aggregate_fn(self.config.aggregation, |x| implication.apply(w, mf.eval(x)));
            }
        }
        set
    }

    /// Full pipeline: crisp inputs to crisp outputs.
    ///
    /// The plain path runs through a thread-local scratch buffer, so after
    /// the first call on a thread the only per-call heap allocation is the
    /// returned output vector; use [`CompiledFis`] for
    /// a strictly allocation-free hot path. Results are bit-identical to
    /// [`Fis::evaluate_with_trace`].
    pub fn evaluate(&self, crisp: &[f64]) -> Result<Vec<f64>> {
        PLAIN_SCRATCH.with(|cell| self.evaluate_scratch(crisp, &mut cell.borrow_mut()))
    }

    /// The scratch-buffer evaluation core behind [`Fis::evaluate`]. Performs
    /// the same fuzzify → fire → imply/aggregate → defuzzify arithmetic as
    /// the traced path, but reuses flat buffers instead of allocating the
    /// intermediate vectors and sampled sets.
    fn evaluate_scratch(&self, crisp: &[f64], s: &mut PlainScratch) -> Result<Vec<f64>> {
        self.check_inputs(crisp)?;

        // Step 1 — fuzzify into one flat buffer (term degrees per variable,
        // in declaration order, delimited by `offsets`).
        s.offsets.clear();
        s.memberships.clear();
        s.offsets.push(0);
        for (var, &x) in self.inputs.iter().zip(crisp) {
            let x = var.clamp(x);
            for term in var.terms() {
                s.memberships.push(term.mf.eval(x));
            }
            s.offsets.push(s.memberships.len());
        }

        // Step 2 — firing strengths (same degree lookup semantics as
        // `Rule::firing_strength`: unknown variable/term indices read as 0).
        s.firing.clear();
        for rule in self.rules.rules() {
            let degrees = rule.antecedents.iter().map(|a| {
                let mu = if a.var + 1 < s.offsets.len()
                    && a.term < s.offsets[a.var + 1] - s.offsets[a.var]
                {
                    s.memberships[s.offsets[a.var] + a.term]
                } else {
                    0.0
                };
                a.hedge.apply(mu)
            });
            let strength = match rule.connective {
                Connective::And => self.config.and.fold(degrees),
                Connective::Or => self.config.or.fold(degrees),
            };
            s.firing.push(strength * rule.weight);
        }

        // Steps 3–5 — imply, aggregate and defuzzify per output, reusing
        // one sample buffer.
        let res = self.config.resolution;
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (oi, var) in self.outputs.iter().enumerate() {
            s.mu.clear();
            s.mu.resize(res, 0.0);
            for (rule, &w) in self.rules.rules().iter().zip(&s.firing) {
                if w <= 0.0 {
                    continue;
                }
                for cons in rule.consequents.iter().filter(|c| c.var == oi) {
                    let mf = var.terms()[cons.term].mf;
                    let implication = self.config.implication;
                    let aggregation = self.config.aggregation;
                    for (i, slot) in s.mu.iter_mut().enumerate() {
                        let x = grid_x(var.min, var.max, res, i);
                        *slot = aggregation
                            .apply(*slot, implication.apply(w, mf.eval(x)).clamp(0.0, 1.0));
                    }
                }
            }
            let crisp_out = match self.config.defuzzifier.defuzzify_slice(var.min, var.max, &s.mu)
            {
                Some(v) => v,
                None => match self.config.no_fire {
                    NoFirePolicy::Error => return Err(FuzzyError::NoRuleFired),
                    NoFirePolicy::UniverseMidpoint => 0.5 * (var.min + var.max),
                },
            };
            outputs.push(crisp_out);
        }
        Ok(outputs)
    }

    /// Full pipeline with a diagnostic [`Trace`].
    pub fn evaluate_with_trace(&self, crisp: &[f64]) -> Result<Trace> {
        let memberships = self.fuzzify(crisp)?;
        let firing: Vec<f64> = self
            .rules
            .rules()
            .iter()
            .map(|r| r.firing_strength(&memberships, self.config.and, self.config.or))
            .collect();

        let mut output_sets = Vec::with_capacity(self.outputs.len());
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (oi, var) in self.outputs.iter().enumerate() {
            let set = self.aggregate(&firing, oi);
            let crisp_out = match self.config.defuzzifier.defuzzify(&set) {
                Some(v) => v,
                None => match self.config.no_fire {
                    NoFirePolicy::Error => return Err(FuzzyError::NoRuleFired),
                    NoFirePolicy::UniverseMidpoint => 0.5 * (var.min + var.max),
                },
            };
            output_sets.push(set);
            outputs.push(crisp_out);
        }
        Ok(Trace { memberships, firing, output_sets, outputs })
    }

    /// Sample the control surface of output `out_idx` over a grid of two
    /// inputs, holding the remaining inputs at `fixed`.
    ///
    /// Returns `surface[iy][ix]` for `ny × nx` samples spanning the two
    /// input universes; `fixed` must contain a value for every input (the
    /// swept entries are overwritten). Useful for plotting and for
    /// verifying rule-base monotonicity numerically.
    pub fn control_surface(
        &self,
        x_input: usize,
        y_input: usize,
        fixed: &[f64],
        nx: usize,
        ny: usize,
        out_idx: usize,
    ) -> Result<Vec<Vec<f64>>> {
        if x_input >= self.inputs.len() || y_input >= self.inputs.len() {
            return Err(FuzzyError::UnknownVariable {
                name: format!("input #{}", x_input.max(y_input)),
            });
        }
        if x_input == y_input {
            return Err(FuzzyError::DuplicateName {
                name: self.inputs[x_input].name.clone(),
            });
        }
        if out_idx >= self.outputs.len() {
            return Err(FuzzyError::UnknownVariable { name: format!("output #{out_idx}") });
        }
        self.check_inputs(fixed)?;
        assert!(nx >= 2 && ny >= 2, "need at least a 2x2 surface");
        let xs = self.inputs[x_input].sample_universe(nx);
        let ys = self.inputs[y_input].sample_universe(ny);
        let mut crisp = fixed.to_vec();
        let mut surface = Vec::with_capacity(ny);
        for &y in &ys {
            let mut row = Vec::with_capacity(nx);
            for &x in &xs {
                crisp[x_input] = x;
                crisp[y_input] = y;
                row.push(self.evaluate(&crisp)?[out_idx]);
            }
            surface.push(row);
        }
        Ok(surface)
    }

    /// Evaluate with inputs given as `(name, value)` pairs in any order.
    ///
    /// Every declared input must receive exactly one value:
    /// a missing input is a [`FuzzyError::MissingInput`] and a repeated
    /// name is a [`FuzzyError::DuplicateName`] (an earlier version used
    /// `NaN` as the "unset" sentinel, which conflated an explicitly passed
    /// non-finite value with a forgotten input).
    pub fn evaluate_named(&self, named: &[(&str, f64)]) -> Result<Vec<f64>> {
        let mut crisp = vec![0.0; self.inputs.len()];
        let mut supplied = vec![false; self.inputs.len()];
        for &(name, value) in named {
            let idx = self
                .input_index(name)
                .ok_or_else(|| FuzzyError::UnknownVariable { name: name.to_string() })?;
            if supplied[idx] {
                return Err(FuzzyError::DuplicateName { name: name.to_string() });
            }
            crisp[idx] = value;
            supplied[idx] = true;
        }
        if let Some(missing) = supplied.iter().position(|&set| !set) {
            return Err(FuzzyError::MissingInput {
                name: self.inputs[missing].name.clone(),
            });
        }
        self.evaluate(&crisp)
    }

    /// Compile this system into a [`CompiledFis`]: a flattened, pre-sampled
    /// plan whose evaluation is bit-identical to [`Fis::evaluate`] but
    /// performs no heap allocation per call. See the
    /// [`compiled`](crate::engine::compiled) module docs.
    pub fn compile(&self) -> CompiledFis {
        CompiledFis::compile(self)
    }
}

/// Fluent builder for [`Fis`].
#[derive(Debug, Clone, Default)]
pub struct FisBuilder {
    name: String,
    inputs: Vec<LinguisticVariable>,
    outputs: Vec<LinguisticVariable>,
    rules: RuleSet,
    config: EngineConfig,
    pending_error: Option<FuzzyError>,
}

impl FisBuilder {
    /// Start building a system with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        FisBuilder { name: name.into(), ..Default::default() }
    }

    /// Declare an input variable.
    #[must_use]
    pub fn input(mut self, var: LinguisticVariable) -> Self {
        self.inputs.push(var);
        self
    }

    /// Declare an output variable.
    #[must_use]
    pub fn output(mut self, var: LinguisticVariable) -> Self {
        self.outputs.push(var);
        self
    }

    /// Add a pre-built rule.
    #[must_use]
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Parse and add a rule from DSL text. Returns `Err` immediately on a
    /// syntax problem so authoring mistakes surface at the offending line.
    pub fn rule_str(mut self, text: &str) -> Result<Self> {
        let rule = parse_rule(text, &self.inputs, &self.outputs)?;
        self.rules.push(rule);
        Ok(self)
    }

    /// Set the AND t-norm.
    #[must_use]
    pub fn and(mut self, t: TNorm) -> Self {
        self.config.and = t;
        self
    }

    /// Set the OR s-norm.
    #[must_use]
    pub fn or(mut self, s: SNorm) -> Self {
        self.config.or = s;
        self
    }

    /// Set the implication operator.
    #[must_use]
    pub fn implication(mut self, i: Implication) -> Self {
        self.config.implication = i;
        self
    }

    /// Set the aggregation operator.
    #[must_use]
    pub fn aggregation(mut self, a: Aggregation) -> Self {
        self.config.aggregation = a;
        self
    }

    /// Set the defuzzifier.
    #[must_use]
    pub fn defuzzifier(mut self, d: Defuzzifier) -> Self {
        self.config.defuzzifier = d;
        self
    }

    /// Set the output-universe sampling resolution.
    #[must_use]
    pub fn resolution(mut self, n: usize) -> Self {
        self.config.resolution = n;
        self
    }

    /// Set the no-fire policy.
    #[must_use]
    pub fn no_fire(mut self, p: NoFirePolicy) -> Self {
        self.config.no_fire = p;
        self
    }

    /// Validate and build the system.
    pub fn build(self) -> Result<Fis> {
        if let Some(e) = self.pending_error {
            return Err(e);
        }
        if self.inputs.is_empty() {
            return Err(FuzzyError::EmptySystem { what: "inputs" });
        }
        if self.outputs.is_empty() {
            return Err(FuzzyError::EmptySystem { what: "outputs" });
        }
        if self.rules.is_empty() {
            return Err(FuzzyError::EmptyRuleSet);
        }
        if self.config.resolution < 2 {
            return Err(FuzzyError::InvalidMf {
                reason: format!("resolution {} < 2", self.config.resolution),
            });
        }
        check_unique_names(self.inputs.iter().chain(&self.outputs))?;
        let in_terms: Vec<usize> = self.inputs.iter().map(|v| v.term_count()).collect();
        let out_terms: Vec<usize> = self.outputs.iter().map(|v| v.term_count()).collect();
        self.rules.validate(&in_terms, &out_terms)?;
        Ok(Fis {
            name: self.name,
            inputs: self.inputs,
            outputs: self.outputs,
            rules: self.rules,
            config: self.config,
        })
    }
}

fn check_unique_names<'a>(vars: impl Iterator<Item = &'a LinguisticVariable>) -> Result<()> {
    let mut seen: Vec<&str> = Vec::new();
    for v in vars {
        if seen.iter().any(|s| s.eq_ignore_ascii_case(&v.name)) {
            return Err(FuzzyError::DuplicateName { name: v.name.clone() });
        }
        seen.push(&v.name);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::Mf;

    /// The classic tipper: well-known input/output pairs pin the engine.
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
    fn tipper_matches_reference_behaviour() {
        let fis = tipper();
        // Terrible service and food -> cheap region.
        let t = fis.evaluate(&[0.0, 0.0]).unwrap()[0];
        assert!(t < 10.0, "cheap tip, got {t}");
        // Average everything -> near 15%.
        let t = fis.evaluate(&[5.0, 5.0]).unwrap()[0];
        assert!((t - 15.0).abs() < 1.0, "average tip, got {t}");
        // Stellar service and food -> generous region.
        let t = fis.evaluate(&[10.0, 10.0]).unwrap()[0];
        assert!(t > 20.0, "generous tip, got {t}");
        // Monotonicity along the service axis at fixed food.
        let lo = fis.evaluate(&[2.0, 5.0]).unwrap()[0];
        let hi = fis.evaluate(&[8.0, 5.0]).unwrap()[0];
        assert!(lo < hi);
    }

    #[test]
    fn named_evaluation_matches_positional() {
        let fis = tipper();
        let a = fis.evaluate(&[3.0, 8.0]).unwrap();
        let b = fis.evaluate_named(&[("food", 8.0), ("service", 3.0)]).unwrap();
        assert_eq!(a, b);
        assert!(fis.evaluate_named(&[("service", 3.0)]).is_err(), "missing food");
        assert!(fis.evaluate_named(&[("bogus", 1.0), ("service", 1.0)]).is_err());
    }

    #[test]
    fn named_evaluation_rejects_missing_and_duplicate_inputs() {
        let fis = tipper();
        // A missing input is a dedicated error naming the input, not a NaN
        // silently fuzzified into zero memberships.
        assert_eq!(
            fis.evaluate_named(&[("service", 3.0)]),
            Err(FuzzyError::MissingInput { name: "food".into() })
        );
        // An explicitly supplied non-finite value is reported as such, not
        // misdiagnosed as a missing input (the old NaN-sentinel conflated
        // the two).
        assert!(matches!(
            fis.evaluate_named(&[("service", f64::NAN), ("food", 2.0)]),
            Err(FuzzyError::NonFiniteInput { index: 0, .. })
        ));
        // A repeated name no longer silently last-wins.
        assert_eq!(
            fis.evaluate_named(&[("service", 3.0), ("service", 4.0), ("food", 2.0)]),
            Err(FuzzyError::DuplicateName { name: "service".into() })
        );
    }

    #[test]
    fn arity_and_finiteness_checks() {
        let fis = tipper();
        assert_eq!(
            fis.evaluate(&[1.0]),
            Err(FuzzyError::InputArity { expected: 2, got: 1 })
        );
        assert!(matches!(
            fis.evaluate(&[f64::NAN, 1.0]),
            Err(FuzzyError::NonFiniteInput { index: 0, .. })
        ));
        assert!(matches!(
            fis.evaluate(&[1.0, f64::INFINITY]),
            Err(FuzzyError::NonFiniteInput { index: 1, .. })
        ));
    }

    #[test]
    fn trace_exposes_pipeline_internals() {
        let fis = tipper();
        let trace = fis.evaluate_with_trace(&[5.0, 5.0]).unwrap();
        assert_eq!(trace.memberships.len(), 2);
        assert_eq!(trace.memberships[0].len(), 3);
        assert_eq!(trace.firing.len(), 3);
        assert!((trace.firing[1] - 1.0).abs() < 1e-9, "good-service rule fully fires");
        assert_eq!(trace.output_sets.len(), 1);
        assert_eq!(trace.outputs.len(), 1);
        assert!(trace.output_sets[0].height() > 0.9);
    }

    #[test]
    fn no_fire_policy() {
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
        let strict = build(NoFirePolicy::Error);
        assert_eq!(strict.evaluate(&[5.0]), Err(FuzzyError::NoRuleFired));
        let lenient = build(NoFirePolicy::UniverseMidpoint);
        assert_eq!(lenient.evaluate(&[5.0]).unwrap()[0], 5.0);
    }

    #[test]
    fn builder_validation() {
        let x = LinguisticVariable::new("x", 0.0, 1.0).with_term("a", Mf::singleton(0.5));
        let y = LinguisticVariable::new("y", 0.0, 1.0).with_term("b", Mf::singleton(0.5));
        assert_eq!(
            FisBuilder::new("f").output(y.clone()).build().unwrap_err(),
            FuzzyError::EmptySystem { what: "inputs" }
        );
        assert_eq!(
            FisBuilder::new("f").input(x.clone()).build().unwrap_err(),
            FuzzyError::EmptySystem { what: "outputs" }
        );
        assert_eq!(
            FisBuilder::new("f").input(x.clone()).output(y.clone()).build().unwrap_err(),
            FuzzyError::EmptyRuleSet
        );
        // Duplicate variable names across inputs and outputs.
        let dup = LinguisticVariable::new("x", 0.0, 1.0).with_term("b", Mf::singleton(0.5));
        let err = FisBuilder::new("f")
            .input(x.clone())
            .output(dup)
            .rule(Rule::new(
                vec![crate::rule::Antecedent::new(0, 0)],
                crate::rule::Connective::And,
                vec![crate::rule::Consequent::new(0, 0)],
            ))
            .build()
            .unwrap_err();
        assert_eq!(err, FuzzyError::DuplicateName { name: "x".into() });
    }

    #[test]
    fn rule_referencing_missing_term_fails_build() {
        let x = LinguisticVariable::new("x", 0.0, 1.0).with_term("a", Mf::singleton(0.5));
        let y = LinguisticVariable::new("y", 0.0, 1.0).with_term("b", Mf::singleton(0.5));
        let err = FisBuilder::new("f")
            .input(x)
            .output(y)
            .rule(Rule::new(
                vec![crate::rule::Antecedent::new(0, 7)],
                crate::rule::Connective::And,
                vec![crate::rule::Consequent::new(0, 0)],
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, FuzzyError::UnknownTerm { .. }));
    }

    #[test]
    fn implication_product_softens_output() {
        // With product implication the clipped area shrinks relative to min
        // when the firing strength is below 1, but the centroid of a
        // symmetric consequent is unchanged.
        let x = LinguisticVariable::new("x", 0.0, 1.0)
            .with_term("a", Mf::triangular(0.0, 0.0, 1.0));
        let y = LinguisticVariable::new("y", 0.0, 10.0)
            .with_term("mid", Mf::triangular(2.0, 5.0, 8.0));
        let base = FisBuilder::new("f")
            .input(x.clone())
            .output(y.clone())
            .rule_str("IF x IS a THEN y IS mid")
            .unwrap();
        let min_fis = base.clone().implication(Implication::Min).build().unwrap();
        let prod_fis = base.implication(Implication::Product).build().unwrap();
        let vmin = min_fis.evaluate(&[0.5]).unwrap()[0];
        let vprod = prod_fis.evaluate(&[0.5]).unwrap()[0];
        assert!((vmin - 5.0).abs() < 0.05);
        assert!((vprod - 5.0).abs() < 0.05);
        let smin = min_fis.output_set(&[0.5], 0).unwrap();
        let sprod = prod_fis.output_set(&[0.5], 0).unwrap();
        assert!(sprod.area() < smin.area());
    }

    #[test]
    fn resolution_bounds_checked() {
        let x = LinguisticVariable::new("x", 0.0, 1.0).with_term("a", Mf::singleton(0.5));
        let y = LinguisticVariable::new("y", 0.0, 1.0).with_term("b", Mf::singleton(0.5));
        let err = FisBuilder::new("f")
            .input(x)
            .output(y)
            .rule(Rule::new(
                vec![crate::rule::Antecedent::new(0, 0)],
                crate::rule::Connective::And,
                vec![crate::rule::Consequent::new(0, 0)],
            ))
            .resolution(1)
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn control_surface_shape_and_bounds() {
        let fis = tipper();
        let surface = fis.control_surface(0, 1, &[5.0, 5.0], 9, 7, 0).unwrap();
        assert_eq!(surface.len(), 7);
        assert_eq!(surface[0].len(), 9);
        for row in &surface {
            for &v in row {
                assert!((0.0..=30.0).contains(&v), "tip {v} out of range");
            }
        }
        // Better service (x axis) never lowers the tip, row by row.
        for row in &surface {
            for w in row.windows(2) {
                assert!(w[1] >= w[0] - 0.6, "non-monotone row: {row:?}");
            }
        }
    }

    #[test]
    fn control_surface_argument_validation() {
        let fis = tipper();
        assert!(fis.control_surface(0, 0, &[5.0, 5.0], 4, 4, 0).is_err(), "same axis");
        assert!(fis.control_surface(0, 7, &[5.0, 5.0], 4, 4, 0).is_err(), "bad input");
        assert!(fis.control_surface(0, 1, &[5.0, 5.0], 4, 4, 3).is_err(), "bad output");
        assert!(fis.control_surface(0, 1, &[5.0], 4, 4, 0).is_err(), "bad arity");
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let fis = tipper();
        let json = serde_json::to_string(&fis).unwrap();
        let back: Fis = serde_json::from_str(&json).unwrap();
        let a = fis.evaluate(&[7.0, 4.0]).unwrap();
        let b = back.evaluate(&[7.0, 4.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn two_output_system() {
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
        let out = fis.evaluate(&[0.05]).unwrap();
        assert!(out[0] < 0.5, "y1 low");
        assert!(out[1] > 0.5, "y2 high");
        let out = fis.evaluate(&[0.95]).unwrap();
        assert!(out[0] > 0.5);
        assert!(out[1] < 0.5);
    }
}
