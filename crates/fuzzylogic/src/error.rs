//! Error type shared by every fallible operation in the crate.

use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FuzzyError>;

/// Errors produced while constructing or evaluating fuzzy systems.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzyError {
    /// A membership function was built with parameters that violate its
    /// ordering constraints (e.g. a triangular MF with `a > b`).
    InvalidMf {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A variable was declared with an empty or inverted universe.
    InvalidUniverse {
        /// Variable name.
        variable: String,
        /// Offending lower bound.
        min: f64,
        /// Offending upper bound.
        max: f64,
    },
    /// A rule referenced a variable that the system does not declare.
    UnknownVariable {
        /// The unresolved name.
        name: String,
    },
    /// A rule referenced a term that its variable does not declare.
    UnknownTerm {
        /// The variable that was searched.
        variable: String,
        /// The unresolved term name.
        term: String,
    },
    /// A rule index was out of bounds for the rule set.
    RuleIndexOutOfBounds {
        /// Requested index.
        index: usize,
        /// Number of rules available.
        len: usize,
    },
    /// `evaluate` was called with the wrong number of crisp inputs.
    InputArity {
        /// Number of inputs the system declares.
        expected: usize,
        /// Number of inputs supplied by the caller.
        got: usize,
    },
    /// An output buffer did not hold exactly one slot per output value
    /// ([`CompiledFis::evaluate`](crate::CompiledFis::evaluate) and
    /// [`CompiledFis::evaluate_batch`](crate::CompiledFis::evaluate_batch)).
    OutputArity {
        /// Number of slots the call writes.
        expected: usize,
        /// Length of the buffer supplied by the caller.
        got: usize,
    },
    /// A single-output entry point
    /// ([`CompiledFis::evaluate_one`](crate::CompiledFis::evaluate_one)) was
    /// called on a system that declares several outputs.
    NotSingleOutput {
        /// Number of outputs the system declares.
        outputs: usize,
    },
    /// A row-major input batch was not a whole number of rows.
    RaggedBatch {
        /// Length of the supplied input slice.
        len: usize,
        /// Number of inputs per row.
        arity: usize,
    },
    /// An input value was not a finite number.
    NonFiniteInput {
        /// Index of the offending input.
        index: usize,
        /// The offending value (NaN or ±inf).
        value: f64,
    },
    /// A named evaluation ([`Fis::evaluate_named`](crate::Fis::evaluate_named))
    /// supplied no value for a declared input.
    MissingInput {
        /// Name of the input that received no value.
        name: String,
    },
    /// The system has no rules, so no output can be inferred.
    EmptyRuleSet,
    /// A system was built without inputs or without outputs.
    EmptySystem {
        /// Which side is missing: `"inputs"` or `"outputs"`.
        what: &'static str,
    },
    /// No rule fired (all firing strengths are zero) and the engine was
    /// configured to treat this as an error rather than return a default.
    NoRuleFired,
    /// Rule-text could not be parsed.
    Parse {
        /// Description of the syntax problem.
        reason: String,
        /// The original rule text.
        text: String,
    },
    /// A rule weight was outside `[0, 1]` or not finite.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
    /// A duplicate variable or term name was declared.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for FuzzyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzyError::InvalidMf { reason } => {
                write!(f, "invalid membership function: {reason}")
            }
            FuzzyError::InvalidUniverse { variable, min, max } => {
                write!(f, "variable `{variable}` has invalid universe [{min}, {max}]")
            }
            FuzzyError::UnknownVariable { name } => {
                write!(f, "unknown variable `{name}`")
            }
            FuzzyError::UnknownTerm { variable, term } => {
                write!(f, "variable `{variable}` has no term `{term}`")
            }
            FuzzyError::RuleIndexOutOfBounds { index, len } => {
                write!(f, "rule index {index} out of bounds (only {len} rules)")
            }
            FuzzyError::InputArity { expected, got } => {
                write!(f, "expected {expected} crisp inputs, got {got}")
            }
            FuzzyError::OutputArity { expected, got } => {
                write!(f, "expected an output buffer of {expected} slots, got {got}")
            }
            FuzzyError::NotSingleOutput { outputs } => {
                write!(f, "single-output evaluation of a system with {outputs} outputs")
            }
            FuzzyError::RaggedBatch { len, arity } => {
                write!(f, "an input batch of {len} values is not whole rows of {arity}")
            }
            FuzzyError::NonFiniteInput { index, value } => {
                write!(f, "input #{index} is not finite ({value})")
            }
            FuzzyError::MissingInput { name } => {
                write!(f, "no value supplied for input `{name}`")
            }
            FuzzyError::EmptyRuleSet => write!(f, "the rule set is empty"),
            FuzzyError::EmptySystem { what } => {
                write!(f, "the system declares no {what}")
            }
            FuzzyError::NoRuleFired => write!(f, "no rule fired for the given inputs"),
            FuzzyError::Parse { reason, text } => {
                write!(f, "cannot parse rule `{text}`: {reason}")
            }
            FuzzyError::InvalidWeight { weight } => {
                write!(f, "rule weight {weight} must be a finite value in [0, 1]")
            }
            FuzzyError::DuplicateName { name } => {
                write!(f, "duplicate name `{name}`")
            }
        }
    }
}

impl std::error::Error for FuzzyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let cases: Vec<(FuzzyError, &str)> = vec![
            (
                FuzzyError::InvalidMf { reason: "a > b".into() },
                "invalid membership function: a > b",
            ),
            (
                FuzzyError::UnknownVariable { name: "speed".into() },
                "unknown variable `speed`",
            ),
            (
                FuzzyError::UnknownTerm { variable: "speed".into(), term: "warp".into() },
                "variable `speed` has no term `warp`",
            ),
            (FuzzyError::InputArity { expected: 3, got: 1 }, "expected 3 crisp inputs, got 1"),
            (
                FuzzyError::OutputArity { expected: 2, got: 1 },
                "expected an output buffer of 2 slots, got 1",
            ),
            (
                FuzzyError::NotSingleOutput { outputs: 2 },
                "single-output evaluation of a system with 2 outputs",
            ),
            (
                FuzzyError::RaggedBatch { len: 7, arity: 3 },
                "an input batch of 7 values is not whole rows of 3",
            ),
            (FuzzyError::EmptyRuleSet, "the rule set is empty"),
            (FuzzyError::NoRuleFired, "no rule fired for the given inputs"),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_std_error(_: &dyn std::error::Error) {}
        takes_std_error(&FuzzyError::EmptyRuleSet);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(FuzzyError::EmptyRuleSet, FuzzyError::EmptyRuleSet);
        assert_ne!(
            FuzzyError::EmptyRuleSet,
            FuzzyError::EmptySystem { what: "inputs" }
        );
    }
}
