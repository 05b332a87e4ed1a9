//! Static validation of one rule: safety, range restriction, comparison
//! typing.

use std::fmt;

use qc_constraints::CompOp;

use crate::{Comparison, Const, Rule, Term, Var};

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A head variable does not appear in any relational body atom
    /// (violates safety, §2.1: "every variable that appears in the head
    /// must also appear in the body").
    UnsafeHeadVar {
        /// The offending rule (display form).
        rule: String,
        /// The unsafe variable.
        var: Var,
    },
    /// A comparison variable does not appear in any relational body atom
    /// (violates the range restriction of §2.1).
    UnrestrictedComparisonVar {
        /// The offending rule (display form).
        rule: String,
        /// The unrestricted variable.
        var: Var,
    },
    /// An ordering comparison (`<`, `<=`, `>`, `>=`) has a non-numeric,
    /// non-variable operand.
    IllTypedComparison {
        /// The offending rule (display form).
        rule: String,
        /// The offending comparison (display form).
        comparison: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnsafeHeadVar { rule, var } => {
                write!(f, "unsafe rule (head variable {var} not in body): {rule}")
            }
            ValidationError::UnrestrictedComparisonVar { rule, var } => write!(
                f,
                "comparison variable {var} does not appear in an ordinary subgoal: {rule}"
            ),
            ValidationError::IllTypedComparison { rule, comparison } => write!(
                f,
                "ordering comparison over non-numeric operand ({comparison}): {rule}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

fn comparison_well_typed(c: &Comparison) -> bool {
    let operand_ok = |t: &Term| match t {
        Term::Var(_) => true,
        Term::Const(Const::Num(_)) => true,
        Term::Const(Const::Sym(_)) => matches!(c.op, CompOp::Eq | CompOp::Ne),
        Term::App(..) => false,
    };
    operand_ok(&c.lhs) && operand_ok(&c.rhs)
}

/// Validates a single rule: safety, range restriction, comparison typing.
pub fn validate_rule(rule: &Rule) -> Result<(), ValidationError> {
    let body_vars = rule.positive_body_vars();
    for v in rule.head.vars() {
        if !body_vars.contains(&v) {
            return Err(ValidationError::UnsafeHeadVar {
                rule: rule.to_string(),
                var: v,
            });
        }
    }
    for c in rule.body_comparisons() {
        for v in c.vars() {
            if !body_vars.contains(&v) {
                return Err(ValidationError::UnrestrictedComparisonVar {
                    rule: rule.to_string(),
                    var: v,
                });
            }
        }
        if !comparison_well_typed(c) {
            return Err(ValidationError::IllTypedComparison {
                rule: rule.to_string(),
                comparison: c.to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rule;

    #[test]
    fn safe_rule_passes() {
        let r = parse_rule("q(X) :- r(X, Y), Y < 1970.").unwrap();
        assert!(validate_rule(&r).is_ok());
    }

    #[test]
    fn unsafe_head_var() {
        let r = parse_rule("q(X, W) :- r(X, Y).").unwrap();
        assert!(matches!(
            validate_rule(&r),
            Err(ValidationError::UnsafeHeadVar { var, .. }) if var == Var::new("W")
        ));
    }

    #[test]
    fn ground_facts_are_safe() {
        let r = parse_rule("p(1, red).").unwrap();
        assert!(validate_rule(&r).is_ok());
    }

    #[test]
    fn unrestricted_comparison_var() {
        let r = parse_rule("q(X) :- r(X), Z < 1970.").unwrap();
        assert!(matches!(
            validate_rule(&r),
            Err(ValidationError::UnrestrictedComparisonVar { var, .. }) if var == Var::new("Z")
        ));
    }

    #[test]
    fn ordering_over_symbol_rejected() {
        let r = parse_rule("q(X) :- r(X), X < red.").unwrap();
        assert!(matches!(
            validate_rule(&r),
            Err(ValidationError::IllTypedComparison { .. })
        ));
        // Equality over symbols is fine.
        let r2 = parse_rule("q(X) :- r(X), X != red.").unwrap();
        assert!(validate_rule(&r2).is_ok());
    }
}
