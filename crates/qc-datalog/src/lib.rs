//! Datalog substrate for the PODS 2000 reproduction.
//!
//! This crate provides everything the containment and data-integration
//! layers need from "a datalog implementation":
//!
//! * the AST — [`Symbol`], [`Const`], [`Var`], [`Term`] (including the
//!   function terms produced by the inverse-rules algorithm), [`Atom`],
//!   [`Comparison`], [`Literal`], [`Rule`], [`Program`];
//! * query forms — [`ConjunctiveQuery`] and unions of conjunctive queries
//!   ([`Ucq`]);
//! * a hand-written recursive-descent parser for the paper's surface
//!   syntax (`q(X, Y) :- r(X, Z), s(Z, Y), Y < 1970.`);
//! * validation — rule safety, range restriction for comparison variables,
//!   arity discipline (§2.1 of the paper);
//! * substitutions, one-way matching, and most-general unification;
//! * program analysis — dependency graph, recursion detection, and
//!   unfolding of nonrecursive programs into unions of conjunctive queries;
//! * a bottom-up [`eval`] engine (naive and semi-naive) over in-memory
//!   [`Database`]s, with comparison-literal filtering, function-term
//!   construction, and optional provenance tracing.
//!
//! ```
//! use qc_datalog::{parse_program, Database, Symbol};
//! use qc_datalog::eval::{answers, EvalOptions};
//!
//! let program = parse_program(
//!     "path(X, Y) :- edge(X, Y).
//!      path(X, Z) :- path(X, Y), edge(Y, Z).",
//! )?;
//! let db = Database::parse("edge(a, b). edge(b, c).")?;
//! let rel = answers(&program, &db, &Symbol::new("path"), &EvalOptions::default()).unwrap();
//! assert_eq!(rel.len(), 3); // a->b, b->c, a->c
//! # Ok::<(), qc_datalog::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod database;
pub mod eval;
pub use qc_obs::fx;
mod parser;
mod program;
mod query;
mod ra;
mod rule;
mod subst;
mod symbol;
mod term;
mod validate;
pub mod value;

pub use atom::{Atom, Comparison, Literal};
pub use database::{Database, Relation, Tuple};
pub use parser::{parse_program, parse_query, parse_rule, parse_term, ParseError};
pub use program::{DependencyGraph, Program, UnfoldError};
pub use query::{ConjunctiveQuery, Ucq, UcqError};
pub use rule::Rule;
pub use subst::{unify_atoms, unify_terms, unify_terms_with, Subst, VarGen};
pub use symbol::{interner_stats, InternerStats, Symbol};
pub use term::{Const, Term, Var};
pub use validate::{validate_rule, ValidationError};

/// Re-export of the comparison operator type shared with `qc-constraints`.
pub use qc_constraints::CompOp;
/// Re-export of the rational constant type shared with `qc-constraints`.
pub use qc_constraints::Rat;
