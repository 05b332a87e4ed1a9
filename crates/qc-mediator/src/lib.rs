//! LAV data integration and relative query containment — the paper's
//! contribution.
//!
//! A data integration system exposes a virtual *mediated schema*; data
//! lives in *sources* described (local-as-view) as views over that schema
//! (§2.2 of the paper). This crate implements:
//!
//! * [`schema`] — source descriptions, open/closed world, binding-pattern
//!   adornments, and the input gate ([`check_input`]) that holds every
//!   well-formedness rule and that every entry point runs first;
//! * [`analysis`] — source-set analysis: losslessness, coverage, source
//!   redundancy, relative-equivalence classes (§1's "coverage and
//!   limitations" use case);
//! * [`catalog`] — a mutable, epoch-versioned compiled catalog with
//!   delta-maintained inverse rules (the live-churn setting of §1);
//! * [`mod@inverse_rules`] — the inverse-rules algorithm of Duschka,
//!   Genesereth and Levy (\[15\] in the paper) constructing
//!   maximally-contained query plans (reproduces Example 2): the one
//!   planner behind every plan the crate builds;
//! * [`fn_elim`] — elimination of the Skolem function terms those plans
//!   contain (reproduces Example 3);
//! * [`expansion`] — the plan expansion `P ↦ P^exp` (§2.3);
//! * [`minicon`] — a MiniCon-style rewriting algorithm: the reference
//!   construction of maximally-contained plans the tests check the
//!   inverse-rule plans against, with no production caller;
//! * [`enumerate`] — the literal Theorem 3.1 procedure: bounded candidate
//!   plan enumeration, a third independent plan construction;
//! * [`certain`] — certain answers (Definition 2.1): plan-based
//!   evaluation plus a brute-force oracle that also covers closed-world
//!   sources (reproduces Example 5);
//! * [`binding`] — binding-pattern limitations (§4): executability,
//!   recursive executable plans with `dom` rules, reachable certain
//!   answers (Definitions 4.1–4.4);
//! * [`relative`] — **relative containment** (Definitions 2.4 and 4.5):
//!   one [`decide`] over a [`Question`] runs the decision procedures of
//!   Theorems 3.1, 3.2, 4.1/4.2, 5.1, 5.2/5.3; it also holds Theorem
//!   5.1's semi-interval plan construction (inverse-rule skeletons plus
//!   the constraint completion sketched in its proof);
//! * [`gav`] — the global-as-view corollary (§1, §6);
//! * [`reductions`] — the Π₂ᵖ-hardness reduction of Theorem 3.3 and the
//!   Aho–Sagiv–Ullman NP-hardness reduction \[3\], used as workload
//!   generators and correctness oracles;
//! * [`workloads`] — random query/view/instance generators for property
//!   tests and benchmarks.
//!
//! ```
//! use qc_datalog::{parse_program, Symbol};
//! use qc_mediator::schema::LavSetting;
//! use qc_mediator::relative::relatively_contained;
//!
//! let views = LavSetting::parse(&[
//!     "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
//! ]).unwrap();
//! let q_any = parse_program("qa(M, R) :- Review(M, R, S).").unwrap();
//! let q_top = parse_program("qt(M, R) :- Review(M, R, 10).").unwrap();
//! // Only top-rated reviews are retrievable, so the unrestricted query is
//! // contained in the top-rated one *relative to this source* — though
//! // classically it is strictly larger.
//! assert!(relatively_contained(
//!     &q_any, &Symbol::new("qa"), &q_top, &Symbol::new("qt"), &views).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod binding;
pub mod catalog;
pub mod certain;
pub mod enumerate;
pub mod expansion;
pub mod fn_elim;
pub mod gav;
pub mod inverse_rules;
pub mod minicon;
pub mod reductions;
pub mod relative;
pub mod schema;
pub mod workloads;

pub use binding::{executable_plan, is_executable_rule, reachable_certain_answers};
pub use catalog::{CatalogDelta, CatalogError, CatalogOp, CompiledCatalog, DeltaReport};
pub use certain::{certain_answers, BruteForceOracle, World};
pub use expansion::{expand_program, expand_ucq};
pub use fn_elim::eliminate_function_terms;
pub use inverse_rules::{inverse_rules, max_contained_plan};
pub use relative::{
    decide, relatively_contained, relatively_equivalent, Decision, Question, Sources,
};
pub use schema::{check_input, Adornment, InputError, LavSetting, SourceDescription};
