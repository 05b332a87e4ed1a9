//! `relcont` — Relative query containment for data integration systems.
//!
//! Facade crate re-exporting the workspace libraries. See the README and
//! `DESIGN.md` for the architecture; the individual crates are:
//!
//! * [`datalog`] — datalog AST, parser, validation, and evaluation engine;
//! * [`constraints`] — dense-order comparison constraint solver;
//! * [`containment`] — classical query containment procedures;
//! * [`mediator`] — LAV data integration and relative containment (the
//!   paper's contribution);
//! * [`serve`] — supervised containment service: admission control,
//!   degradation ladder, resumable verdicts.
//!
//! The headline API is re-exported at the top level: the boolean
//! [`relatively_contained`], and [`decide`], the one decision procedure
//! behind it, the CLI, the REPL and the service:
//!
//! ```
//! use relcont::{
//!     decide, parse_program, relatively_contained, LavSetting, Question, Sources, Symbol, Verdict,
//! };
//!
//! let views = LavSetting::parse(&[
//!     "CarAndDriver(M, R) :- Review(M, R, 10).",
//! ]).unwrap();
//! let any = parse_program("qa(M, R) :- Review(M, R, S).").unwrap();
//! let top = parse_program("qt(M, R) :- Review(M, R, 10).").unwrap();
//! assert!(relatively_contained(
//!     &any, &Symbol::new("qa"), &top, &Symbol::new("qt"), &views).unwrap());
//!
//! // No source guarantees a rating of 9: the decision names the plan
//! // disjunct whose expansion escapes.
//! let nine = parse_program("q9(M, R) :- Review(M, R, 9).").unwrap();
//! let (qa, q9) = (Symbol::new("qa"), Symbol::new("q9"));
//! let d = decide(&Question::new(&any, &qa, &nine, &q9), Sources::Views(&views)).unwrap();
//! assert_eq!(d.verdict, Verdict::NotContained);
//! assert!(d.witness.unwrap().to_string().contains("CarAndDriver"));
//! ```

pub use qc_constraints as constraints;
pub use qc_containment as containment;
pub use qc_datalog as datalog;
pub use qc_guard as guard;
pub use qc_mediator as mediator;
pub use qc_obs as obs;
pub use qc_serve as serve;

// Ergonomic top-level re-exports of the headline API.
pub use qc_containment::{cq_contained, ucq_contained};
pub use qc_datalog::{parse_program, parse_query, Database, Program, Symbol};
pub use qc_mediator::analysis::{is_lossless, source_coverage, unused_sources};
pub use qc_mediator::certain::certain_answers;
pub use qc_mediator::relative::{
    decide, explain_containment, relatively_contained, relatively_equivalent, ContainmentKind,
    Decision, Question, Sources, Verdict,
};
pub use qc_mediator::schema::LavSetting;
