//! Query containment procedures.
//!
//! This crate implements the classical containment tests the paper builds
//! on, plus the decision procedure its decidability theorems require:
//!
//! * [`homomorphism`] — containment mappings (Chandra–Merlin): the
//!   NP-complete conjunctive-query containment baseline (§1 of the paper
//!   contrasts it with the Π₂ᵖ-complete relative containment problem);
//! * [`cq`] — CQ ⊆ CQ, CQ ⊆ UCQ, UCQ ⊆ UCQ (Sagiv–Yannakakis), and CQ
//!   minimization (core computation);
//! * [`comparisons`] — the complete containment test for queries with
//!   comparison predicates over a dense order (Klug; van der Meyden),
//!   by enumeration of linearizations, with a sound entailment-based fast
//!   path — the engine behind Theorems 5.1 and 5.3;
//! * [`canonical`] — canonical (frozen) databases, and the *easy*
//!   direction UCQ ⊆ datalog by freezing and evaluating;
//! * [`datalog_ucq`] — the decision procedure for *datalog ⊆ UCQ*
//!   (containment of a recursive program in a nonrecursive one,
//!   Chaudhuri–Vardi \[11\]), implemented as a least fixpoint over finite
//!   "coverage types" — the engine behind Theorems 3.2 and 4.2;
//! * [`witness`] — bounded search for counterexample expansions, the
//!   concrete refutations behind a failed datalog ⊆ UCQ containment.
//!
//! ```
//! use qc_containment::cq_contained;
//! use qc_datalog::parse_query;
//!
//! // The paper's classical claim: Q2 (rating pinned to 10) ⊆ Q1.
//! let q1 = parse_query(
//!     "q1(C, R) :- CarDesc(C, M, Col, Y), Review(M, R, Rating).")?;
//! let q2 = parse_query(
//!     "q2(C, R) :- CarDesc(C, M, Col, Y), Review(M, R, 10).")?;
//! assert!(cq_contained(&q2, &q1));
//! assert!(!cq_contained(&q1, &q2));
//! # Ok::<(), qc_datalog::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod comparisons;
pub mod cq;
pub mod datalog_ucq;
pub mod engine;
pub mod homomorphism;
pub mod memo;
pub mod witness;

pub use comparisons::cq_contained_in_ucq;
pub use cq::{
    cq_contained, cq_equivalent, minimize, minimize_union, ucq_contained, ucq_equivalent,
};
pub use datalog_ucq::{datalog_contained_in_ucq, DatalogUcqError};
pub use engine::EngineOptions;
pub use homomorphism::{containment_mapping, for_each_containment_mapping, Mapping};
pub use memo::cq_contained_memo;
