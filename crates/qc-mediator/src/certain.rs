//! Certain answers (Definition 2.1 of the paper).
//!
//! Plan-based computation: evaluate the maximally-contained plan over the
//! source instance, discarding answers that carry Skolem terms (labelled
//! nulls) — equivalently, evaluate the function-term-eliminated plan.
//!
//! A brute-force oracle enumerates every database over a bounded active
//! domain and intersects query answers across the consistent ones. It is
//! exponential, but it is the *semantics itself*, so it validates the
//! plan-based route, and it handles the cases where no datalog plan can
//! exist: closed-world (complete) sources — reproducing Example 5 — and
//! queries with comparisons (both co-NP-hard per §2.3).

use std::collections::BTreeSet;
use std::fmt;

use qc_datalog::eval::{answers, EvalError, EvalOptions};
use qc_datalog::{Database, Program, Relation, Symbol, Term, Tuple};

use crate::fn_elim::{eliminate_function_terms, FnElimError};
use crate::inverse_rules::max_contained_plan;
use crate::schema::{check_input, InputError, LavSetting};

/// Open- vs closed-world interpretation of sources (§2.2: incomplete vs
/// complete sources; \[1\] calls these OWA/CWA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// Sources are incomplete: `v(I) ⊆ view(D)` (the paper's default).
    Open,
    /// Per-source as declared: complete sources require `v(I) = view(D)`.
    AsDeclared,
}

/// Errors computing certain answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertainError {
    /// The input is not well formed ([`check_input`]).
    Input(InputError),
    /// Plan evaluation failed.
    Eval(EvalError),
    /// Function-term elimination failed.
    FnElim(FnElimError),
}

impl fmt::Display for CertainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertainError::Input(e) => write!(f, "{e}"),
            CertainError::Eval(e) => write!(f, "evaluation: {e}"),
            CertainError::FnElim(e) => write!(f, "function-term elimination: {e}"),
        }
    }
}

impl CertainError {
    /// Returns the underlying [`qc_guard::ResourceError`] when this error
    /// records resource exhaustion (budget, deadline, or cancellation) in
    /// any wrapped stage, mirroring `RelativeError::resource`.
    pub fn resource(&self) -> Option<&qc_guard::ResourceError> {
        match self {
            CertainError::Eval(EvalError::Resource(e)) => Some(e),
            CertainError::FnElim(FnElimError::Resource(e)) => Some(e),
            _ => None,
        }
    }
}

impl std::error::Error for CertainError {}

impl From<EvalError> for CertainError {
    fn from(e: EvalError) -> CertainError {
        CertainError::Eval(e)
    }
}

impl From<FnElimError> for CertainError {
    fn from(e: FnElimError) -> CertainError {
        CertainError::FnElim(e)
    }
}

impl From<InputError> for CertainError {
    fn from(e: InputError) -> CertainError {
        CertainError::Input(e)
    }
}

/// Computes the certain answers of a comparison-free datalog query over
/// incomplete conjunctive sources by evaluating the maximally-contained
/// plan (inverse rules, \[15\]) and discarding null-carrying tuples.
pub fn certain_answers(
    query: &Program,
    answer: &Symbol,
    views: &LavSetting,
    instance: &Database,
    opts: &EvalOptions,
) -> Result<Relation, CertainError> {
    check_input(&[(query, answer)], &views.sources, Some(instance))?;
    let plan = max_contained_plan(query, views);
    Ok(answers(&plan, instance, answer, opts)?.without_nulls())
}

/// Same as [`certain_answers`], but through function-term elimination
/// (the two routes agree; both are exercised by tests and by ablation
/// experiment E9).
pub fn certain_answers_via_elimination(
    query: &Program,
    answer: &Symbol,
    views: &LavSetting,
    instance: &Database,
    opts: &EvalOptions,
) -> Result<Relation, CertainError> {
    check_input(&[(query, answer)], &views.sources, Some(instance))?;
    let plan = eliminate_function_terms(&max_contained_plan(query, views))?;
    Ok(answers(&plan, instance, answer, opts)?)
}

/// Explains a certain answer: the *source facts* that support it, traced
/// through the maximally-contained plan's derivation. Returns `None` if
/// the tuple is not a certain answer over the instance.
///
/// ```
/// use qc_datalog::eval::EvalOptions;
/// use qc_datalog::{parse_program, Database, Symbol, Term};
/// use qc_mediator::certain::certain_answer_support;
/// use qc_mediator::schema::LavSetting;
///
/// let views = LavSetting::parse(&["V(A, B) :- p(A, B)."]).unwrap();
/// let q = parse_program("q(X) :- p(X, Y).").unwrap();
/// let db = Database::parse("V(a, b). V(c, d).").unwrap();
/// let support = certain_answer_support(
///     &q, &Symbol::new("q"), &views, &db,
///     &vec![Term::sym("a")], &EvalOptions::default(),
/// ).unwrap().expect("is a certain answer");
/// assert_eq!(support, vec![(Symbol::new("V"), vec![Term::sym("a"), Term::sym("b")])]);
/// ```
pub fn certain_answer_support(
    query: &Program,
    answer: &Symbol,
    views: &LavSetting,
    instance: &Database,
    tuple: &Tuple,
    opts: &EvalOptions,
) -> Result<Option<Vec<(Symbol, Tuple)>>, CertainError> {
    check_input(&[(query, answer)], &views.sources, Some(instance))?;
    let plan = eliminate_function_terms(&max_contained_plan(query, views))?;
    let (idb, trace) = qc_datalog::eval::evaluate_traced(&plan, instance, opts)?;
    if !idb.relation(answer).is_some_and(|r| r.contains(tuple)) {
        return Ok(None);
    }
    Ok(Some(trace.support(answer, tuple)))
}

/// The brute-force certain-answer oracle: enumerates all databases over a
/// fixed active domain.
#[derive(Debug, Clone)]
pub struct BruteForceOracle {
    /// The active domain to build candidate databases over.
    pub domain: Vec<Term>,
    /// World assumption.
    pub world: World,
    /// Upper bound on candidate facts (enumeration is `2^facts`).
    pub max_facts: usize,
}

/// Result of the brute-force oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleAnswer {
    /// The set of certain answers (over the oracle's domain).
    Certain(BTreeSet<Tuple>),
    /// No database over the domain is consistent with the instance, so
    /// every tuple is (vacuously) certain.
    Inconsistent,
}

impl BruteForceOracle {
    /// Creates an oracle over a domain of symbolic constants `a`, `b`, ….
    pub fn with_symbols(names: &[&str], world: World) -> BruteForceOracle {
        BruteForceOracle {
            domain: names.iter().map(|n| Term::sym(*n)).collect(),
            world,
            max_facts: 24,
        }
    }

    /// Creates an oracle over a domain of integer constants — needed when
    /// the query or views carry comparison predicates (the co-NP-hard
    /// case of §2.3, where no polynomial plan exists in general).
    pub fn with_ints(values: &[i64], world: World) -> BruteForceOracle {
        BruteForceOracle {
            domain: values.iter().map(|&n| Term::int(n)).collect(),
            world,
            max_facts: 24,
        }
    }

    /// Computes certain answers of `query` w.r.t. the source `instance`,
    /// quantifying over every database `D` over the domain with
    /// `I ⊆ V(D)` (open) or `I = V(D)` for complete sources.
    ///
    /// # Panics
    /// Panics if the candidate-fact count exceeds `max_facts`.
    pub fn certain(
        &self,
        query: &Program,
        answer: &Symbol,
        views: &LavSetting,
        instance: &Database,
        opts: &EvalOptions,
    ) -> Result<OracleAnswer, CertainError> {
        // Mediated-schema relations: the EDB predicates of the view
        // definitions (plus those of the query).
        let mut preds: Vec<(Symbol, usize)> = Vec::new();
        let note = |pred: &Symbol, arity: usize, preds: &mut Vec<(Symbol, usize)>| {
            if !preds.iter().any(|(p, _)| p == pred) {
                preds.push((*pred, arity));
            }
        };
        for s in &views.sources {
            for a in &s.view.subgoals {
                note(&a.pred, a.arity(), &mut preds);
            }
        }
        for r in query.rules() {
            for a in r.body_atoms() {
                if !query.idb_preds().contains(&a.pred) {
                    note(&a.pred, a.arity(), &mut preds);
                }
            }
        }

        // Candidate facts: all tuples over the domain for each relation.
        let mut facts: Vec<(Symbol, Tuple)> = Vec::new();
        for (pred, arity) in &preds {
            let mut tuple = vec![0usize; *arity];
            loop {
                facts.push((
                    *pred,
                    tuple.iter().map(|&i| self.domain[i].clone()).collect(),
                ));
                // Odometer increment.
                let mut k = 0;
                loop {
                    if k == *arity {
                        break;
                    }
                    tuple[k] += 1;
                    if tuple[k] < self.domain.len() {
                        break;
                    }
                    tuple[k] = 0;
                    k += 1;
                }
                if k == *arity {
                    break;
                }
            }
        }
        assert!(
            facts.len() <= self.max_facts,
            "brute-force oracle over {} candidate facts (limit {})",
            facts.len(),
            self.max_facts
        );

        let mut certain: Option<BTreeSet<Tuple>> = None;
        let view_prog = Program::new(
            views
                .sources
                .iter()
                .map(|s| s.view.to_rule())
                .collect::<Vec<_>>(),
        );
        for mask in 0u64..(1u64 << facts.len()) {
            let mut db = Database::new();
            for (i, (pred, tuple)) in facts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    db.insert(pred.as_str(), tuple.clone());
                }
            }
            // Consistency: evaluate the view definitions over D.
            let views_of_d = qc_datalog::eval::evaluate(&view_prog, &db, opts)?;
            let mut consistent = true;
            for s in &views.sources {
                let derived = views_of_d.relation(&s.name).cloned().unwrap_or_default();
                let stored = instance.relation(&s.name).cloned().unwrap_or_default();
                let sound = stored.tuples().iter().all(|t| derived.contains(t));
                let closed = match (self.world, s.complete) {
                    (World::AsDeclared, true) => {
                        derived.tuples().iter().all(|t| stored.contains(t))
                    }
                    _ => true,
                };
                if !(sound && closed) {
                    consistent = false;
                    break;
                }
            }
            if !consistent {
                continue;
            }
            let ans = answers(query, &db, answer, opts)?;
            let set: BTreeSet<Tuple> = ans.tuples().iter().cloned().collect();
            certain = Some(match certain {
                None => set,
                Some(prev) => prev.intersection(&set).cloned().collect(),
            });
            if let Some(c) = &certain {
                if c.is_empty() {
                    break; // cannot shrink further
                }
            }
        }
        Ok(match certain {
            Some(set) => OracleAnswer::Certain(set),
            None => OracleAnswer::Inconsistent,
        })
    }
}

/// Searches for a source instance over the oracle's domain witnessing
/// `certain(Q1, I) ⊄ certain(Q2, I)` — a counterexample to relative
/// containment under the oracle's world assumption.
///
/// Relative containment under **complete** sources is an open problem in
/// the paper (§6); this bounded search is the tool the paper's own
/// Example 5 argument uses implicitly: it finds `I = {v1(a), v2(b)}` for
/// that example. Returns the witness instance and tuple, or `None` if no
/// counterexample exists over the domain (which decides nothing).
///
/// Exponential twice over (instances × databases); keep domains tiny.
pub fn find_containment_counterexample(
    oracle: &BruteForceOracle,
    q1: &Program,
    ans1: &Symbol,
    q2: &Program,
    ans2: &Symbol,
    views: &LavSetting,
    opts: &EvalOptions,
) -> Result<Option<(Database, Tuple)>, CertainError> {
    // Candidate source tuples over the domain.
    let mut slots: Vec<(Symbol, Tuple)> = Vec::new();
    for s in &views.sources {
        let arity = s.view.head.arity();
        let mut idx = vec![0usize; arity];
        loop {
            slots.push((
                s.name,
                idx.iter().map(|&i| oracle.domain[i].clone()).collect(),
            ));
            let mut k = 0;
            loop {
                if k == arity {
                    break;
                }
                idx[k] += 1;
                if idx[k] < oracle.domain.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == arity {
                break;
            }
        }
    }
    assert!(
        slots.len() <= 16,
        "counterexample search over {} candidate source tuples (limit 16)",
        slots.len()
    );
    for mask in 0u64..(1u64 << slots.len()) {
        let mut instance = Database::new();
        for (i, (pred, tuple)) in slots.iter().enumerate() {
            if mask & (1 << i) != 0 {
                instance.insert(pred.as_str(), tuple.clone());
            }
        }
        let c1 = oracle.certain(q1, ans1, views, &instance, opts)?;
        let c2 = oracle.certain(q2, ans2, views, &instance, opts)?;
        match (c1, c2) {
            (OracleAnswer::Certain(a1), OracleAnswer::Certain(a2)) => {
                if let Some(t) = a1.difference(&a2).next() {
                    return Ok(Some((instance, t.clone())));
                }
            }
            // Q1's side vacuously certain of *everything* (no consistent
            // database) while Q2's side is finite: a violation; witness
            // with an arbitrary domain tuple of the answer arity.
            (OracleAnswer::Inconsistent, OracleAnswer::Certain(a2)) => {
                let arity = q1
                    .rules_for(ans1)
                    .next()
                    .map(|r| r.head.arity())
                    .unwrap_or(0);
                let t: Tuple = (0..arity).map(|_| oracle.domain[0].clone()).collect();
                if !a2.contains(&t) {
                    return Ok(Some((instance, t)));
                }
            }
            // Q2's side is vacuously everything: never a violation.
            (_, OracleAnswer::Inconsistent) => {}
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::example1_sources;
    use qc_datalog::parse_program;

    fn opts() -> EvalOptions {
        EvalOptions::default()
    }

    #[test]
    fn example1_certain_answers_of_q1_and_q2_agree() {
        // "the two queries return the same certain answers."
        let views = example1_sources();
        let q1 = parse_program(
            "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
        )
        .unwrap();
        let q2 = parse_program(
            "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
        )
        .unwrap();
        let db = Database::parse(
            "RedCars(c1, corolla, 1988). AntiqueCars(c2, ford, 1960).
             CarAndDriver(corolla, nice). CarAndDriver(ford, classic).",
        )
        .unwrap();
        let a1 = certain_answers(&q1, &Symbol::new("q1"), &views, &db, &opts()).unwrap();
        let a2 = certain_answers(&q2, &Symbol::new("q2"), &views, &db, &opts()).unwrap();
        assert_eq!(a1.len(), 2);
        let t1: BTreeSet<_> = a1.tuples().iter().cloned().collect();
        let t2: BTreeSet<_> = a2.tuples().iter().cloned().collect();
        assert_eq!(t1, t2);
        // Q3 only returns the antique car's review.
        let q3 = parse_program(
            "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
        )
        .unwrap();
        let a3 = certain_answers(&q3, &Symbol::new("q3"), &views, &db, &opts()).unwrap();
        assert_eq!(a3.len(), 1);
        assert!(a3.contains(&vec![Term::sym("c2"), Term::sym("classic")]));
    }

    #[test]
    fn plan_route_and_elimination_route_agree() {
        let views = example1_sources();
        let q1 = parse_program(
            "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
        )
        .unwrap();
        let db = Database::parse(
            "RedCars(c1, corolla, 1988). CarAndDriver(corolla, nice). AntiqueCars(c2, ford, 1950).",
        )
        .unwrap();
        let a = certain_answers(&q1, &Symbol::new("q1"), &views, &db, &opts()).unwrap();
        let b =
            certain_answers_via_elimination(&q1, &Symbol::new("q1"), &views, &db, &opts()).unwrap();
        let sa: BTreeSet<_> = a.tuples().iter().cloned().collect();
        let sb: BTreeSet<_> = b.tuples().iter().cloned().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn nulls_are_not_answers() {
        // A query projecting the Skolemized color column has no certain
        // answers from AntiqueCars.
        let views = example1_sources();
        let q = parse_program("q(Color) :- CarDesc(CarNo, Model, Color, Y).").unwrap();
        let db = Database::parse("AntiqueCars(c2, ford, 1950).").unwrap();
        let a = certain_answers(&q, &Symbol::new("q"), &views, &db, &opts()).unwrap();
        assert!(a.is_empty());
        // But from RedCars the color is known.
        let db2 = Database::parse("RedCars(c1, corolla, 1988).").unwrap();
        let a2 = certain_answers(&q, &Symbol::new("q"), &views, &db2, &opts()).unwrap();
        assert!(a2.contains(&vec![Term::sym("red")]));
    }

    #[test]
    fn example5_open_world() {
        // Example 5: under incomplete sources, Q1 has no certain answers
        // from v1, v2 alone.
        let views = LavSetting::parse(&[
            "v1(X) :- p(X, Y).",
            "v2(Y) :- p(X, Y).",
            "v3(X, Y) :- p(X, Y), r(X, Y).",
        ])
        .unwrap();
        let q1 = parse_program("q1(X, Y) :- p(X, Y).").unwrap();
        let db = Database::parse("v1(a). v2(b).").unwrap();
        let oracle = BruteForceOracle::with_symbols(&["a", "b"], World::Open);
        let got = oracle
            .certain(&q1, &Symbol::new("q1"), &views, &db, &opts())
            .unwrap();
        assert_eq!(got, OracleAnswer::Certain(BTreeSet::new()));
        // Plan-based route agrees.
        let plan_based = certain_answers(&q1, &Symbol::new("q1"), &views, &db, &opts()).unwrap();
        assert!(plan_based.is_empty());
    }

    #[test]
    fn example5_closed_world() {
        // With v1 and v2 complete, p(a, b) is forced: (a, b) is certain
        // for Q1, while Q2 (over r) still has none.
        let mut views = LavSetting::parse(&[
            "v1(X) :- p(X, Y).",
            "v2(Y) :- p(X, Y).",
            "v3(X, Y) :- p(X, Y), r(X, Y).",
        ])
        .unwrap();
        views.sources[0].complete = true;
        views.sources[1].complete = true;
        let db = Database::parse("v1(a). v2(b).").unwrap();
        let oracle = BruteForceOracle::with_symbols(&["a", "b"], World::AsDeclared);
        let q1 = parse_program("q1(X, Y) :- p(X, Y).").unwrap();
        let got = oracle
            .certain(&q1, &Symbol::new("q1"), &views, &db, &opts())
            .unwrap();
        let expected: BTreeSet<Tuple> =
            [vec![Term::sym("a"), Term::sym("b")]].into_iter().collect();
        assert_eq!(got, OracleAnswer::Certain(expected));
        let q2 = parse_program("q2(X, Y) :- r(X, Y).").unwrap();
        let got2 = oracle
            .certain(&q2, &Symbol::new("q2"), &views, &db, &opts())
            .unwrap();
        assert_eq!(got2, OracleAnswer::Certain(BTreeSet::new()));
    }

    #[test]
    fn oracle_agrees_with_plan_on_small_cases() {
        let views = LavSetting::parse(&["v(X, Y) :- p(X, Y)."]).unwrap();
        let q = parse_program("q(X) :- p(X, Y).").unwrap();
        let db = Database::parse("v(a, b).").unwrap();
        let oracle = BruteForceOracle::with_symbols(&["a", "b"], World::Open);
        let got = oracle
            .certain(&q, &Symbol::new("q"), &views, &db, &opts())
            .unwrap();
        let plan = certain_answers(&q, &Symbol::new("q"), &views, &db, &opts()).unwrap();
        let plan_set: BTreeSet<Tuple> = plan.tuples().iter().cloned().collect();
        assert_eq!(got, OracleAnswer::Certain(plan_set));
    }

    #[test]
    fn recursive_queries_have_certain_answers() {
        // "the maximally-contained query plan of a recursive query is
        // recursive" (§2.3) — and evaluates fine.
        let views = LavSetting::parse(&["Flights(A, B) :- flight(A, B)."]).unwrap();
        let q = parse_program(
            "reach(X, Y) :- flight(X, Y).
             reach(X, Z) :- reach(X, Y), flight(Y, Z).",
        )
        .unwrap();
        let db =
            Database::parse("Flights(sea, sfo). Flights(sfo, jfk). Flights(jfk, lhr).").unwrap();
        let ans = certain_answers(&q, &Symbol::new("reach"), &views, &db, &opts()).unwrap();
        assert_eq!(ans.len(), 6);
        assert!(ans.contains(&vec![Term::sym("sea"), Term::sym("lhr")]));
        // With a projecting view the join column is a null: only direct
        // flights are certain... actually not even those (the column is
        // projected). Departures-only view:
        let vp = LavSetting::parse(&["Departures(A) :- flight(A, B)."]).unwrap();
        let ans = certain_answers(&q, &Symbol::new("reach"), &vp, &db, &opts()).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn numeric_oracle_handles_comparison_queries() {
        // View guarantees Year < 1970; the oracle (over a numeric domain)
        // confirms that a comparison query's certain answers respect it.
        let views = LavSetting::parse(&["Old(C, Y) :- car(C, Y), Y < 3."]).unwrap();
        let q = parse_program("q(C) :- car(C, Y), Y < 5.").unwrap();
        let db = Database::parse("Old(1, 2).").unwrap();
        let oracle = BruteForceOracle::with_ints(&[1, 2], World::Open);
        let got = oracle
            .certain(&q, &Symbol::new("q"), &views, &db, &opts())
            .unwrap();
        // car(1, 2) is forced (up to the domain); 2 < 5 holds, so 1 is
        // certain.
        let expected: BTreeSet<Tuple> = [vec![Term::int(1)]].into_iter().collect();
        assert_eq!(got, OracleAnswer::Certain(expected));
        // A query demanding Y < 2 is NOT certain: car(1, 2) suffices for
        // the source, and 2 < 2 fails.
        let q2 = parse_program("q2(C) :- car(C, Y), Y < 2.").unwrap();
        let got2 = oracle
            .certain(&q2, &Symbol::new("q2"), &views, &db, &opts())
            .unwrap();
        assert_eq!(got2, OracleAnswer::Certain(BTreeSet::new()));
    }

    #[test]
    fn inconsistent_instance_detected() {
        // A complete empty source contradicts a derived view tuple when
        // the *other* source forces p nonempty... simplest: complete v
        // with a stored tuple that the view cannot produce (v defined
        // over p with both columns equal).
        let mut views = LavSetting::parse(&["v(X, X) :- p(X, X)."]).unwrap();
        views.sources[0].complete = true;
        let q = parse_program("q(X) :- p(X, X).").unwrap();
        let db = Database::parse("v(a, b).").unwrap();
        let oracle = BruteForceOracle::with_symbols(&["a", "b"], World::AsDeclared);
        let got = oracle
            .certain(&q, &Symbol::new("q"), &views, &db, &opts())
            .unwrap();
        assert_eq!(got, OracleAnswer::Inconsistent);
    }
}
