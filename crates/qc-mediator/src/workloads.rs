//! Random workload generators for property tests and benchmarks.
//!
//! Shapes follow the data-integration literature's usual suspects:
//! *chain* queries (joins along a path), *star* queries (a hub joined to
//! satellites), and random views that project subsets of the query's
//! subgoals — plus random source instances.

use qc_datalog::{Atom, CompOp, Comparison, ConjunctiveQuery, Database, Program, Term};
use rand::Rng;

use crate::schema::{LavSetting, SourceDescription};

/// Workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `q(X0, Xn) :- p1(X0, X1), ..., pn(X{n-1}, Xn)`.
    Chain,
    /// `q(H) :- p1(H, X1), ..., pn(H, Xn)`.
    Star,
}

/// Generates a conjunctive query of the given shape over `npreds` binary
/// predicates `p0..`, with `len` subgoals.
pub fn random_query(
    shape: Shape,
    len: usize,
    npreds: usize,
    rng: &mut impl Rng,
) -> ConjunctiveQuery {
    let mut subgoals = Vec::new();
    match shape {
        Shape::Chain => {
            for i in 0..len {
                let p = rng.gen_range(0..npreds);
                subgoals.push(Atom::new(
                    format!("p{p}"),
                    vec![Term::var(format!("X{i}")), Term::var(format!("X{}", i + 1))],
                ));
            }
            ConjunctiveQuery::new(
                Atom::new("q", vec![Term::var("X0"), Term::var(format!("X{len}"))]),
                subgoals,
                Vec::new(),
            )
        }
        Shape::Star => {
            for i in 0..len {
                let p = rng.gen_range(0..npreds);
                subgoals.push(Atom::new(
                    format!("p{p}"),
                    vec![Term::var("H"), Term::var(format!("X{}", i + 1))],
                ));
            }
            ConjunctiveQuery::new(Atom::new("q", vec![Term::var("H")]), subgoals, Vec::new())
        }
    }
}

/// Generates `nviews` random views over the same binary vocabulary:
/// chains of length 1–3 with a random subset of endpoints exported.
pub fn random_views(nviews: usize, npreds: usize, rng: &mut impl Rng) -> LavSetting {
    let mut sources = Vec::new();
    for v in 0..nviews {
        let len = rng.gen_range(1..=3usize);
        let mut body = Vec::new();
        for i in 0..len {
            let p = rng.gen_range(0..npreds);
            body.push(Atom::new(
                format!("p{p}"),
                vec![Term::var(format!("Z{i}")), Term::var(format!("Z{}", i + 1))],
            ));
        }
        // Export endpoints, and sometimes a middle variable.
        let mut head_vars = vec![Term::var("Z0"), Term::var(format!("Z{len}"))];
        if len > 1 && rng.gen_bool(0.4) {
            head_vars.push(Term::var("Z1"));
        }
        let view = ConjunctiveQuery::new(Atom::new(format!("v{v}"), head_vars), body, Vec::new());
        sources.push(SourceDescription {
            name: view.head.pred,
            view,
            complete: false,
            adornments: Vec::new(),
        });
    }
    LavSetting { sources }
}

/// A random Theorem 5.1 question `(Q1, Q2, views)` over `p0`, `p1`, from
/// one of two families. Every comparison compares a variable with a
/// constant in 0–5.
///
/// * Three draws in four: `Q1` is a chain or star of 1–3 subgoals with 1–2
///   semi-interval comparisons, `Q2` is `Q1`'s relational body with 1–2
///   comparisons of its own, and the 1–4 views are chains of length 1–2,
///   exporting both endpoints, with 0–1 comparisons each.
/// * One in four, a *fan*: `Q1` is a star of 2–4 `p0` subgoals under one
///   head with a lower bound on one of them and an upper bound on
///   another, `Q2` as above, and the 1–3 views are single `p0` subgoals
///   with 0–1 comparisons on their second column. Skeletons then subsume
///   one another, and a subsumed one can be the only one a view's
///   comparison lets complete: a planner that union-minimizes its
///   skeletons loses it.
pub fn random_semi_interval_question(
    rng: &mut impl Rng,
) -> (ConjunctiveQuery, ConjunctiveQuery, LavSetting) {
    if rng.gen_range(0..4) == 0 {
        return fan_question(rng);
    }
    let shape = if rng.gen_bool(0.5) {
        Shape::Chain
    } else {
        Shape::Star
    };
    let relational = random_query(shape, rng.gen_range(1..=3), 2, rng);
    let mut q1 = relational.clone();
    let mut q2 = relational;
    for q in [&mut q1, &mut q2] {
        for _ in 0..rng.gen_range(1..=2) {
            let c = random_semi_interval(q, rng);
            q.comparisons.push(c);
        }
    }
    let mut sources = Vec::new();
    for v in 0..rng.gen_range(1..=4) {
        let len = rng.gen_range(1..=2usize);
        let body = (0..len)
            .map(|i| {
                let p = rng.gen_range(0..2);
                Atom::new(
                    format!("p{p}"),
                    vec![Term::var(format!("Z{i}")), Term::var(format!("Z{}", i + 1))],
                )
            })
            .collect();
        let head = Atom::new(
            format!("v{v}"),
            vec![Term::var("Z0"), Term::var(format!("Z{len}"))],
        );
        let mut view = ConjunctiveQuery::new(head, body, Vec::new());
        if rng.gen_bool(0.5) {
            let c = random_semi_interval(&view, rng);
            view.comparisons.push(c);
        }
        sources.push(source(view));
    }
    (q1, q2, LavSetting { sources })
}

/// The fan family of [`random_semi_interval_question`].
fn fan_question(rng: &mut impl Rng) -> (ConjunctiveQuery, ConjunctiveQuery, LavSetting) {
    let k = rng.gen_range(2..=4usize);
    let x = |i: usize| Term::var(format!("X{i}"));
    let subgoals = (1..=k)
        .map(|i| Atom::new("p0", vec![Term::var("H"), x(i)]))
        .collect();
    let relational = ConjunctiveQuery::new(Atom::new("q", vec![Term::var("H")]), subgoals, vec![]);
    let mut q1 = relational.clone();
    let lower = rng.gen_range(1..=k);
    let upper = (lower + rng.gen_range(1..k) - 1) % k + 1;
    for (i, ops) in [
        (lower, [CompOp::Gt, CompOp::Ge]),
        (upper, [CompOp::Lt, CompOp::Le]),
    ] {
        let op = ops[rng.gen_range(0..2)];
        q1.comparisons
            .push(Comparison::new(x(i), op, Term::int(rng.gen_range(0..=5))));
    }
    let mut q2 = relational;
    for _ in 0..rng.gen_range(1..=2) {
        let c = random_semi_interval(&q2, rng);
        q2.comparisons.push(c);
    }
    let sources = (0..rng.gen_range(1..=3))
        .map(|v| {
            let head = Atom::new(format!("v{v}"), vec![Term::var("Z0"), Term::var("Z1")]);
            let body = vec![Atom::new("p0", vec![Term::var("Z0"), Term::var("Z1")])];
            let mut view = ConjunctiveQuery::new(head, body, Vec::new());
            if rng.gen_bool(0.5) {
                let op = [CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge][rng.gen_range(0..4)];
                view.comparisons.push(Comparison::new(
                    Term::var("Z1"),
                    op,
                    Term::int(rng.gen_range(0..=5)),
                ));
            }
            source(view)
        })
        .collect();
    (q1, q2, LavSetting { sources })
}

/// An incomplete, unadorned source exporting `view`.
fn source(view: ConjunctiveQuery) -> SourceDescription {
    SourceDescription {
        name: view.head.pred,
        view,
        complete: false,
        adornments: Vec::new(),
    }
}

/// `X op c` for a variable `X` of `q`'s subgoals, `op` one of `<`, `<=`,
/// `>`, `>=` and `c` in 0–5.
fn random_semi_interval(q: &ConjunctiveQuery, rng: &mut impl Rng) -> Comparison {
    // Subgoal order, not `vars()`: a `Var`'s order depends on when its
    // name was interned, and a seed must draw the same question in every
    // process.
    let mut vars: Vec<Term> = Vec::new();
    for t in q.subgoals.iter().flat_map(|a| &a.args) {
        if matches!(t, Term::Var(_)) && !vars.contains(t) {
            vars.push(t.clone());
        }
    }
    let x = vars[rng.gen_range(0..vars.len())].clone();
    let op = [CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge][rng.gen_range(0..4)];
    Comparison::new(x, op, Term::int(rng.gen_range(0..=5)))
}

/// Converts a conjunctive query into a one-rule program.
pub fn query_program(q: &ConjunctiveQuery) -> Program {
    Program::new(vec![q.to_rule()])
}

/// A random instance for the given sources: `tuples_per_source` random
/// tuples over a domain of `domain_size` symbolic constants.
pub fn random_instance(
    views: &LavSetting,
    tuples_per_source: usize,
    domain_size: usize,
    rng: &mut impl Rng,
) -> Database {
    let mut db = Database::new();
    for s in &views.sources {
        let arity = s.view.head.arity();
        for _ in 0..tuples_per_source {
            let tuple: Vec<Term> = (0..arity)
                .map(|_| Term::sym(format!("c{}", rng.gen_range(0..domain_size))))
                .collect();
            db.insert(s.name.as_str(), tuple);
        }
    }
    db
}

/// A random EDB database over binary predicates `p0..` (for evaluating
/// queries and plans directly).
pub fn random_edb(
    npreds: usize,
    tuples_per_pred: usize,
    domain_size: usize,
    rng: &mut impl Rng,
) -> Database {
    let mut db = Database::new();
    for p in 0..npreds {
        for _ in 0..tuples_per_pred {
            db.insert(
                format!("p{p}"),
                vec![
                    Term::sym(format!("c{}", rng.gen_range(0..domain_size))),
                    Term::sym(format!("c{}", rng.gen_range(0..domain_size))),
                ],
            );
        }
    }
    db
}

/// A chain EDB: `e(0,1), e(1,2), …` — its transitive closure takes one
/// fixpoint round per edge (`e6_binding_patterns/ra_chain_tc_96`).
pub fn chain_edb(pred: &str, len: usize) -> Database {
    let mut db = Database::new();
    for i in 0..len {
        db.insert(pred, vec![Term::int(i as i64), Term::int(i as i64 + 1)]);
    }
    db
}

/// Identity views (`v_i` mirrors `p_i`): the trivial LAV setting under
/// which relative containment coincides with ordinary containment — used
/// as a baseline and sanity check.
pub fn identity_views(npreds: usize) -> LavSetting {
    let sources = (0..npreds)
        .map(|p| {
            SourceDescription::parse(&format!("vp{p}(A, B) :- p{p}(A, B)."))
                .expect("generated view parses")
        })
        .collect();
    LavSetting { sources }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_are_well_formed() {
        let mut rng = StdRng::seed_from_u64(1);
        for shape in [Shape::Chain, Shape::Star] {
            let q = random_query(shape, 4, 3, &mut rng);
            assert_eq!(q.subgoals.len(), 4);
            assert!(qc_datalog::validate_rule(&q.to_rule()).is_ok());
        }
    }

    #[test]
    fn views_parse_and_validate() {
        let mut rng = StdRng::seed_from_u64(2);
        let v = random_views(5, 3, &mut rng);
        assert_eq!(v.sources.len(), 5);
        for s in &v.sources {
            assert!(qc_datalog::validate_rule(&s.view.to_rule()).is_ok());
        }
    }

    #[test]
    fn instances_have_requested_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let v = identity_views(2);
        let db = random_instance(&v, 5, 3, &mut rng);
        // Up to 5 per source (duplicates collapse).
        assert!(db.len_of(&qc_datalog::Symbol::new("vp0")) <= 5);
        assert!(db.total_len() > 0);
        let edb = random_edb(2, 5, 3, &mut rng);
        assert!(edb.total_len() > 0);
        let chain = chain_edb("e", 10);
        assert_eq!(chain.total_len(), 10);
    }

    #[test]
    fn identity_views_make_relative_match_ordinary() {
        use crate::relative::relatively_contained;
        use qc_containment::cq_contained;
        let mut rng = StdRng::seed_from_u64(4);
        let views = identity_views(2);
        let mut agreements = 0;
        for _ in 0..10 {
            let a = random_query(Shape::Chain, 2, 2, &mut rng);
            let b = random_query(Shape::Chain, 2, 2, &mut rng);
            let ordinary = cq_contained(&a, &b);
            let relative = relatively_contained(
                &query_program(&a),
                &qc_datalog::Symbol::new("q"),
                &query_program(&b),
                &qc_datalog::Symbol::new("q"),
                &views,
            )
            .unwrap();
            assert_eq!(ordinary, relative);
            agreements += 1;
        }
        assert_eq!(agreements, 10);
    }
}
