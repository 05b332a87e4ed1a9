//! Differential tests pinning the compiled relational-algebra engine to
//! the tuple-at-a-time oracle.
//!
//! The RA engine (`qc-datalog/src/ra.rs`) compiles rules once and
//! evaluates batches; the tuple engine interprets rule bodies per
//! candidate tuple. They must be *indistinguishable* from the outside:
//! identical fixpoints on random stratified programs, identical certain
//! answers through the full inverse-rule pipeline, with and without the
//! magic-sets rewrite. Any divergence is a bug in the RA compiler, the
//! semi-naive delta driver, or the magic rewrite — never acceptable
//! "optimization slack".

use proptest::prelude::*;
use qc_datalog::eval::{answers, evaluate, EvalEngine, EvalOptions};
use qc_datalog::{Database, Program, Symbol, Term};
use qc_mediator::binding::reachable_certain_answers;
use qc_mediator::certain::certain_answers;
use qc_mediator::workloads::{random_query, random_views, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ra() -> EvalOptions {
    EvalOptions {
        engine: EvalEngine::Ra,
        ..EvalOptions::default()
    }
}

fn tuple() -> EvalOptions {
    EvalOptions {
        engine: EvalEngine::Tuple,
        ..EvalOptions::default()
    }
}

/// Random positive (hence stratified) function-free program: a pool of
/// recursive and non-recursive shapes over EDB `e`/`s`, sometimes with
/// comparisons and constant-seeded goal rules, seeded and all-free calls
/// side by side.
fn random_program(rng: &mut StdRng) -> Program {
    let shapes = [
        // Linear transitive closure, left and right recursive.
        "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). q(Y) :- t(0, Y).",
        "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). q(Y) :- t(0, Y).",
        // Nonlinear closure.
        "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z). q(Y) :- t(0, Y).",
        // Mutual recursion with unary state.
        "a(X) :- s(X). b(Y) :- a(X), e(X, Y). a(Y) :- b(X), e(X, Y). q(X) :- a(X).",
        // Comparisons filter the recursion frontier.
        "t(X, Y) :- e(X, Y), X < Y. t(X, Z) :- t(X, Y), e(Y, Z), Y != Z. q(Y) :- t(0, Y).",
        // Same-generation: classic magic-sets stress shape.
        "sg(X, X) :- s(X). sg(X, Y) :- e(U, X), sg(U, V), e(V, Y). q(Y) :- sg(0, Y).",
        // Multi-join nonrecursive layer above a recursive core.
        "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). \
         q(X, Z) :- t(X, Y), t(Y, Z), s(Y).",
        // An all-free closure beside a seeded one: both calls to `t` read
        // its all-free copy, while `r(0, W)` keeps the magic rewrite.
        "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). \
         r(X, Y) :- e(X, Y). r(X, Z) :- e(X, Y), r(Y, Z). \
         q(X, W) :- t(X, Y), t(Y, Z), r(0, W).",
    ];
    qc_datalog::parse_program(shapes[rng.gen_range(0..shapes.len())]).unwrap()
}

fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    let dom = rng.gen_range(2..7);
    for _ in 0..rng.gen_range(0..16) {
        db.insert(
            "e",
            vec![
                Term::int(rng.gen_range(0..dom)),
                Term::int(rng.gen_range(0..dom)),
            ],
        );
    }
    for _ in 0..rng.gen_range(0..5) {
        db.insert("s", vec![Term::int(rng.gen_range(0..dom))]);
    }
    db
}

fn tuple_set(rel: &qc_datalog::Relation) -> std::collections::BTreeSet<Vec<Term>> {
    rel.tuples().into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ra_fixpoint_equals_tuple_fixpoint(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = random_program(&mut rng);
        let db = random_db(&mut rng);
        let r = evaluate(&prog, &db, &ra()).unwrap();
        let t = evaluate(&prog, &db, &tuple()).unwrap();
        prop_assert_eq!(r.facts(), t.facts());
    }

    #[test]
    fn ra_answers_equal_tuple_answers_with_and_without_magic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = random_program(&mut rng);
        let db = random_db(&mut rng);
        let q = Symbol::new("q");
        let magic = answers(&prog, &db, &q, &ra()).unwrap();
        // `evaluate` has no goal, so this is the plain RA fixpoint.
        let plain = evaluate(&prog, &db, &ra()).unwrap().into_relation(&q);
        let oracle = answers(&prog, &db, &q, &tuple()).unwrap();
        prop_assert_eq!(tuple_set(&magic), tuple_set(&oracle));
        prop_assert_eq!(tuple_set(&plain), tuple_set(&oracle));
    }

    #[test]
    fn certain_answer_verdicts_match_the_oracle(seed in any::<u64>()) {
        // Full inverse-rule pipeline: random LAV views, random query,
        // random source instance. The RA engine evaluates the unfolded
        // plan (Skolem heads included — fn-term construction and
        // filtering must agree with the tuple engine bit for bit).
        let mut rng = StdRng::seed_from_u64(seed);
        let views = random_views(rng.gen_range(1..4), 3, &mut rng);
        let cq = random_query(Shape::Chain, rng.gen_range(1..3), 3, &mut rng);
        let query = Program::new(vec![cq.to_rule()]);
        let answer = cq.head.pred;
        let mut db = Database::new();
        for v in 0..3 {
            for _ in 0..rng.gen_range(0..5) {
                db.insert(
                    format!("v{v}"),
                    vec![Term::int(rng.gen_range(0..4)), Term::int(rng.gen_range(0..4))],
                );
            }
        }
        let r = certain_answers(&query, &answer, &views, &db, &ra());
        let t = certain_answers(&query, &answer, &views, &db, &tuple());
        match (r, t) {
            (Ok(r), Ok(t)) => prop_assert_eq!(tuple_set(&r), tuple_set(&t)),
            (r, t) => prop_assert_eq!(r.is_err(), t.is_err()),
        }
    }

    #[test]
    fn reachable_certain_answer_verdicts_match_the_oracle(seed in any::<u64>()) {
        // Binding-pattern route (the E9 workload): recursive reachability
        // plans through capability-limited sources.
        let mut rng = StdRng::seed_from_u64(seed);
        let views = random_views(rng.gen_range(1..4), 3, &mut rng);
        let cq = random_query(Shape::Chain, rng.gen_range(1..3), 3, &mut rng);
        let query = Program::new(vec![cq.to_rule()]);
        let answer = cq.head.pred;
        let mut db = Database::new();
        for v in 0..3 {
            for _ in 0..rng.gen_range(0..5) {
                db.insert(
                    format!("v{v}"),
                    vec![Term::int(rng.gen_range(0..4)), Term::int(rng.gen_range(0..4))],
                );
            }
        }
        let r = reachable_certain_answers(&query, &answer, &views, &db, &ra());
        let t = reachable_certain_answers(&query, &answer, &views, &db, &tuple());
        match (r, t) {
            (Ok(r), Ok(t)) => prop_assert_eq!(tuple_set(&r), tuple_set(&t)),
            (r, t) => prop_assert_eq!(r.is_err(), t.is_err()),
        }
    }

    #[test]
    fn adaptive_tier_is_transparent(seed in any::<u64>()) {
        // Whatever the router picks must be invisible in the result.
        let mut rng = StdRng::seed_from_u64(seed);
        let prog = random_program(&mut rng);
        let db = random_db(&mut rng);
        let adaptive = evaluate(&prog, &db, &EvalOptions::default()).unwrap();
        let oracle = evaluate(&prog, &db, &tuple()).unwrap();
        prop_assert_eq!(adaptive.facts(), oracle.facts());
    }
}
