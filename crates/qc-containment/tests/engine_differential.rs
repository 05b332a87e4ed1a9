//! Differential tests for the containment engine: the homomorphism
//! kernels, the containment memo, the datalog ⊆ UCQ type fixpoint and the
//! parallel fan-out must agree with an independent oracle on random
//! inputs, on one thread and on four.
//!
//! The oracle is [`brute_contained`]: it tries every assignment of Q2's
//! variables to Q1's terms, so it shares no code with either search
//! kernel. For comparison-free CQs `Q1 ⊆ Q2` iff one of those assignments
//! is a containment mapping (Chandra–Merlin), and for unions iff every
//! disjunct of the left side is contained in some disjunct of the right
//! (Sagiv–Yannakakis). Evaluation is checked against itself with join
//! reordering off: the answer *sets* must be identical.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use qc_containment::datalog_ucq::{datalog_contained_in_ucq, FixpointBudget};
use qc_containment::{cq_contained, cq_contained_memo, engine, memo, ucq_contained, EngineOptions};
use qc_datalog::eval::{answers, EvalOptions};
use qc_datalog::{
    parse_program, Atom, ConjunctiveQuery, Database, Program, Symbol, Term, Ucq, Var,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The engine on one thread and fanned out over four workers.
fn configs() -> [(&'static str, EngineOptions); 2] {
    [
        ("sequential", EngineOptions::sequential()),
        ("parallel4", EngineOptions::sequential().with_parallelism(4)),
    ]
}

/// Decides `q1 ⊆ q2` for comparison-free CQs by brute force: some
/// assignment of `q2`'s variables to `q1`'s terms maps `q2`'s head onto
/// `q1`'s head and every subgoal of `q2` onto a subgoal of `q1`.
fn brute_contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    assert!(q1.is_comparison_free() && q2.is_comparison_free());
    if q1.head.args.len() != q2.head.args.len() {
        return false;
    }
    let vars: Vec<Var> = q2.vars().into_iter().collect();
    let terms = q1.all_terms();
    let targets: HashSet<(Symbol, &[Term])> = q1
        .subgoals
        .iter()
        .map(|a| (a.pred, a.args.as_slice()))
        .collect();
    let image = |assignment: &[usize], t: &Term| match t {
        Term::Var(v) => {
            let i = vars.iter().position(|w| w == v).expect("a variable of q2");
            terms[assignment[i]].clone()
        }
        _ => t.clone(),
    };
    let maps = |assignment: &[usize]| {
        q2.head
            .args
            .iter()
            .zip(&q1.head.args)
            .all(|(a, b)| &image(assignment, a) == b)
            && q2.subgoals.iter().all(|a| {
                let args: Vec<Term> = a.args.iter().map(|t| image(assignment, t)).collect();
                targets.contains(&(a.pred, args.as_slice()))
            })
    };
    // Odometer over terms.len()^vars.len() assignments.
    let mut assignment = vec![0; vars.len()];
    loop {
        if maps(&assignment) {
            return true;
        }
        let Some(k) = (0..vars.len()).find(|&k| assignment[k] + 1 < terms.len()) else {
            return false;
        };
        assignment[k] += 1;
        assignment[..k].iter_mut().for_each(|a| *a = 0);
    }
}

/// Decides `u1 ⊆ u2` for comparison-free unions by brute force.
fn brute_ucq_contained(u1: &Ucq, u2: &Ucq) -> bool {
    u1.disjuncts
        .iter()
        .all(|d1| u2.disjuncts.iter().any(|d2| brute_contained(d1, d2)))
}

/// `q` with `n` atoms over fresh predicates and fresh variables appended.
/// Padding both sides with the same block leaves `q1 ⊆ q2` unchanged: the
/// block maps onto itself, and no other atom has its predicates.
fn padded(q: &ConjunctiveQuery, n: usize) -> ConjunctiveQuery {
    let mut p = q.clone();
    p.subgoals
        .extend((0..n).map(|i| Atom::new(format!("pad{i}"), vec![Term::var(format!("Pad{i}"))])));
    p
}

/// A random small comparison-free CQ over binary predicates (mirrors the
/// generator in `properties.rs`).
fn random_cq(rng: &mut StdRng, head_arity: usize) -> ConjunctiveQuery {
    let natoms = rng.gen_range(1..=3);
    let nvars = rng.gen_range(1..=4u32);
    let term = |rng: &mut StdRng| -> Term {
        if rng.gen_bool(0.2) {
            Term::int(rng.gen_range(0..2))
        } else {
            Term::var(format!("V{}", rng.gen_range(0..nvars)))
        }
    };
    let mut subgoals = Vec::new();
    for _ in 0..natoms {
        let p = rng.gen_range(0..2);
        subgoals.push(Atom::new(format!("p{p}"), vec![term(rng), term(rng)]));
    }
    let body_vars: Vec<_> = subgoals.iter().flat_map(|a| a.vars()).collect();
    let head_args: Vec<Term> = (0..head_arity)
        .map(|_| match body_vars.first() {
            Some(_) => Term::Var(body_vars[rng.gen_range(0..body_vars.len())]),
            None => Term::int(0),
        })
        .collect();
    ConjunctiveQuery::new(Atom::new("q", head_args), subgoals, Vec::new())
}

/// A random nonrecursive layered program with answer predicate `q`
/// (mirrors the generator in `properties.rs`).
fn random_layered_program(rng: &mut StdRng) -> Program {
    let mut src = String::new();
    let q_atoms = rng.gen_range(1..=2);
    let mut body = Vec::new();
    for _ in 0..q_atoms {
        let h = rng.gen_range(0..2);
        body.push(format!(
            "h{h}(V{}, V{})",
            rng.gen_range(0..3),
            rng.gen_range(0..3)
        ));
    }
    src.push_str(&format!("q(V0) :- {}.\n", body.join(", ")));
    for h in 0..2 {
        for _ in 0..rng.gen_range(1..=2) {
            let p = rng.gen_range(0..2);
            match rng.gen_range(0..3) {
                0 => src.push_str(&format!("h{h}(A, B) :- p{p}(A, B).\n")),
                1 => src.push_str(&format!("h{h}(A, B) :- p{p}(B, A).\n")),
                _ => src.push_str(&format!("h{h}(A, A) :- p{p}(A, C).\n")),
            }
        }
    }
    parse_program(&src).expect("generated program parses")
}

/// A random database over the binary EDB predicates `p0`/`p1`.
fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    for p in 0..2 {
        for _ in 0..rng.gen_range(0..8) {
            db.insert(
                format!("p{p}"),
                vec![
                    Term::int(rng.gen_range(0..3)),
                    Term::int(rng.gen_range(0..3)),
                ],
            );
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cq_containment_agrees_across_engines(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q1 = random_cq(&mut rng, 1);
        let q2 = random_cq(&mut rng, 1);
        let oracle = brute_contained(&q1, &q2);
        for (name, opts) in configs() {
            let got = engine::with_options(opts, || cq_contained(&q1, &q2));
            prop_assert_eq!(oracle, got, "{}: q1: {} q2: {}", name, q1, q2);
            let memo = engine::with_options(opts, || cq_contained_memo(&q1, &q2));
            prop_assert_eq!(oracle, memo, "{} (memo): q1: {} q2: {}", name, q1, q2);
        }
    }

    #[test]
    fn padded_cq_containment_agrees_through_the_memo(seed in any::<u64>()) {
        // Unpadded pairs have at most 6 subgoals between them and never
        // reach the memo's cache; 8 padding atoms a side put every pair
        // past its 16-subgoal threshold.
        let mut rng = StdRng::seed_from_u64(seed);
        let q1 = random_cq(&mut rng, 1);
        let q2 = random_cq(&mut rng, 1);
        let oracle = brute_contained(&q1, &q2);
        let (p1, p2) = (padded(&q1, 8), padded(&q2, 8));
        for (name, opts) in configs() {
            let got = engine::with_options(opts, || cq_contained(&p1, &p2));
            prop_assert_eq!(oracle, got, "{}: q1: {} q2: {}", name, p1, p2);
            // From an empty memo, the first ask misses and the second is
            // answered from the cache.
            memo::clear();
            let rec = Arc::new(qc_obs::PipelineRecorder::new());
            let (miss, hit) = {
                let _g = qc_obs::install(rec.clone());
                engine::with_options(opts, || {
                    (cq_contained_memo(&p1, &p2), cq_contained_memo(&p1, &p2))
                })
            };
            prop_assert_eq!(oracle, miss, "{} (memo miss): q1: {} q2: {}", name, p1, p2);
            prop_assert_eq!(oracle, hit, "{} (memo hit): q1: {} q2: {}", name, p1, p2);
            let c = rec.counters();
            prop_assert_eq!(
                (c.get(qc_obs::Counter::MemoMisses), c.get(qc_obs::Counter::MemoHits)),
                (1, 1),
                "{}: q1: {} q2: {}", name, p1, p2
            );
        }
    }

    #[test]
    fn ucq_containment_agrees_across_engines(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u1 = Ucq::new((0..3).map(|_| random_cq(&mut rng, 1)).collect()).unwrap();
        let u2 = Ucq::new((0..3).map(|_| random_cq(&mut rng, 1)).collect()).unwrap();
        let oracle = brute_ucq_contained(&u1, &u2);
        for (name, opts) in configs() {
            let got = engine::with_options(opts, || ucq_contained(&u1, &u2));
            prop_assert_eq!(oracle, got, "{}: u1: {} u2: {}", name, u1, u2);
        }
    }

    #[test]
    fn datalog_ucq_fixpoint_agrees_across_engines(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_layered_program(&mut rng);
        // Include a redundant (subsumed) disjunct from time to time so the
        // memoized pre-pass actually fires.
        let mut targets: Vec<ConjunctiveQuery> = (0..2).map(|_| random_cq(&mut rng, 1)).collect();
        if rng.gen_bool(0.5) {
            targets.push(targets[0].clone());
        }
        let u2 = Ucq::new(targets).expect("same heads");
        let ans = Symbol::new("q");
        // The program is nonrecursive, so it unfolds to a UCQ with the
        // same answers, and the type fixpoint must agree with the UCQ test.
        let unfolded = p.unfold(&ans).expect("layered programs unfold");
        let oracle = brute_ucq_contained(&unfolded, &u2);
        let budget = FixpointBudget::default();
        for (name, opts) in configs() {
            let got = engine::with_options(opts, || {
                datalog_contained_in_ucq(&p, &ans, &u2, &budget)
            })
            .unwrap();
            prop_assert_eq!(
                oracle, got,
                "{}: program:\n{}\nunfolded: {}\ntarget:\n{}", name, p, unfolded, u2
            );
        }
    }

    #[test]
    fn reordered_evaluation_agrees_with_textual_order(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_layered_program(&mut rng);
        let db = random_db(&mut rng);
        let ans = Symbol::new("q");
        let textual = EvalOptions {
            reorder: false,
            ..EvalOptions::default()
        };
        // The generator can emit unsafe rules (head variable not bound in
        // the body); both engines must agree on rejecting those too.
        let a_textual = match answers(&p, &db, &ans, &textual) {
            Ok(r) => r,
            Err(e) => {
                let e2 = answers(&p, &db, &ans, &EvalOptions::default()).unwrap_err();
                prop_assert_eq!(format!("{e:?}"), format!("{e2:?}"), "program:\n{}", p);
                return Ok(());
            }
        };
        let a_ordered = answers(&p, &db, &ans, &EvalOptions::default()).unwrap();
        // Reordering may change derivation (hence insertion) order; the
        // answer *sets* must match.
        let mut t_textual = a_textual.tuples().to_vec();
        let mut t_ordered = a_ordered.tuples().to_vec();
        t_textual.sort();
        t_ordered.sort();
        prop_assert_eq!(t_textual, t_ordered, "program:\n{}", p);
    }
}
