//! Property-based cross-validation: independent implementations and the
//! raw semantics must agree on randomized workloads.
//!
//! * containment-mapping CQ containment ⇔ canonical-database evaluation;
//! * relative containment, expansion route ⇔ plan-comparison route;
//! * Theorem 5.1 plans: inverse-rule skeletons ⇔ MiniCon skeletons, both
//!   completed by the same constraint completion;
//! * decided relative containment ⇒ certain-answer containment on
//!   sampled instances (the semantics, Definition 2.4);
//! * minimization preserves equivalence;
//! * dense-order containment is sound on sampled numeric databases.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use relcont::containment::canonical::freeze;
use relcont::containment::{cq_contained, cq_equivalent, minimize};
use relcont::datalog::eval::{answers, EvalOptions};
use relcont::datalog::{
    Atom, CompOp, Comparison, ConjunctiveQuery, Database, Program, Symbol, Term,
};
use relcont::mediator::certain::certain_answers;
use relcont::mediator::relative::{relatively_contained, relatively_contained_by_plans};
use relcont::mediator::workloads::{
    query_program, random_instance, random_query, random_semi_interval_question, random_views,
    Shape,
};

fn s(n: &str) -> Symbol {
    Symbol::new(n)
}

/// A random small CQ over binary predicates, allowing repeats/constants.
fn arbitrary_cq(rng: &mut StdRng, max_atoms: usize) -> ConjunctiveQuery {
    let natoms = rng.gen_range(1..=max_atoms);
    let nvars = rng.gen_range(1..=4u32);
    let term = |rng: &mut StdRng| -> Term {
        if rng.gen_bool(0.15) {
            Term::int(rng.gen_range(0..3))
        } else {
            Term::var(format!("V{}", rng.gen_range(0..nvars)))
        }
    };
    let mut subgoals = Vec::new();
    for _ in 0..natoms {
        let p = rng.gen_range(0..2);
        subgoals.push(Atom::new(format!("p{p}"), vec![term(rng), term(rng)]));
    }
    // Head: a variable that occurs in the body (safety).
    let body_vars: Vec<_> = subgoals.iter().flat_map(|a| a.vars()).collect();
    let head_args = if body_vars.is_empty() {
        vec![]
    } else {
        vec![Term::Var(body_vars[rng.gen_range(0..body_vars.len())])]
    };
    ConjunctiveQuery::new(Atom::new("q", head_args), subgoals, Vec::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cq_containment_matches_canonical_database(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q1 = arbitrary_cq(&mut rng, 3);
        let mut q2 = arbitrary_cq(&mut rng, 3);
        // Same head arity required for containment to be meaningful. An
        // all-constant q2 body gets a constant head instead.
        let q2_vars: Vec<_> = q2.subgoals.iter().flat_map(|a| a.vars()).collect();
        q2.head = Atom::new("q", q1.head.args.iter().map(|_| {
            match q2_vars.first() {
                Some(v) => Term::Var(*v),
                None => Term::int(0),
            }
        }).collect());

        let via_hom = cq_contained(&q1, &q2);
        // Canonical database: q1 ⊆ q2 iff frozen head of q1 ∈ q2(freeze(q1)).
        let frozen = freeze(&q1);
        let prog = Program::new(vec![q2.to_rule()]);
        let rel = answers(&prog, &frozen.database, &s("q"), &EvalOptions::default()).unwrap();
        let via_canon = rel.contains(&frozen.head);
        prop_assert_eq!(via_hom, via_canon, "q1: {} q2: {}", q1, q2);
    }

    #[test]
    fn relative_containment_routes_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = if seed.is_multiple_of(2) { Shape::Chain } else { Shape::Star };
        let q1 = random_query(shape, 1 + (seed as usize) % 2, 2, &mut rng);
        let q2 = random_query(shape, 1 + (seed as usize / 2) % 2, 2, &mut rng);
        let views = random_views(3, 2, &mut rng);
        let a = relatively_contained(
            &query_program(&q1), &s("q"), &query_program(&q2), &s("q"), &views,
        ).unwrap();
        let b = relatively_contained_by_plans(
            &query_program(&q1), &s("q"), &query_program(&q2), &s("q"), &views,
        ).unwrap();
        prop_assert_eq!(a, b, "q1: {} q2: {} views: {:?}", q1, q2, views.names());
    }

    #[test]
    fn relative_containment_is_sound_on_instances(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q1 = random_query(Shape::Chain, 1 + (seed as usize) % 2, 2, &mut rng);
        let q2 = random_query(Shape::Chain, 1 + (seed as usize / 3) % 2, 2, &mut rng);
        let views = random_views(3, 2, &mut rng);
        let p1 = query_program(&q1);
        let p2 = query_program(&q2);
        let decided = relatively_contained(&p1, &s("q"), &p2, &s("q"), &views).unwrap();
        if decided {
            // Definition 2.4: certain answers must be contained on EVERY
            // instance; check a few random ones.
            for _ in 0..3 {
                let inst = random_instance(&views, 3, 3, &mut rng);
                let opts = EvalOptions::default();
                let a1 = certain_answers(&p1, &s("q"), &views, &inst, &opts).unwrap();
                let a2 = certain_answers(&p2, &s("q"), &views, &inst, &opts).unwrap();
                for t in a1.tuples() {
                    prop_assert!(
                        a2.contains(&t),
                        "decided contained but witness {t:?} escapes\nq1: {}\nq2: {}",
                        q1, q2
                    );
                }
            }
        }
    }

    #[test]
    fn minimization_preserves_equivalence(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = arbitrary_cq(&mut rng, 4);
        let min = minimize(&q);
        prop_assert!(min.subgoals.len() <= q.subgoals.len());
        prop_assert!(cq_equivalent(&q, &min), "q: {} min: {}", q, min);
        // The core is minimal: removing any further subgoal breaks
        // equivalence or safety.
        for i in 0..min.subgoals.len() {
            let mut smaller = min.clone();
            smaller.subgoals.remove(i);
            let safe = smaller
                .head_vars()
                .iter()
                .all(|v| smaller.subgoals.iter().any(|a| a.vars().contains(v)));
            if safe && !smaller.subgoals.is_empty() {
                prop_assert!(!cq_equivalent(&q, &smaller));
            }
        }
    }

    #[test]
    fn three_plan_constructions_agree(seed in any::<u64>()) {
        use relcont::mediator::enumerate::{enumerated_plan, EnumerationLimits};
        use relcont::mediator::minicon::minicon_rewritings;
        use relcont::mediator::fn_elim::eliminate_function_terms;
        use relcont::mediator::inverse_rules::max_contained_plan;
        use relcont::containment::cq::ucq_equivalent;
        use relcont::datalog::Ucq;

        let mut rng = StdRng::seed_from_u64(seed);
        // Small: enumeration is exponential.
        let q = random_query(Shape::Chain, 1 + (seed as usize) % 2, 2, &mut rng);
        let views = random_views(2, 2, &mut rng);

        let mc = minicon_rewritings(&q, &views);
        let en = enumerated_plan(&q, &views, &EnumerationLimits::default());
        let inv = eliminate_function_terms(&max_contained_plan(&query_program(&q), &views)).unwrap();
        let inv_ucq = match inv.unfold(&s("q")) {
            Ok(mut u) => {
                u.disjuncts.retain(|d| {
                    d.subgoals.iter().all(|a| views.source(a.pred).is_some())
                });
                u
            }
            Err(_) => Ucq::empty("q", q.head.arity()),
        };
        prop_assert!(ucq_equivalent(&mc, &inv_ucq), "minicon {} vs inverse {}", mc, inv_ucq);
        if let Some(en) = en {
            prop_assert!(ucq_equivalent(&mc, &en), "minicon {} vs enumerated {}", mc, en);
        }
    }

    #[test]
    fn comparison_containment_sound_on_numeric_databases(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Queries over one binary predicate with a semi-interval atom.
        let mk = |rng: &mut StdRng| -> ConjunctiveQuery {
            let c = rng.gen_range(0..4);
            let op = [CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge][rng.gen_range(0..4)];
            ConjunctiveQuery::new(
                Atom::new("q", vec![Term::var("X")]),
                vec![Atom::new("e", vec![Term::var("X"), Term::var("Y")])],
                vec![Comparison::new(Term::var("Y"), op, Term::int(c))],
            )
        };
        let q1 = mk(&mut rng);
        let q2 = mk(&mut rng);
        let contained = cq_contained(&q1, &q2);
        // Evaluate on random numeric databases.
        for _ in 0..4 {
            let mut db = Database::new();
            for _ in 0..6 {
                db.insert("e", vec![
                    Term::int(rng.gen_range(0..4)),
                    Term::int(rng.gen_range(0..6) - 1),
                ]);
            }
            let a1 = answers(&Program::new(vec![q1.to_rule()]), &db, &s("q"), &EvalOptions::default()).unwrap();
            let a2 = answers(&Program::new(vec![q2.to_rule()]), &db, &s("q"), &EvalOptions::default()).unwrap();
            let sub = a1.tuples().iter().all(|t| a2.contains(t));
            if contained {
                prop_assert!(sub, "decided contained, found counterexample\nq1: {}\nq2: {}", q1, q2);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn thm51_plans_agree_with_completed_minicon_skeletons(seed in any::<u64>()) {
        use relcont::containment::cq::ucq_equivalent;
        use relcont::mediator::minicon::semi_interval_skeletons;
        use relcont::mediator::relative::{complete_semi_interval, max_contained_ucq_plan};

        let mut rng = StdRng::seed_from_u64(seed);
        let (q, _, views) = random_semi_interval_question(&mut rng);
        let plan = max_contained_ucq_plan(&query_program(&q), &s("q"), &views).unwrap();
        let reference = complete_semi_interval(&q, &views, &semi_interval_skeletons(&q, &views));
        prop_assert!(
            ucq_equivalent(&plan, &reference),
            "q: {}\nviews: {:?}\nplan: {}\nreference: {}",
            q,
            views.sources.iter().map(|v| v.view.to_rule().to_string()).collect::<Vec<_>>(),
            plan,
            reference
        );
    }
}
