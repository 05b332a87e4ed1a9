//! Property tests for the containment procedures: the type fixpoint
//! against unfolding, containment laws, and soundness on evaluation.

use proptest::prelude::*;
use qc_containment::datalog_ucq::{datalog_contained_in_ucq, FixpointBudget};
use qc_containment::{cq_contained, ucq_contained};
use qc_datalog::eval::{answers, EvalOptions};
use qc_datalog::{parse_program, Atom, ConjunctiveQuery, Database, Program, Symbol, Term, Ucq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random small comparison-free CQ over binary predicates.
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

/// A random nonrecursive layered program with answer predicate `q`.
fn random_layered_program(rng: &mut StdRng) -> Program {
    // q over helpers h0/h1, helpers over EDB p0/p1.
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
            // Safe rule shapes only.
            match rng.gen_range(0..3) {
                0 => src.push_str(&format!("h{h}(A, B) :- p{p}(A, B).\n")),
                1 => src.push_str(&format!("h{h}(A, B) :- p{p}(B, A).\n")),
                _ => src.push_str(&format!("h{h}(A, A) :- p{p}(A, C).\n")),
            }
        }
    }
    parse_program(&src).expect("generated program parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn type_fixpoint_equals_unfold_then_ucq(seed in any::<u64>()) {
        // On nonrecursive programs, the Chaudhuri–Vardi fixpoint must
        // agree with unfold + Sagiv–Yannakakis.
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_layered_program(&mut rng);
        let targets: Vec<ConjunctiveQuery> =
            (0..2).map(|_| random_cq(&mut rng, 1)).collect();
        let u2 = Ucq::new(targets).expect("same heads");
        let ans = Symbol::new("q");
        let via_fixpoint =
            datalog_contained_in_ucq(&p, &ans, &u2, &FixpointBudget::default()).unwrap();
        let unfolded = p.unfold(&ans).unwrap();
        let via_unfold = ucq_contained(&unfolded, &u2);
        prop_assert_eq!(via_fixpoint, via_unfold, "program:\n{}\ntarget:\n{}", p, u2);
    }

    #[test]
    fn containment_implies_answer_subset(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q1 = random_cq(&mut rng, 1);
        let q2 = random_cq(&mut rng, 1);
        let contained = cq_contained(&q1, &q2);
        if !contained {
            return Ok(());
        }
        for _ in 0..4 {
            let mut db = Database::new();
            for p in 0..2 {
                for _ in 0..rng.gen_range(0..6) {
                    db.insert(
                        format!("p{p}"),
                        vec![Term::int(rng.gen_range(0..3)), Term::int(rng.gen_range(0..3))],
                    );
                }
            }
            let a1 = answers(&Program::new(vec![q1.to_rule()]), &db, &Symbol::new("q"), &EvalOptions::default()).unwrap();
            let a2 = answers(&Program::new(vec![q2.to_rule()]), &db, &Symbol::new("q"), &EvalOptions::default()).unwrap();
            for t in a1.tuples() {
                prop_assert!(a2.contains(&t), "containment violated on {t:?}\nq1: {}\nq2: {}", q1, q2);
            }
        }
    }

    #[test]
    fn containment_is_a_preorder(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qs: Vec<ConjunctiveQuery> = (0..3).map(|_| random_cq(&mut rng, 1)).collect();
        // Reflexive.
        for q in &qs {
            prop_assert!(cq_contained(q, q));
        }
        // Transitive.
        for a in &qs {
            for b in &qs {
                for c in &qs {
                    if cq_contained(a, b) && cq_contained(b, c) {
                        prop_assert!(cq_contained(a, c), "a: {} b: {} c: {}", a, b, c);
                    }
                }
            }
        }
    }

    #[test]
    fn klug_test_is_sound_and_complete_on_grid(seed in any::<u64>()) {
        // For small comparison queries, every linearization of the terms is
        // realized by some assignment over a half-integer grid spanning the
        // constants. So: if the dense-order test says NOT contained, a
        // witness database must exist on the grid; if it says contained,
        // no grid assignment may violate it. Together these check both
        // soundness and completeness of the implementation.
        use qc_datalog::Comparison;
        use qc_datalog::CompOp;
        let mut rng = StdRng::seed_from_u64(seed);

        let mk = |rng: &mut StdRng| -> ConjunctiveQuery {
            let ops = [CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge, CompOp::Ne];
            let vars = ["X", "Y"];
            let mut comps = Vec::new();
            for _ in 0..rng.gen_range(0..=2) {
                let lhs = Term::var(vars[rng.gen_range(0..2)]);
                let rhs = if rng.gen_bool(0.5) {
                    Term::int(rng.gen_range(0..3))
                } else {
                    Term::var(vars[rng.gen_range(0..2)])
                };
                comps.push(Comparison::new(lhs, ops[rng.gen_range(0..ops.len())], rhs));
            }
            ConjunctiveQuery::new(
                Atom::new("q", vec![Term::var("X")]),
                vec![Atom::new("e", vec![Term::var("X"), Term::var("Y")])],
                comps,
            )
        };
        let q1 = mk(&mut rng);
        let q2 = mk(&mut rng);
        let contained = cq_contained(&q1, &q2);

        // Grid: half-integers from -1 to 3.5 (covers constants 0..2 with
        // room on both sides and between every pair).
        let grid: Vec<qc_constraints::Rat> = (-2..8)
            .map(|n| qc_constraints::Rat::new(n, 2))
            .collect();
        let q2_prog = Program::new(vec![q2.to_rule()]);
        let opts = EvalOptions::default();
        let mut found_witness = false;
        for &x in &grid {
            for &y in &grid {
                // Does the assignment satisfy q1's comparisons?
                let assign = |t: &Term| -> Term {
                    match t {
                        Term::Var(v) if v.name() == "X" => Term::Const(qc_datalog::Const::Num(x)),
                        Term::Var(v) if v.name() == "Y" => Term::Const(qc_datalog::Const::Num(y)),
                        other => other.clone(),
                    }
                };
                let sat = q1.comparisons.iter().all(|c| {
                    Comparison::new(assign(&c.lhs), c.op, assign(&c.rhs))
                        .eval_ground()
                        .unwrap_or(false)
                });
                if !sat {
                    continue;
                }
                let mut db = Database::new();
                db.insert("e", vec![
                    Term::Const(qc_datalog::Const::Num(x)),
                    Term::Const(qc_datalog::Const::Num(y)),
                ]);
                let ans = answers(&q2_prog, &db, &Symbol::new("q"), &opts).unwrap();
                let head = vec![Term::Const(qc_datalog::Const::Num(x))];
                let covered = ans.contains(&head);
                if contained {
                    prop_assert!(
                        covered,
                        "SOUNDNESS: contained, but ({x}, {y}) is a counterexample\nq1: {}\nq2: {}",
                        q1, q2
                    );
                } else if !covered {
                    found_witness = true;
                }
            }
        }
        if !contained {
            // Either a witness exists on the grid, or q1 is unsatisfiable
            // over it (then non-containment must come from somewhere the
            // grid can't see — impossible for this vocabulary).
            prop_assert!(
                found_witness,
                "COMPLETENESS: not contained, but no grid witness\nq1: {}\nq2: {}",
                q1, q2
            );
        }
    }

    #[test]
    fn ucq_containment_respects_union_laws(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_cq(&mut rng, 1);
        let b = random_cq(&mut rng, 1);
        let ab = Ucq::new(vec![a.clone(), b.clone()]).unwrap();
        // Each disjunct is contained in the union.
        prop_assert!(ucq_contained(&Ucq::single(a.clone()), &ab));
        prop_assert!(ucq_contained(&Ucq::single(b.clone()), &ab));
        // The union is contained in a single disjunct iff both are.
        let in_a = ucq_contained(&ab, &Ucq::single(a.clone()));
        prop_assert_eq!(in_a, cq_contained(&b, &a), "a: {} b: {}", a, b);
    }
}
