//! Property tests for the datalog substrate: parser round-trips,
//! unification laws, and evaluation invariants.

use proptest::prelude::*;
use qc_datalog::eval::{evaluate, EvalOptions};
use qc_datalog::{
    parse_rule, unify_atoms, Atom, CompOp, Comparison, Database, Literal, Program, Rule, Term,
};

/// Strategy for terms (no function terms at top level; nested apps appear
/// via the `app` case).
fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        "[A-Z][a-z0-9]{0,3}".prop_map(Term::var),
        "[a-z][a-z0-9]{0,3}".prop_map(Term::sym),
        (-9i64..10).prop_map(Term::int),
    ];
    leaf.prop_recursive(2, 6, 3, |inner| {
        ("[f-h]", proptest::collection::vec(inner, 1..3)).prop_map(|(f, args)| Term::app(f, args))
    })
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        "[a-z][a-z0-9]{0,4}",
        proptest::collection::vec(arb_term(), 0..4),
    )
        .prop_map(|(p, args)| Atom::new(p, args))
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (arb_atom(), proptest::collection::vec(arb_atom(), 0..4))
        .prop_map(|(head, body)| Rule::new(head, body.into_iter().map(Literal::from).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn display_parse_round_trip(rule in arb_rule()) {
        let printed = rule.to_string();
        let reparsed = parse_rule(&printed).expect("printed rule must parse");
        prop_assert_eq!(rule, reparsed, "printed: {}", printed);
    }

    #[test]
    fn display_parse_round_trip_through_the_interner(rule in arb_rule()) {
        // Printing resolves interned ids back to names; re-parsing interns
        // those names again. The round trip must land on the *same* dense
        // ids (Symbol equality is id equality), and resolving an id must
        // reproduce the exact source spelling.
        let printed = rule.to_string();
        let reparsed = parse_rule(&printed).expect("printed rule must parse");
        prop_assert_eq!(rule.head.pred.id(), reparsed.head.pred.id());
        prop_assert_eq!(rule.head.pred.as_str(), reparsed.head.pred.as_str());
        for (a, b) in rule.body.iter().zip(&reparsed.body) {
            let (Literal::Atom(a), Literal::Atom(b)) = (a, b) else { continue };
            prop_assert_eq!(a.pred.id(), b.pred.id());
            prop_assert_eq!(a.pred.as_str(), b.pred.as_str());
        }
        // Ground rules additionally round-trip through the hash-consed
        // value table: equal terms share one value id.
        for (a, b) in rule.head.args.iter().zip(&reparsed.head.args) {
            if a.vars().is_empty() {
                prop_assert_eq!(qc_datalog::value::intern(a), qc_datalog::value::intern(b));
            }
        }
    }

    #[test]
    fn unification_produces_a_unifier(a in arb_atom(), b in arb_atom()) {
        if let Some(mgu) = unify_atoms(&a, &b) {
            prop_assert_eq!(mgu.apply_atom(&a), mgu.apply_atom(&b));
        }
    }

    #[test]
    fn unification_is_symmetric_in_success(a in arb_atom(), b in arb_atom()) {
        prop_assert_eq!(unify_atoms(&a, &b).is_some(), unify_atoms(&b, &a).is_some());
    }

    #[test]
    fn canonicalize_is_idempotent_and_invariant(rule in arb_rule()) {
        let c1 = rule.canonicalize();
        let c2 = c1.canonicalize();
        prop_assert_eq!(&c1, &c2);
        // Renaming apart then canonicalizing gives the same canonical form.
        let mut gen = qc_datalog::VarGen::new();
        let renamed = rule.rename_apart(&mut gen);
        prop_assert_eq!(c1, renamed.canonicalize());
    }

    #[test]
    fn evaluation_is_monotone_in_facts(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let prog = qc_datalog::parse_program(
            "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).",
        ).unwrap();
        let mut db = Database::new();
        let mut tuples = Vec::new();
        for _ in 0..rng.gen_range(1..10) {
            let t = vec![Term::int(rng.gen_range(0..5)), Term::int(rng.gen_range(0..5))];
            db.insert("e", t.clone());
            tuples.push(t);
        }
        let small = evaluate(&prog, &db, &EvalOptions::default()).unwrap();
        // Add more facts: answers only grow.
        let mut db2 = db.clone();
        for _ in 0..3 {
            db2.insert("e", vec![Term::int(rng.gen_range(0..6)), Term::int(rng.gen_range(0..6))]);
        }
        let big = evaluate(&prog, &db2, &EvalOptions::default()).unwrap();
        for fact in small.facts() {
            prop_assert!(big.contains_atom(&fact), "lost {fact} after adding facts");
        }
    }

    #[test]
    fn ground_comparisons_match_rational_order(a in -20i64..20, b in -20i64..20) {
        for op in CompOp::ALL {
            let c = Comparison::new(Term::int(a), op, Term::int(b));
            prop_assert_eq!(c.eval_ground(), Some(op.eval(a.cmp(&b))));
        }
    }

    #[test]
    fn parser_never_panics(input in "\\PC*") {
        // Arbitrary printable input: the parser must return Ok or Err,
        // never panic.
        let _ = parse_rule(&input);
        let _ = qc_datalog::parse_program(&input);
        let _ = qc_datalog::parse_term(&input);
    }

    #[test]
    fn parser_never_panics_on_datalogish_soup(seed in any::<u64>()) {
        // Token soup biased toward datalog syntax exercises deeper paths.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tokens = [
            "q", "(", ")", ",", ".", ":-", "X", "y", "123", "-", "<", "<=",
            "!=", "'a b'", "_", "%c\n", "f", " ",
        ];
        let soup: String = (0..rng.gen_range(0..30))
            .map(|_| tokens[rng.gen_range(0..tokens.len())])
            .collect();
        let _ = parse_rule(&soup);
        let _ = qc_datalog::parse_program(&soup);
    }

    #[test]
    fn unfold_preserves_answers(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Nonrecursive layered program; unfolding must preserve answers.
        let prog = qc_datalog::parse_program(
            "q(X, Z) :- h(X, Y), h(Y, Z).
             h(X, Y) :- e(X, Y).
             h(X, Y) :- f(X, Y).",
        ).unwrap();
        let ucq = prog.unfold(&qc_datalog::Symbol::new("q")).unwrap();
        let unfolded_prog = Program::new(ucq.to_rules());
        let mut db = Database::new();
        for p in ["e", "f"] {
            for _ in 0..rng.gen_range(0..6) {
                db.insert(p, vec![Term::int(rng.gen_range(0..4)), Term::int(rng.gen_range(0..4))]);
            }
        }
        let direct = qc_datalog::eval::answers(&prog, &db, &qc_datalog::Symbol::new("q"), &EvalOptions::default()).unwrap();
        let via_ucq = qc_datalog::eval::answers(&unfolded_prog, &db, &qc_datalog::Symbol::new("q"), &EvalOptions::default()).unwrap();
        let d: std::collections::BTreeSet<_> = direct.tuples().iter().cloned().collect();
        let u: std::collections::BTreeSet<_> = via_ucq.tuples().iter().cloned().collect();
        prop_assert_eq!(d, u);
    }
}
