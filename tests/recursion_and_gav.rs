//! Experiments E6 (Theorem 3.2 recursion cases) and E11 (the GAV
//! corollary).

use relcont::datalog::{parse_program, Program, Symbol};
use relcont::mediator::gav::{gav_unfold, relatively_contained_gav, GavSetting};
use relcont::mediator::relative::{relatively_contained, RelativeError};
use relcont::mediator::schema::LavSetting;

fn s(n: &str) -> Symbol {
    Symbol::new(n)
}

fn prog(src: &str) -> Program {
    parse_program(src).unwrap()
}

#[test]
fn theorem_3_2_recursive_contained_side() {
    let v = LavSetting::parse(&["V(X, Y) :- edge(X, Y)."]).unwrap();
    let tc = prog("t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).");

    // TC ⊑ "endpoints touch edges".
    let loose = prog("s(X, Y) :- edge(X, A), edge(B, Y).");
    assert!(relatively_contained(&tc, &s("t"), &loose, &s("s"), &v).unwrap());
    // TC ⋢ "direct edge".
    let direct = prog("d(X, Y) :- edge(X, Y).");
    assert!(!relatively_contained(&tc, &s("t"), &direct, &s("d"), &v).unwrap());
    // TC ⋢ "path of length exactly two from X".
    let two = prog("w(X, Z) :- edge(X, Y), edge(Y, Z).");
    assert!(!relatively_contained(&tc, &s("t"), &two, &s("w"), &v).unwrap());
}

#[test]
fn theorem_3_2_with_projecting_views() {
    // The view hides edge targets: the recursive plan degenerates.
    let v = LavSetting::parse(&["V(X) :- edge(X, Y)."]).unwrap();
    let tc = prog("t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).");
    let direct = prog("d(X, Y) :- edge(X, Y).");
    // No certain answers for either: contained both ways.
    assert!(relatively_contained(&tc, &s("t"), &direct, &s("d"), &v).unwrap());
    assert!(relatively_contained(&direct, &s("d"), &tc, &s("t"), &v).unwrap());
}

#[test]
fn theorem_3_2_recursive_containing_side() {
    let v = LavSetting::parse(&["V(X, Y) :- edge(X, Y)."]).unwrap();
    let tc = prog("t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).");
    // Chains of length 3 ⊑ TC.
    let three = prog("w(X, W) :- edge(X, Y), edge(Y, Z), edge(Z, W).");
    assert!(relatively_contained(&three, &s("w"), &tc, &s("t"), &v).unwrap());
    // Reversed chain ⋢ TC.
    let rev = prog("r(X, Y) :- edge(Y, X).");
    assert!(!relatively_contained(&rev, &s("r"), &tc, &s("t"), &v).unwrap());
}

#[test]
fn doubly_recursive_rejected() {
    let v = LavSetting::parse(&["V(X, Y) :- edge(X, Y)."]).unwrap();
    let tc = prog("t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).");
    assert!(matches!(
        relatively_contained(&tc, &s("t"), &tc, &s("t"), &v),
        Err(RelativeError::Unsupported(_))
    ));
}

#[test]
fn mutual_recursion_through_helper() {
    let v = LavSetting::parse(&["V(X, Y) :- edge(X, Y)."]).unwrap();
    let even_odd = prog(
        "even(X, X) :- edge(X, Y).
         even(X, Z) :- odd(X, Y), edge(Y, Z).
         odd(X, Z) :- even(X, Y), edge(Y, Z).",
    );
    // Every even/odd expansion starts with an edge out of X, and ends
    // either back at X (the base rule) or at the target of an edge. So
    // `even` is contained in the union of those two patterns, and in
    // neither alone.
    let loose = prog(
        "s(X, X) :- edge(X, A).
         s(X, Y) :- edge(X, A), edge(B, Y).",
    );
    let r = relatively_contained(&even_odd, &s("even"), &loose, &s("s"), &v);
    assert_eq!(r, Ok(true));
    let ends_at_edge = prog("s(X, Y) :- edge(X, A), edge(B, Y).");
    let r = relatively_contained(&even_odd, &s("even"), &ends_at_edge, &s("s"), &v);
    assert_eq!(r, Ok(false));
}

#[test]
fn gav_corollary_basics() {
    let setting = GavSetting::parse(
        "car(Id, Model) :- dealerA(Id, Model).
         car(Id, Model) :- dealerB(Id, Model, Price).
         cheap(Id) :- dealerB(Id, M, P), P < 10000.",
    )
    .unwrap();
    let q_union = prog("q1(M) :- car(I, M).");
    let q_a = prog("q2(M) :- dealerA(I, M).");
    assert!(relatively_contained_gav(&q_a, &s("q2"), &q_union, &s("q1"), &setting).unwrap());
    assert!(!relatively_contained_gav(&q_union, &s("q1"), &q_a, &s("q2"), &setting).unwrap());

    // With comparisons through GAV definitions.
    let q_cheap_b = prog("q3(I) :- cheap(I).");
    let q_all_b = prog("q4(I) :- dealerB(I, M, P).");
    assert!(relatively_contained_gav(&q_cheap_b, &s("q3"), &q_all_b, &s("q4"), &setting).unwrap());
    assert!(!relatively_contained_gav(&q_all_b, &s("q4"), &q_cheap_b, &s("q3"), &setting).unwrap());
}

#[test]
fn gav_unfolding_shape() {
    let setting = GavSetting::parse("m(X, Z) :- s1(X, Y), s2(Y, Z).").unwrap();
    let q = prog("q(X) :- m(X, X).");
    let u = gav_unfold(&q, &s("q"), &setting).unwrap();
    assert_eq!(u.disjuncts.len(), 1);
    let d = &u.disjuncts[0];
    assert_eq!(d.subgoals.len(), 2);
    assert_eq!(d.subgoals[0].pred, "s1");
    assert_eq!(d.subgoals[1].pred, "s2");
    // The diagonal constraint survives unfolding.
    assert_eq!(d.subgoals[0].args[0], d.subgoals[1].args[1]);
}

#[test]
fn gav_vs_lav_on_mirroring_views() {
    // When GAV definitions and LAV views both just mirror relations,
    // both notions coincide with ordinary containment.
    let gav = GavSetting::parse("p(X, Y) :- sp(X, Y).").unwrap();
    let lav = LavSetting::parse(&["sp(X, Y) :- p(X, Y)."]).unwrap();
    let qa = prog("qa(X) :- p(X, Y).");
    let qb = prog("qb(X) :- p(X, X).");
    let g1 = relatively_contained_gav(&qb, &s("qb"), &qa, &s("qa"), &gav).unwrap();
    let l1 = relatively_contained(&qb, &s("qb"), &qa, &s("qa"), &lav).unwrap();
    assert_eq!(g1, l1);
    assert!(g1);
    let g2 = relatively_contained_gav(&qa, &s("qa"), &qb, &s("qb"), &gav).unwrap();
    let l2 = relatively_contained(&qa, &s("qa"), &qb, &s("qb"), &lav).unwrap();
    assert_eq!(g2, l2);
    assert!(!g2);
}
