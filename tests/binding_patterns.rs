//! Experiment E6: §4 — binding patterns. Executable plans, reachable
//! certain answers, the recursion-necessity phenomenon, and the
//! Theorem 4.1/4.2 decision procedure.

use relcont::datalog::eval::EvalOptions;
use relcont::datalog::{parse_program, parse_rule, Database, Program, Symbol, Term};
use relcont::mediator::binding::{
    executable_plan, is_executable_program, is_executable_rule, reachable_certain_answers,
};
use relcont::mediator::relative::{
    decide, relatively_contained, Decision, Question, RelativeError, Sources, Verdict, Witness,
};
use relcont::mediator::schema::LavSetting;

fn s(n: &str) -> Symbol {
    Symbol::new(n)
}

/// `Q1 ⊑_{V,B} Q2` (Definition 4.5).
fn decide_bp(
    q1: &Program,
    a1: &Symbol,
    q2: &Program,
    a2: &Symbol,
    v: &LavSetting,
) -> Result<Decision, RelativeError> {
    let question = Question {
        binding_patterns: true,
        ..Question::new(q1, a1, q2, a2)
    };
    decide(&question, Sources::Views(v))
}

fn contained_bp(
    q1: &Program,
    a1: &Symbol,
    q2: &Program,
    a2: &Symbol,
    v: &LavSetting,
) -> Result<bool, RelativeError> {
    decide_bp(q1, a1, q2, a2, v)?.holds()
}

/// The paper's §4.1 example: RedCars now requires the model as input.
fn redcars_fbf() -> LavSetting {
    let mut v = LavSetting::parse(&[
        "RedCars(CarNo, Model, Year) :- CarDescription(CarNo, Model, red, Year).",
    ])
    .unwrap();
    v.sources[0] = v.sources[0].clone().with_adornment("fbf").unwrap();
    v
}

#[test]
fn definition_4_1_executability() {
    let v = redcars_fbf();
    // The paper's "cheating" plan IS executable (it supplies a constant)…
    let cheat = parse_rule("p(CarNo, Year) :- RedCars(CarNo, corolla, Year).").unwrap();
    assert!(is_executable_rule(&cheat, &v));
    // …but the direct plan is not.
    let direct = parse_rule("p(CarNo, Year) :- RedCars(CarNo, Model, Year).").unwrap();
    assert!(!is_executable_rule(&direct, &v));
}

#[test]
fn definition_4_2_soundness_excludes_invented_constants() {
    // The cheating plan invents 'corolla', which appears in neither the
    // query nor the views; the reachable certain answers must be empty
    // even though the source contains a red corolla.
    let v = redcars_fbf();
    let q = parse_program("q(CarNo, Year) :- CarDescription(CarNo, Model, red, Year).").unwrap();
    let db = Database::parse("RedCars(c1, corolla, 1988).").unwrap();
    let got = reachable_certain_answers(&q, &s("q"), &v, &db, &EvalOptions::default()).unwrap();
    assert!(got.is_empty());
}

#[test]
fn executable_plans_are_recursive_and_executable() {
    let mut v = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .unwrap();
    v.sources[0] = v.sources[0].clone().with_adornment("bf").unwrap();
    v.sources[1] = v.sources[1].clone().with_adornment("bf").unwrap();
    let q = parse_program("q(P) :- authored(I, eco), price(I, P).").unwrap();
    let plan = executable_plan(&q, &v);
    assert!(plan.is_recursive());
    assert!(is_executable_program(&plan, &v));
    // dom is seeded with the query constant.
    assert!(plan.rules().iter().any(|r| r.to_string() == "dom(eco)."));
}

#[test]
fn recursion_is_necessary_for_reachability() {
    // Kwok–Weld-style citation chains: a nonrecursive plan of depth k
    // misses papers at depth > k; the dom-recursive plan finds them all.
    let mut v = LavSetting::parse(&["Cites(P1, P2) :- cites(P1, P2)."]).unwrap();
    v.sources[0] = v.sources[0].clone().with_adornment("bf").unwrap();
    let q = parse_program("q(P) :- cites(p0, P). q(P) :- q(Q), cites(Q, P).").unwrap();
    // A long chain.
    let mut facts = String::new();
    for i in 0..12 {
        facts.push_str(&format!("Cites(p{}, p{}). ", i, i + 1));
    }
    let db = Database::parse(&facts).unwrap();
    let got = reachable_certain_answers(&q, &s("q"), &v, &db, &EvalOptions::default()).unwrap();
    assert_eq!(got.len(), 12);
    assert!(got.contains(&vec![Term::sym("p12")]));
}

#[test]
fn theorem_4_1_4_2_decisions() {
    let mut v = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .unwrap();
    v.sources[0] = v.sources[0].clone().with_adornment("bf").unwrap();
    v.sources[1] = v.sources[1].clone().with_adornment("bf").unwrap();

    let q_eco = parse_program("qe(P) :- authored(I, eco), price(I, P).").unwrap();
    // Adding a redundant subgoal keeps relative equivalence.
    let q_eco_red =
        parse_program("qf(P) :- authored(I, eco), price(I, P), authored(I, A).").unwrap();
    assert!(contained_bp(&q_eco, &s("qe"), &q_eco_red, &s("qf"), &v).unwrap());
    assert!(contained_bp(&q_eco_red, &s("qf"), &q_eco, &s("qe"), &v).unwrap());

    // A genuinely stronger query is not relatively contained in: prices
    // of eco's books are not always prices of kafka's books... with eco
    // and kafka both known, both reachable sets exist and differ.
    let q_two =
        parse_program("qt(P) :- authored(I, eco), price(I, P), authored(I2, kafka), price(I2, P).")
            .unwrap();
    // qe ⋢ qt (qt requires a kafka-priced match too).
    assert!(!contained_bp(&q_eco, &s("qe"), &q_two, &s("qt"), &v).unwrap());
    // qt ⊑ qe... qt's constants include kafka which qe lacks — the
    // Definition 4.5 precondition fails.
    assert!(contained_bp(&q_two, &s("qt"), &q_eco, &s("qe"), &v).is_err());

    // A broad query with no constants is vacuously contained (its sound
    // plans retrieve nothing).
    let q_all = parse_program("qa(P) :- price(I, P).").unwrap();
    assert!(contained_bp(&q_all, &s("qa"), &q_eco, &s("qe"), &v).unwrap());
}

#[test]
fn bp_witness_expansion_explains_failure() {
    let mut v = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .unwrap();
    v.sources[0] = v.sources[0].clone().with_adornment("bf").unwrap();
    v.sources[1] = v.sources[1].clone().with_adornment("bf").unwrap();
    let q_eco = parse_program("qe(P) :- authored(I, eco), price(I, P).").unwrap();
    let q_strong = parse_program(
        "qs(P) :- authored(I, eco), price(I, P), price(I2, P), authored(I2, eco), cites(I, I2).",
    )
    .unwrap();
    // qe ⋢ qs (the citation atom is never guaranteed); the witness is a
    // concrete expansion over the mediated schema.
    let got = decide_bp(&q_eco, &s("qe"), &q_strong, &s("qs"), &v).unwrap();
    assert_eq!(got.verdict, Verdict::NotContained);
    let Some(Witness::Expansion(w)) = got.witness else {
        panic!("witness found within budget: {:?}", got.witness);
    };
    assert!(w.subgoals.iter().any(|a| a.pred == "authored"), "{w}");
    assert!(w.subgoals.iter().all(|a| a.pred != "cites"), "{w}");
    // A holding containment has no witness.
    let ok = decide_bp(&q_eco, &s("qe"), &q_eco, &s("qe"), &v).unwrap();
    assert_eq!(ok.verdict, Verdict::Contained);
    assert!(ok.witness.is_none());
}

#[test]
fn binding_patterns_vs_unrestricted_relative_containment() {
    // Without adornments, the broad query is NOT contained in the eco
    // query; the access restrictions are exactly what flips it.
    let v_free = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .unwrap();
    let q_eco = parse_program("qe(P) :- authored(I, eco), price(I, P).").unwrap();
    let q_all = parse_program("qa(P) :- price(I, P).").unwrap();
    assert!(!relatively_contained(&q_all, &s("qa"), &q_eco, &s("qe"), &v_free).unwrap());

    let mut v_bound = v_free.clone();
    v_bound.sources[0] = v_bound.sources[0].clone().with_adornment("bf").unwrap();
    v_bound.sources[1] = v_bound.sources[1].clone().with_adornment("bf").unwrap();
    assert!(contained_bp(&q_all, &s("qa"), &q_eco, &s("qe"), &v_bound).unwrap());
}

#[test]
fn multiple_adornments_model_multiple_access_paths() {
    // A phone book searchable by name OR by number ("it is
    // straightforward to generalize our results" — §4 on adornment sets).
    let mut v = LavSetting::parse(&["Phonebook(Name, Number) :- listing(Name, Number)."]).unwrap();
    v.sources[0] = v.sources[0]
        .clone()
        .with_adornment("bf")
        .unwrap()
        .with_adornment("fb")
        .unwrap();
    let db = Database::parse("Phonebook(alice, 111). Phonebook(bob, 222).").unwrap();

    // Starting from a name, the name->number path applies.
    let q_by_name = parse_program("q(N) :- listing(alice, N).").unwrap();
    let got =
        reachable_certain_answers(&q_by_name, &s("q"), &v, &db, &EvalOptions::default()).unwrap();
    assert!(got.contains(&vec![Term::int(111)]));

    // Starting from a number, the number->name path applies.
    let q_by_number = parse_program("q(N) :- listing(N, 222).").unwrap();
    let got =
        reachable_certain_answers(&q_by_number, &s("q"), &v, &db, &EvalOptions::default()).unwrap();
    assert!(got.contains(&vec![Term::sym("bob")]));

    // With ONLY the name-bound path, the by-number query reaches nothing.
    let mut v_one =
        LavSetting::parse(&["Phonebook(Name, Number) :- listing(Name, Number)."]).unwrap();
    v_one.sources[0] = v_one.sources[0].clone().with_adornment("bf").unwrap();
    let got =
        reachable_certain_answers(&q_by_number, &s("q"), &v_one, &db, &EvalOptions::default())
            .unwrap();
    assert!(got.is_empty());

    // Executability with alternatives: a rule fine under "fb" but not
    // "bf" is executable when both paths exist.
    let r = parse_rule("q(N) :- Phonebook(N, 222).").unwrap();
    assert!(is_executable_rule(&r, &v));
    assert!(!is_executable_rule(&r, &v_one));
}

#[test]
fn reachable_answers_monotone_in_seeds() {
    // More query constants → larger dom → more reachable answers.
    let mut v = LavSetting::parse(&["Cites(P1, P2) :- cites(P1, P2)."]).unwrap();
    v.sources[0] = v.sources[0].clone().with_adornment("bf").unwrap();
    let db = Database::parse("Cites(p0, p1). Cites(p5, p6).").unwrap();
    let q_one: Program = parse_program("q(Y) :- cites(X, Y), cites(p0, Z).").unwrap();
    let one = reachable_certain_answers(&q_one, &s("q"), &v, &db, &EvalOptions::default()).unwrap();
    let q_two = parse_program("q(Y) :- cites(X, Y), cites(p0, Z), cites(p5, W).").unwrap();
    let two = reachable_certain_answers(&q_two, &s("q"), &v, &db, &EvalOptions::default()).unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(two.len(), 2);
}
