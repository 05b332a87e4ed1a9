//! Experiments E2, E3, E7: the paper's plan-construction examples —
//! inverse rules (Example 2), function-term elimination (Example 3), and
//! the semi-interval plan (Example 4).

use relcont::containment::cq::ucq_equivalent;
use relcont::datalog::{parse_program, parse_query, Symbol, Term, Ucq};
use relcont::mediator::fn_elim::eliminate_function_terms;
use relcont::mediator::inverse_rules::{inverse_rules, max_contained_plan};
use relcont::mediator::minicon::minicon_rewritings;
use relcont::mediator::relative::semi_interval_plan;
use relcont::mediator::schema::LavSetting;

fn views() -> LavSetting {
    LavSetting::parse(&[
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).",
        "AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.",
        "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    ])
    .unwrap()
}

#[test]
fn example2_inverse_rules_exactly() {
    let inv = inverse_rules(&views());
    let printed: Vec<String> = inv.rules().iter().map(ToString::to_string).collect();
    assert_eq!(
        printed,
        vec![
            "CarDesc(CarNo, Model, red, Year) :- RedCars(CarNo, Model, Year).",
            "CarDesc(CarNo, Model, f_AntiqueCars_Color(CarNo, Model, Year), Year) :- AntiqueCars(CarNo, Model, Year).",
            "Review(Model, Review, 10) :- CarAndDriver(Model, Review).",
        ]
    );
}

#[test]
fn example3_function_free_plan() {
    let q1 = parse_program(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    )
    .unwrap();
    let plan = max_contained_plan(&q1, &views());
    assert!(plan.has_function_terms());
    let elim = eliminate_function_terms(&plan).unwrap();
    assert!(!elim.has_function_terms());
    let ucq = elim.unfold(&Symbol::new("q1")).unwrap();
    // P1' of Example 3: exactly the two conjunctive plans.
    let expected = Ucq::new(vec![
        parse_query(
            "q1(CarNo, Review) :- RedCars(CarNo, Model, Year), CarAndDriver(Model, Review).",
        )
        .unwrap(),
        parse_query(
            "q1(CarNo, Review) :- AntiqueCars(CarNo, Model, Year), CarAndDriver(Model, Review).",
        )
        .unwrap(),
    ])
    .unwrap();
    assert_eq!(ucq.disjuncts.len(), 2);
    assert!(ucq_equivalent(&ucq, &expected), "{ucq}");
}

#[test]
fn minicon_agrees_with_example3() {
    let q1 = parse_query(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    )
    .unwrap();
    let mc = minicon_rewritings(&q1, &views());
    let expected = Ucq::new(vec![
        parse_query(
            "q1(CarNo, Review) :- RedCars(CarNo, Model, Year), CarAndDriver(Model, Review).",
        )
        .unwrap(),
        parse_query(
            "q1(CarNo, Review) :- AntiqueCars(CarNo, Model, Year), CarAndDriver(Model, Review).",
        )
        .unwrap(),
    ])
    .unwrap();
    assert!(ucq_equivalent(&mc, &expected), "{mc}");
}

#[test]
fn example4_p3_exactly() {
    let q3 = parse_query(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap();
    let p3 = semi_interval_plan(&q3, &views()).unwrap();
    assert_eq!(p3.disjuncts.len(), 2, "{p3}");
    let red = p3
        .disjuncts
        .iter()
        .find(|d| d.subgoals.iter().any(|a| a.pred == "RedCars"))
        .expect("RedCars disjunct");
    assert_eq!(red.comparisons.len(), 1);
    assert_eq!(red.comparisons[0].rhs, Term::int(1970));
    let antique = p3
        .disjuncts
        .iter()
        .find(|d| d.subgoals.iter().any(|a| a.pred == "AntiqueCars"))
        .expect("AntiqueCars disjunct");
    assert!(antique.comparisons.is_empty());
}

#[test]
fn example4_p3_does_not_contain_p1() {
    // "Because P3 does not contain plan P1 from Example 3 ... we know
    //  that Q3 does not contain Q1 relative to the views."
    let q1 = parse_query(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    )
    .unwrap();
    let q3 = parse_query(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap();
    let p1 = minicon_rewritings(&q1, &views());
    let p3 = semi_interval_plan(&q3, &views()).unwrap();
    assert!(!relcont::containment::ucq_contained(&p1, &p3));
    // (and P1 does contain P3)
    assert!(relcont::containment::ucq_contained(&p3, &p1));
}

#[test]
fn inverse_rules_and_minicon_agree_on_random_workloads() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use relcont::mediator::workloads::{query_program, random_query, random_views, Shape};

    let mut rng = StdRng::seed_from_u64(20260705);
    let mut nonempty = 0;
    for trial in 0..40 {
        let shape = if trial % 2 == 0 {
            Shape::Chain
        } else {
            Shape::Star
        };
        let q = random_query(shape, 1 + trial % 3, 2, &mut rng);
        let v = random_views(3, 2, &mut rng);
        let mc = minicon_rewritings(&q, &v);
        let prog = query_program(&q);
        let inv = eliminate_function_terms(&max_contained_plan(&prog, &v)).unwrap();
        let inv_ucq = match inv.unfold(&Symbol::new("q")) {
            Ok(mut u) => {
                u.disjuncts
                    .retain(|d| d.subgoals.iter().all(|a| v.source(a.pred).is_some()));
                u
            }
            Err(_) => Ucq::empty("q", q.head.arity()),
        };
        if !mc.is_empty() {
            nonempty += 1;
        }
        assert!(
            ucq_equivalent(&mc, &inv_ucq),
            "trial {trial}:\nquery: {q}\nminicon: {mc}\ninverse: {inv_ucq}"
        );
    }
    assert!(nonempty >= 5, "workload too degenerate: {nonempty}");
}

#[test]
fn plan_positivity_mirrors_the_query() {
    // §2.3: "The maximally-contained query plan of a positive query is
    // positive, and the maximally-contained query plan of a recursive
    // query is recursive."
    use relcont::mediator::fn_elim::eliminate_function_terms;
    use relcont::mediator::inverse_rules::max_contained_plan;
    let v = views();
    let positive = qc_datalog_parse(
        "q(C) :- CarDesc(C, M, Col, Y).
         q(C) :- Review(C, R, S).",
    );
    let plan = eliminate_function_terms(&max_contained_plan(&positive, &v)).unwrap();
    assert!(!plan.is_recursive());

    let recursive = qc_datalog_parse(
        "r(X, Y) :- CarDesc(X, Y, C, Z).
         r(X, Y) :- r(X, W), CarDesc(W, Y, C, Z).",
    );
    let plan = eliminate_function_terms(&max_contained_plan(&recursive, &v)).unwrap();
    assert!(plan.is_recursive());
}

fn qc_datalog_parse(src: &str) -> relcont::datalog::Program {
    relcont::datalog::parse_program(src).unwrap()
}
