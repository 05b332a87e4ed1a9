//! A guided tour of every result in the paper, in order.
//!
//! ```sh
//! cargo run --release --example paper_walkthrough
//! ```
//!
//! Walks §1–§6 of "Query Containment for Data Integration Systems"
//! (Millstein, Levy, Friedman; PODS 2000), executing each example and a
//! demonstration of each theorem with the machinery of this repository.

use relcont::containment::cq_contained;
use relcont::datalog::eval::EvalOptions;
use relcont::datalog::{parse_program, parse_query, Database, Symbol};
use relcont::mediator::binding::reachable_certain_answers;
use relcont::mediator::certain::{BruteForceOracle, OracleAnswer, World};
use relcont::mediator::fn_elim::eliminate_function_terms;
use relcont::mediator::inverse_rules::{inverse_rules, max_contained_plan};
use relcont::mediator::minicon::semi_interval_plan;
use relcont::mediator::reductions::{thm33_reduction, Cnf3, CnfVar, Lit};
use relcont::mediator::relative::{
    decide, explain_containment, relatively_contained, Question, Sources,
};
use relcont::mediator::schema::LavSetting;

fn heading(s: &str) {
    println!("\n==== {s} ====");
}

fn main() {
    let s = |n: &str| Symbol::new(n);

    // ------------------------------------------------------------- §1/§2
    heading("§1–2 · Example 1: the car/review mediated schema");
    let views = LavSetting::parse(&[
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).",
        "AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.",
        "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    ])
    .unwrap();
    let q1 = parse_program(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    )
    .unwrap();
    let q2 = parse_program(
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
    )
    .unwrap();
    let q3 = parse_program(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap();
    let cq1 = parse_query(&q1.rules()[0].to_string()).unwrap();
    let cq2 = parse_query(&q2.rules()[0].to_string()).unwrap();
    println!(
        "classically:  Q2 \u{2286} Q1: {}   Q1 \u{2286} Q2: {}",
        cq_contained(&cq2, &cq1),
        cq_contained(&cq1, &cq2)
    );
    println!(
        "relative:     Q1 explained vs Q2: {}",
        explain_containment(&q1, &s("q1"), &q2, &s("q2"), &views).unwrap()
    );
    println!(
        "              Q1 explained vs Q3: {}",
        explain_containment(&q1, &s("q1"), &q3, &s("q3"), &views).unwrap()
    );
    println!(
        "without RedCars: Q1 vs Q3: {}",
        explain_containment(&q1, &s("q1"), &q3, &s("q3"), &views.without("RedCars")).unwrap()
    );

    // --------------------------------------------------------------- §2.3
    heading("§2.3 · Examples 2 & 3: maximally-contained plans");
    println!("inverse rules:");
    for r in inverse_rules(&views).rules() {
        println!("  {r}");
    }
    let elim = eliminate_function_terms(&max_contained_plan(&q1, &views)).unwrap();
    println!("after function-term elimination, unfolded:");
    for d in elim.unfold(&s("q1")).unwrap().disjuncts {
        println!("  {}", d.tidy_names().to_rule());
    }

    // ----------------------------------------------------------------- §3
    heading("§3 · Theorem 3.3: the Π₂ᵖ-hardness reduction, live");
    let l = |var, positive| Lit { var, positive };
    let f = Cnf3 {
        num_x: 2,
        num_y: 2,
        clauses: vec![
            [
                l(CnfVar::X(0), true),
                l(CnfVar::X(1), true),
                l(CnfVar::Y(0), true),
            ],
            [
                l(CnfVar::X(0), false),
                l(CnfVar::X(1), false),
                l(CnfVar::Y(1), true),
            ],
        ],
    };
    let inst = thm33_reduction(&f);
    let decided = relatively_contained(
        &inst.contained,
        &inst.contained_ans,
        &inst.container,
        &inst.container_ans,
        &inst.views,
    )
    .unwrap();
    println!(
        "(x1\u{2228}x2\u{2228}y1) \u{2227} (\u{ac}x1\u{2228}\u{ac}x2\u{2228}y2):  \u{2200}\u{2203}-sat = {}   Q2' \u{2291}_V Q1' = {}",
        f.is_forall_exists_satisfiable(),
        decided
    );

    // ----------------------------------------------------------------- §4
    heading("§4 · Binding patterns: executable recursive plans");
    let mut adorned = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .unwrap();
    adorned.sources[0] = adorned.sources[0].clone().with_adornment("bf");
    adorned.sources[1] = adorned.sources[1].clone().with_adornment("bf");
    let q_eco = parse_program("qe(P) :- authored(I, eco), price(I, P).").unwrap();
    let db = Database::parse("Catalog(eco, i1). PriceOf(i1, 30). PriceOf(i9, 99).").unwrap();
    let got = reachable_certain_answers(&q_eco, &s("qe"), &adorned, &db, &EvalOptions::default())
        .unwrap();
    println!(
        "reachable certain answers for eco's prices: {:?}  (99 is unreachable)",
        got.tuples()
            .iter()
            .map(|t| t[0].to_string())
            .collect::<Vec<_>>()
    );
    let q_all = parse_program("qa(P) :- price(I, P).").unwrap();
    let question = Question {
        binding_patterns: true,
        ..Question::new(&q_all, &s("qa"), &q_eco, &s("qe"))
    };
    println!(
        "Thm 4.2 decision  Q_all \u{2291}_V,B Q_eco: {}",
        decide(&question, Sources::Views(&adorned))
            .and_then(|d| d.holds())
            .unwrap()
    );

    // ----------------------------------------------------------------- §5
    heading("§5 · Example 4: semi-interval plans");
    let cq3 = parse_query(&q3.rules()[0].to_string()).unwrap();
    for d in semi_interval_plan(&cq3, &views).disjuncts {
        println!("  {}", d.tidy_names().to_rule());
    }

    // ----------------------------------------------------------------- §6
    heading("§6 · Example 5: open vs closed world");
    let mut ow = LavSetting::parse(&[
        "v1(X) :- p(X, Y).",
        "v2(Y) :- p(X, Y).",
        "v3(X, Y) :- p(X, Y), r(X, Y).",
    ])
    .unwrap();
    let qa = parse_program("qa(X, Y) :- p(X, Y).").unwrap();
    let instance = Database::parse("v1(a). v2(b).").unwrap();
    let open = BruteForceOracle::with_symbols(&["a", "b"], World::Open)
        .certain(&qa, &s("qa"), &ow, &instance, &EvalOptions::default())
        .unwrap();
    println!("open world:   certain(Q1, {{v1(a), v2(b)}}) = {open:?}");
    ow.sources[0].complete = true;
    ow.sources[1].complete = true;
    let closed = BruteForceOracle::with_symbols(&["a", "b"], World::AsDeclared)
        .certain(&qa, &s("qa"), &ow, &instance, &EvalOptions::default())
        .unwrap();
    match closed {
        OracleAnswer::Certain(set) => println!(
            "closed world: certain(Q1, ...) = {:?}  — p(a, b) is forced",
            set.iter()
                .map(|t| format!("({}, {})", t[0], t[1]))
                .collect::<Vec<_>>()
        ),
        OracleAnswer::Inconsistent => println!("closed world: inconsistent"),
    }
    println!("\n(every claim above is also asserted by the test suite)");
}
