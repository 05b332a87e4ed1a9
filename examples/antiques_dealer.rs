//! Comparison predicates (§5): semi-interval constraints in queries and
//! views.
//!
//! ```sh
//! cargo run --example antiques_dealer
//! ```
//!
//! Reproduces Example 4 (the maximally-contained plan `P3` for the
//! antiques query `Q3`, where the `AntiqueCars` view already guarantees
//! `Year < 1970` so its disjunct needs no explicit constraint) and then
//! explores Theorem 5.1/5.3-style relative containments in a dealership
//! scenario.

use relcont::datalog::{parse_program, parse_query, Symbol};
use relcont::mediator::relative::{
    max_contained_ucq_plan, relatively_contained, semi_interval_plan,
};
use relcont::mediator::schema::LavSetting;

fn main() {
    let views = LavSetting::parse(&[
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).",
        "AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.",
        "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    ])
    .unwrap();

    // Example 4: the maximally-contained plan for Q3.
    let q3 = parse_query(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap();
    println!("== Example 4: maximally-contained plan P3 for Q3 ==");
    let p3 = semi_interval_plan(&q3, &views).unwrap();
    for d in &p3.disjuncts {
        println!("  {}", d.tidy_names().to_rule());
    }
    println!("  (RedCars needs the explicit Year < 1970; AntiqueCars guarantees it)");

    // "Because P3 does not contain plan P1', we know that Q3 does not
    //  contain Q1 relative to the views."
    let q1 = parse_program(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    )
    .unwrap();
    let q3p = parse_program(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap();
    let s = |n: &str| Symbol::new(n);
    println!("\n== Relative containments around Q3 ==");
    println!(
        "  Q1 \u{2291}_V Q3: {}",
        relatively_contained(&q1, &s("q1"), &q3p, &s("q3"), &views).unwrap()
    );
    println!(
        "  Q3 \u{2291}_V Q1: {}",
        relatively_contained(&q3p, &s("q3"), &q1, &s("q1"), &views).unwrap()
    );

    // A dealership scenario: overlapping year windows.
    println!("\n== Dealer scenario: year windows ==");
    let dealer_views = LavSetting::parse(&[
        "Sixties(Car, Year) :- forsale(Car, Year), Year >= 1960, Year < 1970.",
        "PreWar(Car, Year) :- forsale(Car, Year), Year < 1939.",
        "AnyCar(Car, Year) :- forsale(Car, Year).",
    ])
    .unwrap();
    let antique = parse_program("qa(C) :- forsale(C, Y), Y < 1970.").unwrap();
    let vintage = parse_program("qv(C) :- forsale(C, Y), Y < 1950.").unwrap();
    let all = parse_program("qq(C) :- forsale(C, Y).").unwrap();

    // The plan for "vintage" can only use PreWar (Sixties is too late,
    // AnyCar is unconstrained).
    let vplan = max_contained_ucq_plan(&vintage, &s("qv"), &dealer_views).unwrap();
    println!("  plan for Q_vintage (< 1950):");
    for d in &vplan.disjuncts {
        println!("    {}", d.tidy_names().to_rule());
    }

    for (a, an, b, bn, note) in [
        (&vintage, "qv", &antique, "qa", "stronger window"),
        (
            &antique,
            "qa",
            &vintage,
            "qv",
            "certain antiques may be from the 60s",
        ),
        (&antique, "qa", &all, "qq", "window relaxed away"),
        (
            &all,
            "qq",
            &antique,
            "qa",
            "AnyCar answers escape every window",
        ),
    ] {
        let r = relatively_contained(a, &s(an), b, &s(bn), &dealer_views).unwrap();
        println!("  {an} \u{2291}_V {bn}: {r:5}  ({note})");
    }

    // Without the unconstrained AnyCar source, everything retrievable is
    // antique, so the broad query collapses into the antique one.
    let narrowed = dealer_views.without("AnyCar");
    let r = relatively_contained(&all, &s("qq"), &antique, &s("qa"), &narrowed).unwrap();
    println!("  qq \u{2291}_V qa without AnyCar: {r}  (all remaining sources are pre-1970)");
}
