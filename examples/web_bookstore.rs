//! Binding patterns (§4): querying web sources with access restrictions.
//!
//! ```sh
//! cargo run --example web_bookstore
//! ```
//!
//! Models the paper's Amazon motivation: "one cannot ask for all books
//! and their prices; instead, one obtains the price of a book only if the
//! ISBN is given as input". Sources carry adornments, query plans must be
//! *executable* (Definition 4.1), finding all *reachable certain answers*
//! requires a recursive plan (with a `dom` predicate harvesting constants),
//! and relative containment is decided per Theorems 4.1/4.2.

use relcont::datalog::eval::EvalOptions;
use relcont::datalog::{parse_program, parse_rule, Database, Symbol};
use relcont::mediator::binding::{executable_plan, is_executable_rule, reachable_certain_answers};
use relcont::mediator::relative::{decide, Question, RelativeError, Sources};
use relcont::mediator::schema::LavSetting;

fn main() {
    // Mediated schema: authored(Isbn, Author), price(Isbn, Price),
    // cites(Paper1, Paper2). Three web sources with access limitations:
    let mut views = LavSetting::parse(&[
        // Give an author, get their ISBNs.
        "ByAuthor(Author, Isbn) :- authored(Isbn, Author).",
        // Give an ISBN, get its price.
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
        // Give a paper, get the papers it cites.
        "Cites(P1, P2) :- cites(P1, P2).",
    ])
    .unwrap();
    views.sources[0] = views.sources[0].clone().with_adornment("bf");
    views.sources[1] = views.sources[1].clone().with_adornment("bf");
    views.sources[2] = views.sources[2].clone().with_adornment("bf");
    println!("== Adorned sources ==");
    for s in &views.sources {
        println!("  {}^{}  {}", s.name, s.adornments[0], s.view.to_rule());
    }

    // Executability (Definition 4.1).
    println!("\n== Executability ==");
    for src in [
        "q(P) :- ByAuthor(eco, I), PriceOf(I, P).",
        "q(P) :- PriceOf(I, P).",
    ] {
        let rule = parse_rule(src).unwrap();
        println!(
            "  {:49} executable: {}",
            src,
            is_executable_rule(&rule, &views)
        );
    }

    // The prices of Umberto Eco's books.
    let q = parse_program("q(P) :- authored(I, eco), price(I, P).").unwrap();
    println!("\n== Executable maximally-contained plan (recursive through dom) ==");
    let plan = executable_plan(&q, &views);
    for r in plan.rules() {
        println!("  {r}");
    }
    println!("  plan is recursive: {}", plan.is_recursive());

    let instance = Database::parse(
        "ByAuthor(eco, i1). ByAuthor(eco, i2).
         PriceOf(i1, 30). PriceOf(i2, 45). PriceOf(i9, 99).",
    )
    .unwrap();
    let got = reachable_certain_answers(
        &q,
        &Symbol::new("q"),
        &views,
        &instance,
        &EvalOptions::default(),
    )
    .unwrap();
    let mut rows: Vec<String> = got.tuples().iter().map(|t| t[0].to_string()).collect();
    rows.sort();
    println!("\n== Reachable certain answers ==");
    println!("  prices of eco's books: {{{}}}", rows.join(", "));
    println!("  (i9's price 99 exists in the source but is unreachable)");

    // Transitive citation chains need recursion *in the plan* even though
    // the query below is conjunctive in spirit; here we pose the recursive
    // query directly (reachability from a seed paper).
    let qc = parse_program("reach(P) :- cites(p0, P). reach(P) :- reach(Q), cites(Q, P).").unwrap();
    let citations =
        Database::parse("Cites(p0, p1). Cites(p1, p2). Cites(p2, p3). Cites(p9, p8).").unwrap();
    let got = reachable_certain_answers(
        &qc,
        &Symbol::new("reach"),
        &views,
        &citations,
        &EvalOptions::default(),
    )
    .unwrap();
    let mut rows: Vec<String> = got.tuples().iter().map(|t| t[0].to_string()).collect();
    rows.sort();
    println!("\n== Transitive harvesting through dom ==");
    println!("  papers reachable from p0: {{{}}}", rows.join(", "));

    // Relative containment with binding patterns (Theorems 4.1/4.2).
    // "All prices" sounds strictly broader than "prices of eco's books" —
    // but with these access patterns a sound plan for the broad query has
    // no constant to start calling sources with, so its reachable certain
    // answers are always empty and the containment holds vacuously.
    println!("\n== Relative containment with binding patterns ==");
    let contained_bp = |q1, a1: &str, q2, a2: &str| -> Result<bool, RelativeError> {
        let question = Question {
            binding_patterns: true,
            ..Question::new(q1, &Symbol::new(a1), q2, &Symbol::new(a2))
        };
        decide(&question, Sources::Views(&views))?.holds()
    };
    let q_eco = parse_program("qe(P) :- authored(I, eco), price(I, P).").unwrap();
    let q_all = parse_program("qa(P) :- price(I, P).").unwrap();
    let c1 = contained_bp(&q_all, "qa", &q_eco, "qe").unwrap();
    println!("  Q_all_prices \u{2291}_V,B Q_eco: {c1}  (no reachable answers at all)");
    // The reverse direction violates Definition 4.5's precondition: the
    // contained side may only use constants that also appear on the
    // containing side (here `eco` does not).
    match contained_bp(&q_eco, "qe", &q_all, "qa") {
        Ok(c2) => println!("  Q_eco \u{2291}_V,B Q_all_prices: {c2}"),
        Err(e) => println!("  Q_eco \u{2291}_V,B Q_all_prices: n/a ({e})"),
    }
    // Against a query that shares the constant, the check runs — and the
    // redundant extra subgoal keeps the two queries relatively equivalent.
    let q_eco2 = parse_program("qf(P) :- authored(I, eco), price(I, P), authored(I, A).").unwrap();
    let both = contained_bp(&q_eco, "qe", &q_eco2, "qf").unwrap()
        && contained_bp(&q_eco2, "qf", &q_eco, "qe").unwrap();
    println!("  Q_eco \u{2261}_V,B Q_eco': {both}");
}
