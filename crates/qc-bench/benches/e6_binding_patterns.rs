//! E6 — §4 binding patterns: executable-plan construction, reachable
//! certain answers over growing citation chains (the recursion-necessity
//! workload), and the Theorem 4.2 decision procedure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qc_datalog::eval::EvalOptions;
use qc_datalog::{parse_program, Database, Symbol};
use qc_mediator::binding::{executable_plan, reachable_certain_answers};
use qc_mediator::relative::{decide, Question, Sources};
use qc_mediator::schema::LavSetting;

fn adorned_views() -> LavSetting {
    let mut v = LavSetting::parse(&["Cites(P1, P2) :- cites(P1, P2)."]).unwrap();
    v.sources[0] = v.sources[0].clone().with_adornment("bf");
    v
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_binding_patterns");
    g.sample_size(10);

    let views = adorned_views();
    let q = parse_program("q(P) :- cites(p0, P). q(P) :- q(Q2), cites(Q2, P).").unwrap();

    g.bench_function("plan_construction", |b| {
        b.iter(|| executable_plan(&q, &views))
    });

    // Reachable certain answers as the chain (and hence dom recursion
    // depth) grows.
    for len in [16usize, 64, 256, 1024] {
        let mut facts = String::new();
        for i in 0..len {
            facts.push_str(&format!("Cites(p{}, p{}). ", i, i + 1));
        }
        let db = Database::parse(&facts).unwrap();
        g.bench_with_input(BenchmarkId::new("reachable_chain", len), &db, |b, db| {
            b.iter(|| {
                reachable_certain_answers(
                    &q,
                    &Symbol::new("q"),
                    &views,
                    db,
                    &EvalOptions::default(),
                )
                .unwrap()
            })
        });
    }

    // Theorem 4.2 decision: relative containment with binding patterns.
    let mut v2 = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .unwrap();
    v2.sources[0] = v2.sources[0].clone().with_adornment("bf");
    v2.sources[1] = v2.sources[1].clone().with_adornment("bf");
    let q_eco = parse_program("qe(P) :- authored(I, eco), price(I, P).").unwrap();
    let q_red = parse_program("qf(P) :- authored(I, eco), price(I, P), authored(I, A).").unwrap();
    g.bench_function("thm42_decision", |b| {
        b.iter(|| {
            let question = Question {
                binding_patterns: true,
                ..Question::new(&q_eco, &Symbol::new("qe"), &q_red, &Symbol::new("qf"))
            };
            decide(&question, Sources::Views(&v2)).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
