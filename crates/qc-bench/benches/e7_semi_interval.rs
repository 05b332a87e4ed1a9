//! E7 — §5 comparison predicates: Example 4's plan construction, the
//! Klug dense-order containment test (fast path vs full linearization
//! enumeration), and Theorem 5.1/5.3 relative-containment decisions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qc_bench::example1;
use qc_containment::cq_contained;
use qc_datalog::{parse_program, parse_query, Symbol};
use qc_mediator::relative::{relatively_contained, semi_interval_plan};
use qc_mediator::schema::LavSetting;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_semi_interval");
    g.sample_size(10);

    let (views, _) = example1();
    let q3 = parse_query(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap();
    g.bench_function("example4_plan_construction", |b| {
        b.iter(|| semi_interval_plan(&q3, &views).unwrap())
    });

    // Klug test, fast path (entailed constraints).
    let a = parse_query("q(X) :- car(X, Y), Y < 1960.").unwrap();
    let b_ = parse_query("q(X) :- car(X, Y), Y < 1970.").unwrap();
    g.bench_function("klug_fast_path", |bch| bch.iter(|| cq_contained(&a, &b_)));

    // Klug test, full enumeration (needs the linearization split), with a
    // growing number of unconstrained terms.
    for extra in [0usize, 1, 2, 3] {
        let mut body1 = String::from("r(A), s(B)");
        for i in 0..extra {
            body1.push_str(&format!(", t{i}(C{i})"));
        }
        let q1 = parse_query(&format!("q() :- {body1}.")).unwrap();
        let q2 = parse_query(&format!("q() :- {body1}, A <= B.")).unwrap();
        // contained: needs linearization reasoning when A <= B must be
        // matched per ordering... target maps A,B identically so the fast
        // path may fail; the sweep measures enumeration growth.
        g.bench_with_input(
            BenchmarkId::new("klug_enumeration_terms", 2 + extra),
            &(q1, q2),
            |bch, (q1, q2)| bch.iter(|| cq_contained(q1, q2)),
        );
    }

    // Theorem 5.1 decisions on the dealer scenario.
    let dealer = LavSetting::parse(&[
        "Sixties(Car, Year) :- forsale(Car, Year), Year >= 1960, Year < 1970.",
        "PreWar(Car, Year) :- forsale(Car, Year), Year < 1939.",
        "AnyCar(Car, Year) :- forsale(Car, Year).",
    ])
    .unwrap();
    let antique = parse_program("qa(C) :- forsale(C, Y), Y < 1970.").unwrap();
    let vintage = parse_program("qv(C) :- forsale(C, Y), Y < 1950.").unwrap();
    g.bench_function("thm51_decision", |bch| {
        bch.iter(|| {
            relatively_contained(
                &vintage,
                &Symbol::new("qv"),
                &antique,
                &Symbol::new("qa"),
                &dealer,
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
