//! E10 — ablation: engine design choices. Naive vs semi-naive evaluation
//! on transitive closure (chains are semi-naive's best case), and the
//! complete type-fixpoint procedure for datalog ⊆ UCQ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qc_containment::datalog_ucq::{datalog_contained_in_ucq, FixpointBudget};
use qc_datalog::eval::{evaluate, EvalOptions, Strategy};
use qc_datalog::{parse_program, parse_query, Symbol, Ucq};
use qc_mediator::workloads::chain_edb;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_engine_ablation");
    g.sample_size(10);

    // Naive vs semi-naive transitive closure over chains.
    let tc = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
    for len in [32usize, 64, 128] {
        let db = chain_edb("e", len);
        for (name, strategy) in [
            ("naive", Strategy::Naive),
            ("seminaive", Strategy::SemiNaive),
        ] {
            g.bench_with_input(BenchmarkId::new(format!("tc_{name}"), len), &db, |b, db| {
                b.iter(|| {
                    evaluate(
                        &tc,
                        db,
                        &EvalOptions {
                            strategy,
                            ..EvalOptions::default()
                        },
                    )
                    .unwrap()
                })
            });
        }
    }

    // The complete type fixpoint on a datalog ⊆ UCQ instance.
    let p = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
    let q_ucq = Ucq::single(parse_query("t(X, Y) :- e(X, A), e(B, Y).").unwrap());
    g.bench_function("type_fixpoint_complete", |b| {
        b.iter(|| {
            datalog_contained_in_ucq(&p, &Symbol::new("t"), &q_ucq, &FixpointBudget::default())
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
