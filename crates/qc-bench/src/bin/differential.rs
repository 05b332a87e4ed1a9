//! `differential` — randomized cross-validation harness.
//!
//! Runs every oracle pair from the property suite for a configurable
//! number of rounds and reports a summary — the "fuzzing" companion to
//! `cargo test`. Any disagreement is printed with a reproducer seed and
//! exits nonzero.
//!
//! ```sh
//! cargo run --release -p qc-bench --bin differential -- --rounds 200 --seed 7
//! ```
//!
//! Each oracle pair runs under a [`qc_obs::PipelineRecorder`]; the final
//! summary aggregates the per-pair pipeline reports (spans + engine
//! counters), and `--metrics-json PATH` dumps the merged report.

use std::process::ExitCode;
use std::sync::Arc;

use qc_containment::cq::ucq_equivalent;
use qc_containment::datalog_ucq::{datalog_contained_in_ucq, FixpointBudget};
use qc_datalog::eval::EvalOptions;
use qc_datalog::{Symbol, Ucq};
use qc_mediator::certain::certain_answers;
use qc_mediator::enumerate::{enumerated_plan, EnumerationLimits};
use qc_mediator::fn_elim::eliminate_function_terms;
use qc_mediator::inverse_rules::max_contained_plan;
use qc_mediator::minicon::{minicon_rewritings, semi_interval_skeletons};
use qc_mediator::reductions::{random_cnf3, thm33_reduction};
use qc_mediator::relative::{
    complete_semi_interval, max_contained_ucq_plan, relatively_contained,
    relatively_contained_by_plans,
};
use qc_mediator::workloads::{
    query_program, random_instance, random_query, random_semi_interval_question, random_views,
    Shape,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One oracle pair's outcome: the decision tally plus the pipeline report
/// collected while it ran (spans + engine counters).
struct OracleOutcome {
    name: &'static str,
    rounds: usize,
    disagreements: usize,
    report: qc_obs::PipelineReport,
}

fn main() -> ExitCode {
    let mut rounds = 100usize;
    let mut seed = 20260705u64;
    let mut metrics_json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rounds" => rounds = args.next().and_then(|v| v.parse().ok()).unwrap_or(rounds),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--metrics-json" => metrics_json = args.next(),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let mut all = Vec::new();
    all.push(run(
        "relative: expansion vs plan routes",
        rounds,
        seed,
        |rng| {
            let q1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
            let q2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
            let views = random_views(3, 2, rng);
            let a = relatively_contained(
                &query_program(&q1),
                &Symbol::new("q"),
                &query_program(&q2),
                &Symbol::new("q"),
                &views,
            )
            .unwrap();
            let b = relatively_contained_by_plans(
                &query_program(&q1),
                &Symbol::new("q"),
                &query_program(&q2),
                &Symbol::new("q"),
                &views,
            )
            .unwrap();
            a == b
        },
    ));

    all.push(run(
        "plans: minicon vs inverse rules",
        rounds,
        seed ^ 1,
        |rng| {
            let q = random_query(Shape::Star, 1 + rng.gen_range(0..3), 2, rng);
            let views = random_views(3, 2, rng);
            let mc = minicon_rewritings(&q, &views);
            let inv =
                eliminate_function_terms(&max_contained_plan(&query_program(&q), &views)).unwrap();
            let inv_ucq = match inv.unfold(&Symbol::new("q")) {
                Ok(mut u) => {
                    u.disjuncts
                        .retain(|d| d.subgoals.iter().all(|a| views.source(a.pred).is_some()));
                    u
                }
                Err(_) => Ucq::empty("q", q.head.arity()),
            };
            ucq_equivalent(&mc, &inv_ucq)
        },
    ));

    all.push(run(
        "plans: minicon vs literal enumeration",
        rounds / 4,
        seed ^ 2,
        |rng| {
            let q = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
            let views = random_views(2, 2, rng);
            let mc = minicon_rewritings(&q, &views);
            match enumerated_plan(&q, &views, &EnumerationLimits::default()) {
                Some(en) => ucq_equivalent(&mc, &en),
                None => true, // budget exhausted — skip
            }
        },
    ));

    all.push(run(
        "plans: Thm 5.1 (inverse-rule vs MiniCon skeletons)",
        rounds,
        seed ^ 7,
        |rng| {
            let (q, _, views) = random_semi_interval_question(rng);
            let plan = max_contained_ucq_plan(&query_program(&q), &q.head.pred, &views).unwrap();
            let reference =
                complete_semi_interval(&q, &views, &semi_interval_skeletons(&q, &views));
            ucq_equivalent(&plan, &reference)
        },
    ));

    all.push(run(
        "decided containment sound on instances",
        rounds,
        seed ^ 3,
        |rng| {
            let q1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
            let q2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
            let views = random_views(3, 2, rng);
            let p1 = query_program(&q1);
            let p2 = query_program(&q2);
            if !relatively_contained(&p1, &Symbol::new("q"), &p2, &Symbol::new("q"), &views)
                .unwrap()
            {
                return true;
            }
            let inst = random_instance(&views, 3, 3, rng);
            let opts = EvalOptions::default();
            let a1 = certain_answers(&p1, &Symbol::new("q"), &views, &inst, &opts).unwrap();
            let a2 = certain_answers(&p2, &Symbol::new("q"), &views, &inst, &opts).unwrap();
            a1.tuples().iter().all(|t| a2.contains(t))
        },
    ));

    all.push(run(
        "type fixpoint vs unfold on nonrecursive",
        rounds,
        seed ^ 4,
        |rng| {
            let q = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
            let p = query_program(&q);
            let target = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
            let u2 = Ucq::single(target);
            let via_fix =
                datalog_contained_in_ucq(&p, &Symbol::new("q"), &u2, &FixpointBudget::default())
                    .unwrap();
            let via_unfold =
                qc_containment::ucq_contained(&p.unfold(&Symbol::new("q")).unwrap(), &u2);
            via_fix == via_unfold
        },
    ));

    all.push(run(
        "thm 3.3 reduction vs brute force",
        rounds / 2,
        seed ^ 5,
        |rng| {
            let f = random_cnf3(2, 1 + rng.gen_range(0..2), 1 + rng.gen_range(0..3), rng);
            let inst = thm33_reduction(&f);
            let got = relatively_contained(
                &inst.contained,
                &inst.contained_ans,
                &inst.container,
                &inst.container_ans,
                &inst.views,
            )
            .unwrap();
            got == f.is_forall_exists_satisfiable()
        },
    ));

    all.push(run(
        "bp decision sound on instances",
        rounds / 2,
        seed ^ 6,
        |rng| {
            use qc_mediator::binding::reachable_certain_answers;
            use qc_mediator::relative::{decide, Question, Sources};
            use qc_mediator::schema::LavSetting;
            let mut views =
                LavSetting::parse(&["Va(A, B) :- p0(A, B).", "Vb(A, B) :- p1(A, B)."]).unwrap();
            if rng.gen_bool(0.5) {
                views.sources[0] = views.sources[0].clone().with_adornment("bf").unwrap();
            }
            if rng.gen_bool(0.5) {
                views.sources[1] = views.sources[1].clone().with_adornment("bf").unwrap();
            }
            let bodies = [
                "p0(c0, X)",
                "p0(c0, X), p1(X, Y)",
                "p0(c0, X), p0(X, Y)",
                "p1(c0, X)",
            ];
            let b1 = bodies[rng.gen_range(0..bodies.len())];
            let b2 = bodies[rng.gen_range(0..bodies.len())];
            let q1 = qc_datalog::parse_program(&format!("q(X) :- {b1}.")).unwrap();
            let q2 = qc_datalog::parse_program(&format!("q(X) :- {b2}.")).unwrap();
            let q = Symbol::new("q");
            let question = Question {
                binding_patterns: true,
                ..Question::new(&q1, &q, &q2, &q)
            };
            let decided = match decide(&question, Sources::Views(&views)).and_then(|d| d.holds()) {
                Ok(d) => d,
                Err(_) => return true,
            };
            if !decided {
                return true;
            }
            let mut db = qc_datalog::Database::new();
            for v in ["Va", "Vb"] {
                for _ in 0..rng.gen_range(0..5) {
                    db.insert(
                        v,
                        vec![
                            qc_datalog::Term::sym(format!("c{}", rng.gen_range(0..3))),
                            qc_datalog::Term::sym(format!("c{}", rng.gen_range(0..3))),
                        ],
                    );
                }
            }
            let opts = EvalOptions::default();
            let a1 = reachable_certain_answers(&q1, &Symbol::new("q"), &views, &db, &opts).unwrap();
            let a2 = reachable_certain_answers(&q2, &Symbol::new("q"), &views, &db, &opts).unwrap();
            a1.tuples().iter().all(|t| a2.contains(t))
        },
    ));

    println!(
        "\n{:<52} {:>8} {:>14} {:>12} {:>12}",
        "oracle pair", "rounds", "disagreements", "hom nodes", "fixpt iters"
    );
    let mut failed = false;
    let mut merged = qc_obs::PipelineReport::empty("differential");
    for s in &all {
        println!(
            "{:<52} {:>8} {:>14} {:>12} {:>12}",
            s.name,
            s.rounds,
            s.disagreements,
            s.report.counter(qc_obs::Counter::HomSearchNodes),
            s.report.counter(qc_obs::Counter::FixpointIterations),
        );
        merged.absorb(&s.report);
        failed |= s.disagreements > 0;
    }
    println!("\naggregate engine counters:");
    for (k, v) in &merged.counters {
        println!("  {k:<32} {v}");
    }
    if let Some(path) = metrics_json {
        match serde_json::to_string_pretty(&merged) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
                println!("metrics written to {path}");
            }
            Err(e) => {
                eprintln!("metrics serialization failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        println!("\nall oracles agree");
        ExitCode::SUCCESS
    }
}

fn run(
    name: &'static str,
    rounds: usize,
    seed: u64,
    mut round: impl FnMut(&mut StdRng) -> bool,
) -> OracleOutcome {
    let recorder = Arc::new(qc_obs::PipelineRecorder::new());
    let guard = qc_obs::install(recorder.clone() as Arc<dyn qc_obs::Recorder>);
    let mut disagreements = 0;
    for i in 0..rounds {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        if !round(&mut rng) {
            eprintln!(
                "DISAGREEMENT in {name:?} at seed {}",
                seed.wrapping_add(i as u64)
            );
            disagreements += 1;
        }
    }
    drop(guard);
    OracleOutcome {
        name,
        rounds,
        disagreements,
        report: recorder.report(name),
    }
}
