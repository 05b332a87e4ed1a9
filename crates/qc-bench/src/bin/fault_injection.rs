//! `fault_injection` — deterministic fault-injection differential suite.
//!
//! For a corpus of random workloads, computes each decision procedure's
//! unguarded *oracle* result, then re-runs it under a [`qc_guard::FaultPlan`]
//! injecting a panic, budget exhaustion, or cancellation at the Nth counter
//! tick of a named stage. Every trial must terminate with either the oracle
//! result or a resource-stop ("unknown") — never a contradicting answer and
//! never a dead process.
//!
//! ```sh
//! cargo run --release -p qc-bench --bin fault_injection -- --rounds 8 --seed 11
//! ```
//!
//! Two recovery layers are exercised:
//!
//! * worker-side panics land inside `engine::parallel_map`'s per-item
//!   `catch_unwind` and heal via the sequential retry — the trial sees the
//!   oracle answer with no harness involvement;
//! * panics that unwind all the way to the request boundary are retried
//!   once by the harness (an injected fault fires only once), modeling a
//!   service-level retry; a second escape is counted as a crash.
//!
//! Each case also runs once under `Guard::unlimited()` and must reproduce
//! the unguarded answer exactly (limits that are never hit change nothing).

use std::panic::AssertUnwindSafe;
use std::process::ExitCode;

use qc_containment::datalog_ucq::{datalog_contained_in_ucq, FixpointBudget};
use qc_datalog::eval::EvalOptions;
use qc_datalog::{parse_program, Symbol, Ucq};
use qc_guard::{stage, FaultKind, FaultPlan, Guard};
use qc_mediator::certain::certain_answers;
use qc_mediator::enumerate::{enumerated_plan, EnumerationLimits};
use qc_mediator::minicon::minicon_rewritings;
use qc_mediator::relative::{decide, relatively_contained_witness, Question, Sources, Verdict};
use qc_mediator::workloads::{query_program, random_instance, random_query, random_views, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How one guarded trial ended.
enum Trial<T> {
    /// The procedure finished with an answer (fault not reached, healed by
    /// worker isolation, or healed by the boundary retry).
    Answer(T),
    /// A resource limit stopped the procedure with provenance.
    Stopped,
    /// The procedure failed with a non-resource error (a bug: faults must
    /// surface as answers or resource stops).
    WrongError(String),
    /// A panic escaped the request boundary twice.
    Crashed,
}

/// A procedure error split into resource provenance vs anything else.
enum ProcErr {
    Resource,
    Other(String),
}

/// Runs `f` under `guard` at a request boundary: trips become `Stopped`,
/// an escaped panic is retried once (the injected fault has already
/// fired), a second escape is a crash.
fn trial<T>(guard: &Guard, f: impl Fn() -> Result<T, ProcErr>) -> Trial<T> {
    for attempt in 0..2 {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            qc_guard::with_guard(guard, || qc_guard::guarded(&f))
        }));
        match caught {
            Ok(Ok(Ok(v))) => return Trial::Answer(v),
            Ok(Ok(Err(ProcErr::Resource))) => return Trial::Stopped,
            Ok(Ok(Err(ProcErr::Other(m)))) => return Trial::WrongError(m),
            Ok(Err(_resource_trip)) => return Trial::Stopped,
            Err(_) if attempt == 0 => continue,
            Err(_) => return Trial::Crashed,
        }
    }
    Trial::Crashed
}

/// Renders a plan up to variable renaming: fresh-variable gensyms differ
/// between otherwise identical runs, so compare tidied rule text.
fn canonical_ucq(u: &Ucq) -> Vec<String> {
    let mut rules: Vec<String> = u
        .disjuncts
        .iter()
        .map(|d| d.tidy_names().to_rule().to_string())
        .collect();
    rules.sort();
    rules
}

/// Per-procedure tally across the whole sweep.
#[derive(Default)]
struct Tally {
    trials: usize,
    answered: usize,
    stopped: usize,
    failures: usize,
}

const KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Budget, FaultKind::Cancel];
const TICKS: [u64; 4] = [1, 3, 10, 50];

/// Sweeps every (stage, kind, tick) fault over one procedure and checks
/// each outcome against the oracle.
fn sweep<T: PartialEq + std::fmt::Debug>(
    name: &str,
    tally: &mut Tally,
    stages: &[&'static str],
    oracle: &T,
    run: impl Fn() -> Result<T, ProcErr>,
) {
    // Zero-overhead sanity: an unlimited guard must reproduce the oracle.
    tally.trials += 1;
    match trial(&Guard::unlimited(), &run) {
        Trial::Answer(v) if &v == oracle => tally.answered += 1,
        Trial::Answer(v) => {
            eprintln!("FAIL {name}: unlimited guard changed the answer: {v:?} vs {oracle:?}");
            tally.failures += 1;
        }
        _ => {
            eprintln!("FAIL {name}: unlimited guard did not finish");
            tally.failures += 1;
        }
    }
    for &stage in stages {
        for kind in KINDS {
            for at_tick in TICKS {
                tally.trials += 1;
                let guard = Guard::unlimited().with_fault(FaultPlan {
                    stage,
                    at_tick,
                    kind,
                });
                match trial(&guard, &run) {
                    Trial::Answer(v) if &v == oracle => tally.answered += 1,
                    Trial::Answer(v) => {
                        eprintln!(
                            "FAIL {name}: {kind:?}@{stage}:{at_tick} contradicted the oracle: \
                             {v:?} vs {oracle:?}"
                        );
                        tally.failures += 1;
                    }
                    Trial::Stopped => tally.stopped += 1,
                    Trial::WrongError(m) => {
                        eprintln!(
                            "FAIL {name}: {kind:?}@{stage}:{at_tick} non-resource error: {m}"
                        );
                        tally.failures += 1;
                    }
                    Trial::Crashed => {
                        eprintln!("FAIL {name}: {kind:?}@{stage}:{at_tick} crashed twice");
                        tally.failures += 1;
                    }
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let mut rounds = 8usize;
    let mut seed = 20260806u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rounds" => rounds = args.next().and_then(|v| v.parse().ok()).unwrap_or(rounds),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    let q = Symbol::new("q");
    let mut verdicts = Tally::default();
    let mut certains = Tally::default();
    let mut minicons = Tally::default();
    let mut enumerations = Tally::default();
    let mut witnesses = Tally::default();
    let mut fixpoints = Tally::default();

    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(round as u64));
        let cq1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, &mut rng);
        let cq2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, &mut rng);
        let views = random_views(3, 2, &mut rng);
        let p1 = query_program(&cq1);
        let p2 = query_program(&cq2);
        let inst = random_instance(&views, 3, 3, &mut rng);
        let opts = EvalOptions::default();

        // Anytime containment verdict: a definite answer under a fault must
        // match the unguarded decision; Unknown is always acceptable.
        let oracle = match decide(&Question::new(&p1, &q, &p2, &q), Sources::Views(&views))
            .map(|d| d.verdict)
        {
            Ok(v @ (Verdict::Contained | Verdict::NotContained)) => v,
            other => {
                eprintln!(
                    "oracle run failed at seed {}: {other:?}",
                    seed + round as u64
                );
                return ExitCode::from(2);
            }
        };
        sweep(
            "verdict",
            &mut verdicts,
            &[stage::HOM_SEARCH, stage::MEMO, stage::FN_ELIM],
            &oracle,
            || match decide(&Question::new(&p1, &q, &p2, &q), Sources::Views(&views))
                .map(|d| d.verdict)
            {
                Ok(Verdict::Unknown(_)) => Err(ProcErr::Resource),
                Ok(v) => Ok(v),
                Err(e) if e.resource().is_some() => Err(ProcErr::Resource),
                Err(e) => Err(ProcErr::Other(e.to_string())),
            },
        );

        // Certain answers over a random instance.
        let oracle: Vec<String> = certain_answers(&p1, &q, &views, &inst, &opts)
            .map(|rel| {
                let mut rows: Vec<String> = rel.tuples().iter().map(|t| format!("{t:?}")).collect();
                rows.sort();
                rows
            })
            .expect("unguarded certain_answers");
        sweep(
            "certain",
            &mut certains,
            &[stage::EVAL, stage::FN_ELIM],
            &oracle,
            || match certain_answers(&p1, &q, &views, &inst, &opts) {
                Ok(rel) => {
                    let mut rows: Vec<String> =
                        rel.tuples().iter().map(|t| format!("{t:?}")).collect();
                    rows.sort();
                    Ok(rows)
                }
                Err(e) if e.resource().is_some() => Err(ProcErr::Resource),
                Err(e) => Err(ProcErr::Other(e.to_string())),
            },
        );

        // MiniCon rewritings (infallible signature: trips must unwind to
        // the request boundary, not corrupt the result). Compared up to
        // renaming: fresh-variable gensyms differ between runs.
        let oracle = canonical_ucq(&minicon_rewritings(&cq1, &views));
        sweep(
            "minicon",
            &mut minicons,
            &[stage::MINICON, stage::HOM_SEARCH],
            &oracle,
            || Ok(canonical_ucq(&minicon_rewritings(&cq1, &views))),
        );

        // Thm 3.1 literal enumeration (its built-in candidate cap returns
        // None; that is an answer, not a fault).
        let limits = EnumerationLimits::default();
        let oracle = enumerated_plan(&cq1, &views, &limits)
            .as_ref()
            .map(canonical_ucq);
        sweep(
            "enumerate",
            &mut enumerations,
            &[stage::ENUMERATION, stage::HOM_SEARCH],
            &oracle,
            || {
                Ok(enumerated_plan(&cq1, &views, &limits)
                    .as_ref()
                    .map(canonical_ucq))
            },
        );

        // Witness search: compare only the decision, the concrete witness
        // text is presentation.
        let oracle = relatively_contained_witness(&p1, &q, &p2, &q, &views)
            .map(|r| r.is_ok())
            .expect("unguarded witness search");
        sweep(
            "witness",
            &mut witnesses,
            &[stage::WITNESS, stage::HOM_SEARCH],
            &oracle,
            || match relatively_contained_witness(&p1, &q, &p2, &q, &views) {
                Ok(r) => Ok(r.is_ok()),
                Err(e) if e.resource().is_some() => Err(ProcErr::Resource),
                Err(e) => Err(ProcErr::Other(e.to_string())),
            },
        );
    }

    // Datalog-in-UCQ type fixpoint on a recursive program (fixed workload:
    // the random corpus above is nonrecursive and never reaches it).
    let tc = parse_program(
        "t(X, Y) :- e(X, Y).
         t(X, Y) :- e(X, Z), t(Z, Y).",
    )
    .expect("parse transitive closure");
    let loose = Ucq::single(qc_datalog::ConjunctiveQuery::from_rule(
        &qc_datalog::parse_rule("t(X, Y) :- e(X, Z0), e(Z1, Y).").expect("parse loose target"),
    ));
    let budget = FixpointBudget::default();
    let oracle = datalog_contained_in_ucq(&tc, &Symbol::new("t"), &loose, &budget)
        .expect("unguarded fixpoint");
    sweep(
        "fixpoint",
        &mut fixpoints,
        &[stage::FIXPOINT, stage::HOM_SEARCH],
        &oracle,
        || match datalog_contained_in_ucq(&tc, &Symbol::new("t"), &loose, &budget) {
            Ok(b) => Ok(b),
            Err(qc_containment::datalog_ucq::DatalogUcqError::Resource(_)) => {
                Err(ProcErr::Resource)
            }
            Err(e) => Err(ProcErr::Other(e.to_string())),
        },
    );

    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10}",
        "procedure", "trials", "answered", "stopped", "failures"
    );
    let mut failed = false;
    for (name, t) in [
        ("verdict", &verdicts),
        ("certain", &certains),
        ("minicon", &minicons),
        ("enumerate", &enumerations),
        ("witness", &witnesses),
        ("fixpoint", &fixpoints),
    ] {
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>10}",
            name, t.trials, t.answered, t.stopped, t.failures
        );
        failed |= t.failures > 0;
    }
    if failed {
        eprintln!("\nfault-injection suite found divergences");
        ExitCode::from(1)
    } else {
        println!("\nevery injected fault yielded the oracle answer or a resource stop");
        ExitCode::SUCCESS
    }
}
