//! `service_chaos` — chaos differential suite for the qc-serve layer.
//!
//! For a corpus of random chain workloads, computes the unguarded oracle
//! verdict, then hammers the service from several directions and checks
//! the three service-level invariants from DESIGN.md §11:
//!
//! 1. **No lost requests** — every submission ends in a
//!    [`Response`](qc_serve::Response) or a
//!    typed [`ServiceError`]; a hung ticket or a silently dropped job is a
//!    failure.
//! 2. **No unsound verdicts** — any `Contained`/`NotContained` answer, at
//!    any ladder tier, resumed or not, under injected faults or not, must
//!    equal the oracle. `Unknown` is always acceptable.
//! 3. **Bounded shedding** — load is shed only when the queue is full, and
//!    deterministically: a paused service with capacity C given C+X jobs
//!    sheds exactly X.
//!
//! Scenarios, rotated per trial:
//!
//! * resume differential: run under a tiny budget, escalate and resume
//!   from each returned checkpoint; the final definite verdict must match
//!   the one-shot unlimited run;
//! * degradation ladder: trip the core down to the MiniCon-only tier and
//!   check degraded answers stay sound (never `Contained` at the bottom
//!   tier);
//! * guard faults: inject budget/cancel trips mid-run through the core;
//! * supervised faults: inject panics through a threaded [`Service`] and
//!   require a reply for every ticket (periodically — thread spin-up is
//!   the expensive part);
//! * deterministic shedding (periodically).
//!
//! ```sh
//! cargo run --release -p qc-bench --bin service_chaos -- --trials 500 --seed 7
//! ```

use std::process::ExitCode;

use qc_datalog::Symbol;
use qc_guard::{stage, FaultKind, FaultPlan};
use qc_mediator::relative::{decide, Question, Sources, Verdict};
use qc_mediator::schema::LavSetting;
use qc_mediator::workloads::{query_program, random_query, random_views, Shape};
use qc_serve::{Request, ServeConfig, ServeCore, Service, ServiceError, Tier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Global tally across the sweep.
#[derive(Default)]
struct Tally {
    trials: usize,
    answered: usize,
    unknowns: usize,
    resumes: usize,
    sheds: usize,
    worker_restarts: u64,
    failures: usize,
    seed: u64,
}

impl Tally {
    fn fail(&mut self, trial: usize, msg: &str) {
        eprintln!("FAIL trial {trial}: {msg}");
        eprintln!(
            "  repro: cargo run --release -p qc-bench --bin service_chaos -- \
             --trials 1 --seed {}",
            self.seed.wrapping_add(trial as u64)
        );
        self.failures += 1;
    }
}

/// One random chain workload plus its unguarded oracle verdict.
struct Case {
    views: LavSetting,
    req: Request,
    oracle: Verdict,
}

fn random_case(rng: &mut StdRng) -> Option<Case> {
    let q = Symbol::new("q");
    let cq1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
    let cq2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
    let views = random_views(3, 2, rng);
    let p1 = query_program(&cq1);
    let p2 = query_program(&cq2);
    let oracle =
        match decide(&Question::new(&p1, &q, &p2, &q), Sources::Views(&views)).map(|d| d.verdict) {
            Ok(v @ (Verdict::Contained | Verdict::NotContained)) => v,
            _ => return None,
        };
    Some(Case {
        views,
        req: Request::new(p1, q, p2, q),
        oracle,
    })
}

/// A definite verdict that disagrees with the oracle, rendered for the
/// failure report; `None` means the answer is consistent.
fn soundness_violation(got: &Verdict, oracle: &Verdict) -> Option<String> {
    match got {
        Verdict::Unknown(_) => None,
        v if v == oracle => None,
        v => Some(format!("definite {v:?} contradicts oracle {oracle:?}")),
    }
}

/// Scenario 1: tiny budget, then escalate-and-resume until definite. The
/// end state must equal the oracle, and progress must be monotone.
fn check_resume(trial: usize, case: &Case, rng: &mut StdRng, tally: &mut Tally) {
    // Pin the tier: the deliberate budget trips below would otherwise walk
    // the ladder down to minicon-only, which cannot prove `Contained` at
    // any budget and would stall the escalation.
    let cfg = ServeConfig {
        trip_threshold: u32::MAX,
        ..ServeConfig::default()
    };
    let core = ServeCore::new(case.views.clone(), cfg);
    let mut req = case.req.clone();
    let mut budget = 1 + rng.gen_range(0..64) as u64;
    let mut proven_so_far = 0usize;
    for round in 0..40 {
        req.budget = Some(budget);
        let resp = match core.handle(&req, 0) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(trial, &format!("resume round {round} errored: {e}"));
                return;
            }
        };
        if req.checkpoint.is_some() && !resp.resumed {
            tally.fail(trial, "checkpointed request was not marked resumed");
            return;
        }
        if resp.resumed {
            tally.resumes += 1;
        }
        match resp.verdict {
            Verdict::Unknown(_) => {
                tally.unknowns += 1;
                if let Some(cp) = &resp.checkpoint {
                    if cp.proven.len() < proven_so_far {
                        tally.fail(trial, "checkpoint lost previously proven disjuncts");
                        return;
                    }
                    proven_so_far = cp.proven.len();
                }
                req.checkpoint = resp.checkpoint;
                budget = budget.saturating_mul(2);
            }
            v => {
                tally.answered += 1;
                if let Some(msg) = soundness_violation(&v, &case.oracle) {
                    tally.fail(trial, &format!("resumed run: {msg}"));
                }
                return;
            }
        }
    }
    tally.fail(trial, "resume escalation never reached a definite verdict");
}

/// Scenario 2: force the ladder to the bottom tier, then check degraded
/// answers stay sound. The MiniCon-only tier must never claim
/// `Contained`, and its `NotContained` must agree with the oracle.
fn check_ladder(trial: usize, case: &Case, tally: &mut Tally) {
    let cfg = ServeConfig {
        trip_threshold: 1,
        recover_threshold: 100,
        ..ServeConfig::default()
    };
    let core = ServeCore::new(case.views.clone(), cfg);
    let mut starved = case.req.clone();
    starved.budget = Some(1);
    // Budget 1 usually trips, stepping the tier down one rung per run.
    // Degenerate drawings can finish before the first tick; those cannot
    // be starved, so the scenario does not apply to them.
    for _ in 0..4 {
        if core.tier() == Tier::MiniconOnly {
            break;
        }
        match core.handle(&starved, 0) {
            Ok(r) => {
                if let Some(msg) = soundness_violation(&r.verdict, &case.oracle) {
                    tally.fail(trial, &format!("starved run: {msg}"));
                }
            }
            Err(e) => tally.fail(trial, &format!("starved run errored: {e}")),
        }
    }
    if core.tier() != Tier::MiniconOnly {
        return;
    }
    match core.handle(&case.req, 0) {
        Ok(r) => {
            tally.answered += 1;
            if r.tier == Tier::MiniconOnly && matches!(r.verdict, Verdict::Contained) {
                tally.fail(trial, "minicon-only tier claimed Contained");
            }
            if let Some(msg) = soundness_violation(&r.verdict, &case.oracle) {
                tally.fail(trial, &format!("degraded run: {msg}"));
            }
        }
        Err(e) => tally.fail(trial, &format!("degraded run errored: {e}")),
    }
}

/// Scenario 3: budget/cancel faults injected mid-run through the core.
/// (Panic faults go through the threaded service, which supervises them.)
fn check_guard_faults(trial: usize, case: &Case, rng: &mut StdRng, tally: &mut Tally) {
    let core = ServeCore::new(case.views.clone(), ServeConfig::default());
    let stages = [
        stage::HOM_SEARCH,
        stage::MEMO,
        stage::MINICON,
        stage::FN_ELIM,
    ];
    for kind in [FaultKind::Budget, FaultKind::Cancel] {
        let mut req = case.req.clone();
        req.fault = Some(FaultPlan {
            stage: stages[rng.gen_range(0..stages.len())],
            at_tick: 1 + rng.gen_range(0..20) as u64,
            kind,
        });
        match core.handle(&req, 0) {
            Ok(r) => match r.verdict {
                Verdict::Unknown(_) => tally.unknowns += 1,
                v => {
                    tally.answered += 1;
                    if let Some(msg) = soundness_violation(&v, &case.oracle) {
                        tally.fail(trial, &format!("{kind:?} fault: {msg}"));
                    }
                }
            },
            Err(e) => tally.fail(trial, &format!("{kind:?} fault became {e}")),
        }
    }
}

/// Scenario 4: a threaded service with injected panics. Every ticket must
/// resolve; `WorkerLost` is an acceptable *typed* outcome for a request
/// whose fault re-arms on the supervised retry, never a hang.
fn check_supervision(trial: usize, case: &Case, rng: &mut StdRng, tally: &mut Tally) {
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let svc = Service::start(case.views.clone(), cfg);
    let mut reqs = vec![case.req.clone(), case.req.clone()];
    let mut faulty = case.req.clone();
    faulty.fault = Some(FaultPlan {
        stage: stage::HOM_SEARCH,
        at_tick: 1 + rng.gen_range(0..3) as u64,
        kind: FaultKind::Panic,
    });
    reqs.push(faulty);
    reqs.push(case.req.clone());
    for (i, outcome) in svc.run_batch(reqs).into_iter().enumerate() {
        match outcome {
            Ok(r) => match r.verdict {
                Verdict::Unknown(_) => tally.unknowns += 1,
                v => {
                    tally.answered += 1;
                    if let Some(msg) = soundness_violation(&v, &case.oracle) {
                        tally.fail(trial, &format!("service job {i}: {msg}"));
                    }
                }
            },
            Err(ServiceError::WorkerLost { .. }) => tally.answered += 1,
            Err(e) => tally.fail(trial, &format!("service job {i} failed: {e}")),
        }
    }
    let stats = svc.stats();
    tally.worker_restarts += stats.worker_restarts;
    if stats.shed > 0 {
        tally.fail(trial, "blocking batch submission shed load");
    }
    svc.shutdown();
}

/// Scenario 5: deterministic shedding. A paused service with capacity C
/// given C+X jobs sheds exactly X, and the C admitted jobs all complete
/// once workers resume.
fn check_shedding(trial: usize, case: &Case, tally: &mut Tally) {
    const CAP: usize = 4;
    const EXTRA: usize = 3;
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: CAP,
        start_paused: true,
        // The C+X jobs are identical; coalescing would attach them to one
        // leader instead of shedding, which is a different invariant
        // (covered by durability_chaos).
        coalesce: false,
        ..ServeConfig::default()
    };
    let svc = Service::start(case.views.clone(), cfg);
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for i in 0..CAP + EXTRA {
        match svc.submit(case.req.clone()) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::ShedUnderLoad { .. }) => {
                shed += 1;
                if i < CAP {
                    tally.fail(trial, &format!("job {i} shed below capacity {CAP}"));
                }
            }
            Err(e) => tally.fail(trial, &format!("paused submit {i} failed: {e}")),
        }
    }
    if shed != EXTRA {
        tally.fail(trial, &format!("expected exactly {EXTRA} shed, got {shed}"));
    }
    tally.sheds += shed;
    svc.unpause();
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(r) => {
                if let Some(msg) = soundness_violation(&r.verdict, &case.oracle) {
                    tally.fail(trial, &format!("post-shed job {i}: {msg}"));
                } else {
                    tally.answered += 1;
                }
            }
            Err(e) => tally.fail(trial, &format!("admitted job {i} was lost: {e}")),
        }
    }
    svc.shutdown();
}

fn main() -> ExitCode {
    let mut trials = 500usize;
    let mut seed = 20260806u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trials" => trials = args.next().and_then(|v| v.parse().ok()).unwrap_or(trials),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    // Injected panics are supervised and expected; keep the default
    // hook's backtraces out of the report. Failures are reproducible from
    // the seed.
    std::panic::set_hook(Box::new(|_| {}));

    let mut tally = Tally {
        seed,
        ..Tally::default()
    };
    let mut skipped = 0usize;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(trial as u64));
        let Some(case) = random_case(&mut rng) else {
            // The unguarded oracle itself was indefinite (possible only on
            // degenerate drawings); nothing to check against.
            skipped += 1;
            continue;
        };
        tally.trials += 1;
        check_resume(trial, &case, &mut rng, &mut tally);
        check_ladder(trial, &case, &mut tally);
        check_guard_faults(trial, &case, &mut rng, &mut tally);
        // Thread spin-up dominates the cheap workloads, so the threaded
        // scenarios sample the corpus instead of covering it.
        if trial % 20 == 0 {
            check_supervision(trial, &case, &mut rng, &mut tally);
        }
        if trial % 50 == 0 {
            check_shedding(trial, &case, &mut tally);
        }
    }

    println!(
        "service_chaos: {} trials ({} skipped), {} definite answers, {} unknowns, \
         {} resumes, {} shed (all deliberate), {} worker restarts, {} failures",
        tally.trials,
        skipped,
        tally.answered,
        tally.unknowns,
        tally.resumes,
        tally.sheds,
        tally.worker_restarts,
        tally.failures,
    );
    if tally.failures > 0 {
        eprintln!("\nservice chaos suite found invariant violations");
        ExitCode::from(1)
    } else {
        println!("\nno lost requests, no unsound verdicts, shedding deterministic");
        ExitCode::SUCCESS
    }
}
