//! `serve_distinct`: a stream of distinct containment questions through
//! the `Service` queue. Every question misses every cache, so the engine
//! layers do almost all the work; the long chain pairs are the only
//! homomorphism searches in the benchmark above `tier_hom_product`.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qc_containment::engine::{self, EngineOptions};
use qc_containment::{cq_contained_in_ucq, memo};
use qc_datalog::{parse_program, Symbol};
use qc_mediator::catalog::CompiledCatalog;
use qc_mediator::expansion::expand_cq;
use qc_mediator::fn_elim::eliminate_function_terms;
use qc_mediator::reductions::{thm33_reduction, Cnf3};
use qc_mediator::relative::{max_contained_ucq_plan_catalog, Verdict};
use qc_mediator::schema::{LavSetting, SourceDescription};
use qc_obs::Counter;
use qc_serve::{CatalogSnapshot, Request, ServeConfig, ServeCore, Service};

use crate::gen::{self, Chain, Rng};
use crate::report::{self, E2e};
use crate::serve_hot_churn::POOL;
use crate::trace::{span, Tracer};
use crate::{fixed_ops, time_cap, Args, Traced, SETUPS};

/// Thm 3.3 shape: ∀∃-3CNF with `NUM_X` existential variables, `CLAUSES`
/// clauses, and m universal variables; the catalog holds the reduction's
/// views for the largest m, which serve every smaller formula too.
const NUM_X: usize = 3;
const CLAUSES: usize = 4;
const MAX_M: usize = 5;
/// Chain-cover questions run over chain views of length ≤ `COVER_VIEW`
/// on two base predicates; plan construction (function-term elimination)
/// dominates them.
const COVER_VIEW: usize = 2;
/// Long chains run over the single-atom view `u(X, Y) :- f(X, Y)`: one
/// plan disjunct, and homomorphism searches of more than 4096 subgoal
/// pairs. (Over multi-atom views a long chain has exponentially many
/// plan disjuncts.)
const LONG_LEN: (usize, usize) = (66, 80);
/// Closed-loop client threads; the service runs its default 2 workers.
const CLIENTS: usize = 2;
/// Questions per second of `--seconds` (see [`crate::fixed_ops`]).
const NOMINAL_RATE: f64 = 300.0;
/// Cycles of a separate question stream used to warm the service up.
const WARM_CYCLES: usize = 2;
/// Cycles in a traced run.
const TRACE_CYCLES: usize = 6;

#[derive(Clone, Copy)]
enum Family {
    Thm33 { m: usize },
    Cover { len: usize, interior: usize },
    Long,
}

struct Slot {
    family: Family,
    contained: bool,
}

const fn slot(family: Family, contained: bool) -> Slot {
    Slot { family, contained }
}

/// One cycle of the question list: each family with a fixed share and a
/// fixed expected verdict per slot; the seed picks the instances and their
/// order within the cycle.
const CYCLE: &[Slot] = &[
    slot(Family::Thm33 { m: 3 }, true),
    slot(Family::Thm33 { m: 3 }, false),
    slot(Family::Thm33 { m: 4 }, true),
    slot(Family::Thm33 { m: 4 }, false),
    slot(Family::Thm33 { m: 5 }, true),
    slot(Family::Thm33 { m: 5 }, false),
    slot(
        Family::Cover {
            len: 5,
            interior: 1,
        },
        true,
    ),
    slot(
        Family::Cover {
            len: 5,
            interior: 1,
        },
        false,
    ),
    slot(
        Family::Cover {
            len: 5,
            interior: 2,
        },
        true,
    ),
    slot(
        Family::Cover {
            len: 5,
            interior: 2,
        },
        false,
    ),
    slot(Family::Long, true),
    slot(Family::Long, false),
];

fn family_name(s: &Slot) -> String {
    let v = if s.contained { "c" } else { "n" };
    match s.family {
        Family::Thm33 { m } => format!("thm33_m{m}_{v}"),
        Family::Cover { len, interior } => format!("cover{len}_{interior}_{v}"),
        Family::Long => format!("long_{v}"),
    }
}

/// What a question is generated from. The list keeps this compact form
/// and builds each `Request` just before sending it, so a long list stays
/// small in memory.
enum Spec {
    Thm33(Cnf3),
    Chains(Chain, Chain),
}

impl Spec {
    fn request(&self) -> Request {
        match self {
            Spec::Thm33(f) => {
                let inst = thm33_reduction(f);
                Request::new(
                    inst.contained,
                    inst.contained_ans,
                    inst.container,
                    inst.container_ans,
                )
            }
            Spec::Chains(c1, c2) => Request::new(
                parse_program(&c1.rule("qa")).expect("chain parses"),
                Symbol::new("qa"),
                parse_program(&c2.rule("qb")).expect("chain parses"),
                Symbol::new("qb"),
            ),
        }
    }
}

struct Question {
    spec: Spec,
    key: bool,
    /// Index into [`CYCLE`].
    slot: usize,
}

fn catalog() -> LavSetting {
    let mut lines = Vec::new();
    for i in 0..CLAUSES {
        lines.push(format!("v{i}(Z1, Z2, Z3) :- r{i}(Z1, Z2, Z3)."));
    }
    for j in 0..MAX_M {
        for b in 0..2 {
            lines.push(format!("w{j}_{b}() :- e{j}({b})."));
        }
    }
    lines.extend(gen::chain_views(&cover_alphabet(), COVER_VIEW));
    lines.push("u(X0, X1) :- f(X0, X1).".to_string());
    LavSetting {
        sources: lines
            .iter()
            .map(|l| SourceDescription::parse(l).expect("generated view parses"))
            .collect(),
    }
}

fn cover_alphabet() -> [String; 3] {
    ["a".to_string(), "b".to_string(), "c".to_string()]
}

fn question(rng: &mut Rng, s: &Slot) -> Spec {
    match s.family {
        Family::Thm33 { m } => Spec::Thm33(gen::formula_with(rng, NUM_X, m, CLAUSES, s.contained)),
        Family::Cover { len, interior } => {
            let alphabet = cover_alphabet();
            let c1 = Chain::random(rng, &alphabet, len, interior);
            let c2 = if s.contained {
                c1.clone()
            } else {
                c1.other(rng, &alphabet)
            };
            Spec::Chains(c1, c2)
        }
        Family::Long => {
            let f = ["f".to_string()];
            let len = rng.range(LONG_LEN.0, LONG_LEN.1);
            let c1 = Chain::random(rng, &f, len, 1);
            let c2 = if s.contained {
                c1.clone()
            } else {
                loop {
                    let len = rng.range(LONG_LEN.0, LONG_LEN.1);
                    let c = Chain::random(rng, &f, len, 1);
                    if c != c1 {
                        break c;
                    }
                }
            };
            Spec::Chains(c1, c2)
        }
    }
}

/// `cycles` cycles of questions; a question whose `Request::fingerprint`
/// was already generated is drawn again, so the list has no duplicates.
fn questions(
    rng: &mut Rng,
    snap: &CatalogSnapshot,
    cycles: usize,
    seen: &mut HashSet<u64>,
) -> Vec<Question> {
    let mut out = Vec::new();
    for _ in 0..cycles {
        let mut order: Vec<usize> = (0..CYCLE.len()).collect();
        rng.shuffle(&mut order);
        for slot in order {
            let mut redraws = 0;
            let spec = loop {
                let spec = question(rng, &CYCLE[slot]);
                if seen.insert(spec.request().fingerprint(snap)) {
                    break spec;
                }
                redraws += 1;
                if redraws > 10_000 {
                    report::guard_failed("serve_distinct: question space exhausted");
                }
            };
            out.push(Question {
                spec,
                key: CYCLE[slot].contained,
                slot,
            });
        }
    }
    out
}

fn config() -> ServeConfig {
    // The capacity model's pool is a lifetime budget: with the default
    // pool, later answers would depend on how many questions came before.
    // Every other field keeps its default: no timeouts, two workers,
    // coalescing on (and never triggered: questions are distinct).
    ServeConfig {
        pool: POOL,
        ..ServeConfig::default()
    }
}

struct Setup {
    views: LavSetting,
    svc: Service,
    timed: Vec<Question>,
}

fn setup(args: &Args, cycles: usize) -> Setup {
    let views = catalog();
    let svc = Service::start(views.clone(), config());
    let snap = svc.core().snapshot();
    let mut seen = HashSet::new();
    let warm = questions(
        &mut Rng::new(args.seed ^ 0x7761_726d),
        &snap,
        WARM_CYCLES,
        &mut seen,
    );
    let mut timed = questions(&mut Rng::new(args.seed), &snap, cycles, &mut seen);
    if args.corrupt_key {
        timed[0].key = !timed[0].key;
    }
    let (served, _) = serve(&svc, &warm, Duration::MAX);
    if served.iter().any(|s| s.verdict.is_none()) {
        report::guard_failed("serve_distinct: an Unknown or a service error in warm-up");
    }
    Setup { views, svc, timed }
}

struct Served {
    idx: usize,
    ns: u64,
    /// `None` for an `Unknown` verdict or a service error.
    verdict: Option<bool>,
    queue_wait_ns: u64,
    consumed: u64,
}

/// Closed loop: `CLIENTS` threads each send the next question and wait for
/// its answer, until every question is answered or `budget` elapsed.
/// Returns what was served and the wall time up to the last answer.
fn serve(svc: &Service, qs: &[Question], budget: Duration) -> (Vec<Served>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut all: Vec<Served> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                sc.spawn(|| {
                    let mut out = Vec::new();
                    while start.elapsed() < budget {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= qs.len() {
                            break;
                        }
                        let q = &qs[idx];
                        let req = q.spec.request();
                        let t0 = Instant::now();
                        let r = svc.submit_wait(req).and_then(|t| t.wait());
                        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        let (verdict, queue_wait_ns, consumed) = match r {
                            Ok(resp) => (
                                match resp.verdict {
                                    Verdict::Contained => Some(true),
                                    Verdict::NotContained => Some(false),
                                    Verdict::Unknown(_) => None,
                                },
                                resp.queue_wait_ns,
                                resp.consumed,
                            ),
                            Err(_) => (None, 0, 0),
                        };
                        if let Some(v) = verdict {
                            if v != q.key {
                                report::wrong_answer(&format!(
                                    "{} question {idx}: served {v}, key {}",
                                    family_name(&CYCLE[q.slot]),
                                    q.key
                                ));
                            }
                        }
                        out.push(Served {
                            idx,
                            ns,
                            verdict,
                            queue_wait_ns,
                            consumed,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    all.sort_by_key(|s| s.idx);
    (all, wall)
}

/// The serve-regime guards that the core's counter bank can answer.
fn guard(svc: &Service, served: &[Served]) {
    if served.iter().any(|s| s.verdict.is_none()) {
        report::guard_failed("serve_distinct: an Unknown verdict or a service error");
    }
    let c = svc.core().counters();
    for (ctr, what) in [
        (Counter::ServeTierDowngrades, "ladder downgrades"),
        (Counter::ServeVerdictCacheHits, "verdict-cache hits"),
        (Counter::ServeCoalescedHits, "coalesced hits"),
    ] {
        if c.get(ctr) != 0 {
            report::guard_failed(&format!("serve_distinct: {} {what}", c.get(ctr)));
        }
    }
    if c.get(Counter::EngineTierOptimized) == 0 {
        report::guard_failed("serve_distinct: engine_tier_optimized is 0");
    }
}

fn print_families(qs: &[Question], served: &[Served]) {
    report::print_groups(
        "families",
        served
            .iter()
            .map(|s| (family_name(&CYCLE[qs[s.idx].slot]), s.ns)),
    );
}

pub fn run(args: &Args) -> E2e {
    let cycles = fixed_ops(args, NOMINAL_RATE).div_ceil(CYCLE.len());
    let mut setup_s = Vec::new();
    let mut s = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { args.started } else { Instant::now() };
        drop(s.take());
        s = Some(setup(args, cycles));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let (served, wall) = serve(&s.svc, &s.timed, time_cap(args));
    guard(&s.svc, &served);
    print_families(&s.timed, &served);
    E2e {
        setup_s,
        attempted: served.len() as u64,
        failed: 0,
        correct: served.len() as u64,
        latencies_ns: served.iter().map(|s| s.ns).collect(),
        busy_s: wall.as_secs_f64(),
        peak_rss_kib: report::self_peak_rss_kib(),
    }
}

/// The serve route's public steps for one question: unfold Q2, build Q1's
/// maximally-contained plan from the compiled catalog, then expand each
/// plan disjunct and check it against Q2 until one fails.
fn replay(req: &Request, cat: &CompiledCatalog, t: Option<&Tracer>) -> bool {
    let u2 = {
        let _s = span(t, "qc-datalog.unfold");
        req.q2.unfold(&req.ans2)
    }
    .expect("Q2 unfolds");
    let p1 = {
        let _s = span(t, "qc-mediator.plan_construction");
        max_contained_ucq_plan_catalog(&req.q1, &req.ans1, cat)
    }
    .expect("plan builds");
    for d in &p1.disjuncts {
        let exp = {
            let _s = span(t, "qc-mediator.expansion");
            expand_cq(d, cat.views())
        }
        .expect("plan disjunct expands");
        let _s = span(t, "qc-containment.containment_check");
        if !cq_contained_in_ucq(&exp, &u2) {
            return false;
        }
    }
    true
}

pub fn traced(args: &Args) -> Traced {
    let cycles = TRACE_CYCLES;
    let s = setup(args, cycles);
    let tracer = Tracer::default();
    let (served, _) = serve(&s.svc, &s.timed, Duration::MAX);
    guard(&s.svc, &served);
    let bank = s.svc.core().counters().clone();
    let qs = &s.timed;
    let reqs: Vec<Request> = qs.iter().map(|q| q.spec.request()).collect();
    let cat = CompiledCatalog::compile(&s.views);
    for _ in 0..3 {
        let _p = tracer.probe("qc-mediator.catalog_compile");
        std::hint::black_box(CompiledCatalog::compile(&s.views));
    }

    // Replays run single-threaded with the served engine configuration and
    // a fresh containment memo, first untraced, then traced.
    let mut untraced_ns = 0u64;
    engine::with_options(EngineOptions::sequential(), || {
        memo::clear();
        for req in &reqs {
            let t0 = Instant::now();
            std::hint::black_box(replay(req, &cat, None));
            untraced_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    });
    let rec = Arc::new(qc_obs::PipelineRecorder::new());
    engine::with_options(EngineOptions::sequential(), || {
        memo::clear();
        let _installed = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
        for (i, q) in qs.iter().enumerate() {
            let v = {
                let _op = tracer.op(i as u64);
                replay(&reqs[i], &cat, Some(&tracer))
            };
            if Some(v) != served[i].verdict || v != q.key {
                report::wrong_answer(&format!(
                    "{} question {i}: replay {v}, served {:?}, key {}",
                    family_name(&CYCLE[q.slot]),
                    served[i].verdict,
                    q.key
                ));
            }
            let mut plan = reqs[i].q1.clone();
            plan.extend(&cat.inverse_program());
            let _p = tracer.probe("qc-mediator.fn_elim");
            std::hint::black_box(eliminate_function_terms(&plan).expect("fn_elim succeeds"));
        }
    });
    // `handle` on a fresh core: every question is a miss.
    let core = ServeCore::new(s.views.clone(), config());
    let snap = core.snapshot();
    engine::with_options(EngineOptions::sequential(), || {
        memo::clear();
        for req in &reqs {
            {
                let _p = tracer.probe("qc-serve.fingerprint");
                std::hint::black_box(req.fingerprint(&snap));
            }
            let _p = tracer.probe("qc-serve.handle_miss");
            std::hint::black_box(core.handle(req, 0).ok());
        }
    });

    let sum = tracer.summary();
    let steps: f64 = [
        "qc-datalog.unfold",
        "qc-mediator.plan_construction",
        "qc-mediator.expansion",
        "qc-containment.containment_check",
    ]
    .iter()
    .map(|n| sum.per_op_us(n))
    .sum();
    let n = served.len() as f64;
    let mut values = BTreeMap::new();
    report::put_counters(&mut values, rec.counters());
    for (name, c) in [
        (
            "qc-serve.serve_verdict_cache_hits",
            Counter::ServeVerdictCacheHits,
        ),
        ("qc-serve.serve_coalesced_hits", Counter::ServeCoalescedHits),
        (
            "qc-serve.serve_tier_downgrades",
            Counter::ServeTierDowngrades,
        ),
    ] {
        values.insert(name, bank.get(c) as f64);
    }
    values.insert(
        "qc-serve.overhead_us",
        sum.per_call_us("qc-serve.handle_miss") - steps,
    );
    values.insert(
        "qc-serve.queue_wait_us",
        served.iter().map(|s| s.queue_wait_ns).sum::<u64>() as f64 / n / 1e3,
    );
    values.insert(
        "qc-guard.consumed_units",
        served.iter().map(|s| s.consumed).sum::<u64>() as f64 / n,
    );
    values.insert(
        "qc-serve.cache_hit_ratio",
        bank.get(Counter::ServeVerdictCacheHits) as f64
            / bank.get(Counter::ServeCompleted).max(1) as f64,
    );
    print_families(qs, &served);
    Traced {
        tracer,
        untraced_mean_op_ns: untraced_ns as f64 / n,
        values,
        attempted: served.len() as u64,
        failed: 0,
    }
}
