//! `bench_snapshot` — counter-first performance snapshot of the engine.
//!
//! Runs fixed scenarios from the experiment suites E1, E4–E7 and E9–E11,
//! plus one through the `qc-serve` admission layer, on the engine pinned
//! to one thread ([`EngineOptions::sequential`]) with the evaluator
//! defaults — the one configuration the program runs. It records, per
//! scenario, the best-of-samples wall-clock ns/iter plus the `qc-obs`
//! work-counter totals of one run.
//!
//! ```sh
//! # Regenerate the committed snapshot: every scenario's counters are
//! # recomputed; a scenario the file already holds keeps its committed
//! # wall-clock minimum, so only new scenarios are timed. To re-time a
//! # scenario, delete its entry first.
//! cargo run --release -p qc-bench --bin bench_snapshot -- --out BENCH_PR2.json
//! # CI smoke: recompute counters and fail when one leaves the 2x band
//! # around the committed snapshot (either way, or between zero and
//! # non-zero), and remeasure wall-clock minima, failing on >4x
//! # (configurable via --time-factor) against the committed ones.
//! cargo run --release -p qc-bench --bin bench_snapshot -- --check BENCH_PR2.json
//! # Negative self-test for CI: multiply the measured minima by 10 and
//! # demand that the gate trips.
//! cargo run --release -p qc-bench --bin bench_snapshot -- \
//!     --check BENCH_PR2.json --inject-slowdown 10
//! # Tier self-test: assert that the homomorphism search routes by size
//! # (EngineTierDirect/EngineTierOptimized) and the evaluator by program.
//! cargo run --release -p qc-bench --bin bench_snapshot -- --tier-self-test
//! ```
//!
//! `--check` additionally times the [`LIVE_COMPARE`] scenarios twice,
//! back-to-back: with the defaults, which route them to the compiled RA
//! engine, and with the tuple-at-a-time kernel forced. It fails when the
//! defaults are slower than `1.25 × tuple + 10µs` — the RA engine
//! regressing behind the kernel it replaces on these workloads fails CI
//! even if every counter is fine.
//!
//! Work counters are deterministic for a sequential engine, which is what
//! makes the check mode meaningful on shared CI hardware: a counter that
//! more than doubles is an algorithmic regression, not scheduler noise,
//! and one that more than halves (or vanishes) means the scenario no
//! longer exercises what the snapshot recorded — regenerate it. The
//! wall-clock gate is deliberately looser (default 4× on a
//! min-of-[`TIMED_ITERS`]-samples, with a [`TIME_NOISE_FLOOR_NS`] floor) so it
//! only trips on order-of-magnitude slowdowns — the class of regression a
//! counter gate cannot see, such as an accidentally quadratic allocation
//! pattern with unchanged work counts.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use qc_containment::datalog_ucq::{datalog_contained_in_ucq, FixpointBudget};
use qc_containment::{cq_contained, engine, memo, EngineOptions};
use qc_datalog::eval::{evaluate, EvalEngine, EvalOptions};
use qc_datalog::{parse_program, parse_query, ConjunctiveQuery, Symbol, Ucq};
use qc_mediator::binding::reachable_certain_answers;
use qc_mediator::gav::{relatively_contained_gav, GavSetting};
use qc_mediator::minicon::minicon_rewritings;
use qc_mediator::reductions::{asu_reduction, random_cnf3, thm33_reduction};
use qc_mediator::relative::{
    decide, max_contained_ucq_plan, relatively_contained, semi_interval_plan, Question, Sources,
};
use qc_mediator::schema::LavSetting;
use qc_mediator::workloads::{chain_edb, query_program, random_query, random_views, Shape};
use qc_serve::{Request, ServeConfig, ServeCore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

/// Timed samples per (scenario, configuration); the minimum is kept.
/// Interference on a shared host only ever adds time, so the fastest
/// sample is the closest observation of the true cost; medians still
/// carry a ±2% noise floor here (measured via an identical-configs
/// placebo run), which is the same order as the effects under test.
const TIMED_ITERS: usize = 41;

/// Target duration of one timed sample. Scenarios cheaper than this run
/// several times per sample (amortized), so microsecond-scale timings are
/// not dominated by timer granularity and per-call cache noise.
const SAMPLE_TARGET_NS: u64 = 400_000;

/// Cap on inner repeats per sample.
const MAX_SAMPLE_REPS: u64 = 256;

/// Counter band for `--check`: a counter fails when it leaves
/// `[committed / 2, 2 × committed]` (both sides clamped up to
/// `NOISE_FLOOR`) or moves between zero and non-zero.
const REGRESSION_FACTOR: u64 = 2;
const NOISE_FLOOR: u64 = 64;

/// Wall-clock regression tolerance for `--check`: a freshly measured
/// minimum > `TIME_FACTOR × max(committed, TIME_NOISE_FLOOR_NS)` fails.
/// Looser than the counter gate because shared hardware jitters; override
/// with `--time-factor`.
const TIME_FACTOR: u64 = 4;
/// Medians below this are timer noise on any hardware; committed values
/// are clamped up to it before the ratio test.
const TIME_NOISE_FLOOR_NS: u64 = 50_000;

/// Scenarios timed during `--check` with the defaults and with the
/// tuple kernel forced, samples interleaved: the defaults slower than
/// `tuple × (LIVE_NUM/LIVE_DEN) + LIVE_SLACK_NS` fail. Both minima come
/// from the same process seconds apart, so the comparison is immune to
/// host-speed drift that the committed-snapshot gate must tolerate. They
/// are the two recursive scenarios the defaults route to the RA engine:
/// it must beat (or at worst match, within the ratio) the tuple kernel.
const LIVE_COMPARE: &[&str] = &[
    "e6_binding_patterns/ra_chain_tc_96",
    "e9_rewriting_ablation/magic_seeded_reach_64",
];
/// Live-compare ratio: the defaults may cost at most 5/4 of the tuple
/// kernel…
const LIVE_NUM: u64 = 5;
const LIVE_DEN: u64 = 4;
/// …plus a flat allowance for sub-noise scenarios.
const LIVE_SLACK_NS: u64 = 10_000;

/// The evaluator options every scenario runs with: the defaults.
fn defaults() -> EvalOptions {
    EngineOptions::sequential().eval_options()
}

/// The defaults with the tuple-at-a-time kernel forced: the other side of
/// the live comparison.
fn tuple_kernel() -> EvalOptions {
    EvalOptions {
        engine: EvalEngine::Tuple,
        ..defaults()
    }
}

/// Runs the scenario once with `eval` on the engine pinned to one thread,
/// so counter totals stay deterministic.
fn run(s: &Scenario, eval: &EvalOptions) {
    engine::with_options(EngineOptions::sequential(), || (s.run)(eval));
}

/// A scenario body. Only the datalog scenarios read the evaluator options.
type RunFn = Box<dyn Fn(&EvalOptions)>;

struct Scenario {
    name: &'static str,
    run: RunFn,
}

fn scenarios() -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();

    // E1 — Example 1 decisions: every ordered query pair, expansion route.
    let (views, queries) = qc_bench::example1();
    out.push(Scenario {
        name: "e1_example1/all_pairs_expansion",
        run: Box::new(move |_eval| {
            for (i, (qa, na)) in queries.iter().enumerate() {
                for (j, (qb, nb)) in queries.iter().enumerate() {
                    if i != j {
                        relatively_contained(qa, na, qb, nb, &views).unwrap();
                    }
                }
            }
        }),
    });

    // E4 — Theorem 3.3 Π₂ᵖ reduction instances: universal variables
    // m = 1..4 at 3 clauses (seed 100 + m), then clauses p = 1..5 at
    // m = 2 (seed 200 + p). Each universal variable doubles the plan.
    let thm33 = |name: &'static str, seed: u64, m: usize, p: usize| {
        let inst = thm33_reduction(&random_cnf3(2, m, p, &mut StdRng::seed_from_u64(seed)));
        Scenario {
            name,
            run: Box::new(move |_eval| {
                relatively_contained(
                    &inst.contained,
                    &inst.contained_ans,
                    &inst.container,
                    &inst.container_ans,
                    &inst.views,
                )
                .unwrap();
            }),
        }
    };
    for (m, name) in [
        (1, "e4_pi2p_scaling/universal_vars_1"),
        (2, "e4_pi2p_scaling/universal_vars_2"),
        (3, "e4_pi2p_scaling/universal_vars_3"),
        (4, "e4_pi2p_scaling/universal_vars_4"),
    ] {
        out.push(thm33(name, 100 + m as u64, m, 3));
    }
    for (p, name) in [
        (1, "e4_pi2p_scaling/clauses_1"),
        (2, "e4_pi2p_scaling/clauses_2"),
        (3, "e4_pi2p_scaling/clauses_3"),
        (4, "e4_pi2p_scaling/clauses_4"),
        (5, "e4_pi2p_scaling/clauses_5"),
    ] {
        out.push(thm33(name, 200 + p as u64, 2, p));
    }

    // E5 — the NP baseline: ASU SAT reduction and chain-into-chain.
    let mut rng = StdRng::seed_from_u64(6);
    let f = random_cnf3(6, 0, 6, &mut rng);
    let (q1, q2) = asu_reduction(&f);
    out.push(Scenario {
        name: "e5_cq_baseline/asu_nvars_6",
        run: Box::new(move |_eval| {
            cq_contained(&q2, &q1);
        }),
    });
    let (qa, _) = qc_bench::chain_query(16);
    let (qb, _) = qc_bench::chain_query(8);
    let ca = ConjunctiveQuery::from_rule(&qa.rules()[0]);
    let cb = ConjunctiveQuery::from_rule(&qb.rules()[0]);
    out.push(Scenario {
        name: "e5_cq_baseline/chain_16",
        run: Box::new(move |_eval| {
            cq_contained(&ca, &cb);
            cq_contained(&cb, &ca);
        }),
    });
    // Small instance: 4 × 2 subgoal pairs, so the snapshot records the
    // direct kernel's cost on tiny inputs.
    let (qa4, _) = qc_bench::chain_query(4);
    let (qb4, _) = qc_bench::chain_query(2);
    let ca4 = ConjunctiveQuery::from_rule(&qa4.rules()[0]);
    let cb4 = ConjunctiveQuery::from_rule(&qb4.rules()[0]);
    out.push(Scenario {
        name: "e5_cq_baseline/chain_4",
        run: Box::new(move |_eval| {
            cq_contained(&ca4, &cb4);
            cq_contained(&cb4, &ca4);
        }),
    });

    // E7 — Theorem 5.1: the four dealer decisions of
    // tests/comparisons.rs (semi-interval queries and views), each
    // planning from inverse-rule skeletons and completing them.
    let dealer = LavSetting::parse(&[
        "Sixties(Car, Year) :- forsale(Car, Year), Year >= 1960, Year < 1970.",
        "PreWar(Car, Year) :- forsale(Car, Year), Year < 1939.",
        "AnyCar(Car, Year) :- forsale(Car, Year).",
    ])
    .expect("dealer views parse");
    let dealer_queries = [
        "qa(C) :- forsale(C, Y), Y < 1970.",
        "qv(C) :- forsale(C, Y), Y < 1950.",
        "qq(C) :- forsale(C, Y).",
    ]
    .map(|q| {
        let p = parse_program(q).expect("dealer query parses");
        let ans = p.rules()[0].head.pred;
        (p, ans)
    });
    out.push(Scenario {
        name: "e7_semi_interval/thm51_dealer",
        run: Box::new(move |_eval| {
            let [qa, qv, qq] = &dealer_queries;
            for (a, b) in [(qv, qa), (qa, qv), (qa, qq), (qq, qa)] {
                relatively_contained(&a.0, &a.1, &b.0, &b.1, &dealer).unwrap();
            }
        }),
    });
    // E7 — Example 4: Theorem 5.1's plan P3 for Example 1's Q3.
    let (ex1_views, ex1_queries) = qc_bench::example1();
    let q3 = ConjunctiveQuery::from_rule(&ex1_queries[2].0.rules()[0]);
    out.push(Scenario {
        name: "e7_semi_interval/example4_plan",
        run: Box::new(move |_eval| {
            semi_interval_plan(&q3, &ex1_views).unwrap();
        }),
    });

    // E9 — the planner choice: plan construction for one Theorem 3.3
    // question with m = 4 universal variables (3 existential, 4 clauses),
    // by the inverse rules (the production planner) and by MiniCon run
    // per disjunct of the contained query (the reference).
    let mut rng = StdRng::seed_from_u64(101);
    let m4 = thm33_reduction(&random_cnf3(3, 4, 4, &mut rng));
    let m4_disjuncts = m4.contained.unfold(&m4.contained_ans).unwrap().disjuncts;
    let m4_views = m4.views.clone();
    out.push(Scenario {
        name: "e9_rewriting_ablation/inverse_rules_thm33_m4",
        run: Box::new(move |_eval| {
            max_contained_ucq_plan(&m4.contained, &m4.contained_ans, &m4.views).unwrap();
        }),
    });
    out.push(Scenario {
        name: "e9_rewriting_ablation/minicon_thm33_m4",
        run: Box::new(move |_eval| {
            for d in &m4_disjuncts {
                minicon_rewritings(d, &m4_views);
            }
        }),
    });
    // E9 — rewriting: a chain query over 8 random views, planned by the
    // inverse rules and by MiniCon.
    let mut rng = StdRng::seed_from_u64(8);
    let q = random_query(Shape::Chain, 3, 2, &mut rng);
    let vs = random_views(8, 2, &mut rng);
    let (q_prog, vs8) = (query_program(&q), vs.clone());
    out.push(Scenario {
        name: "e9_rewriting_ablation/inverse_rules_8views",
        run: Box::new(move |_eval| {
            max_contained_ucq_plan(&q_prog, &Symbol::new("q"), &vs8).unwrap();
        }),
    });
    out.push(Scenario {
        name: "e9_rewriting_ablation/minicon_8views",
        run: Box::new(move |_eval| {
            minicon_rewritings(&q, &vs);
        }),
    });
    // Single-view MiniCon: the smallest rewriting instance — dominated by
    // setup cost.
    let mut rng = StdRng::seed_from_u64(9);
    let q1v = random_query(Shape::Chain, 2, 2, &mut rng);
    let v1 = random_views(1, 2, &mut rng);
    out.push(Scenario {
        name: "e9_rewriting_ablation/minicon_single_view",
        run: Box::new(move |_eval| {
            minicon_rewritings(&q1v, &v1);
        }),
    });

    let tc = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
    // E6 — recursive chain plan: full transitive closure on a 96-node
    // chain (4 560 derived tuples over 95 semi-naive rounds). The adaptive
    // router sends this to the compiled RA engine (recursive → RA); the
    // live gate times it against the tuple kernel forced, so it measures
    // batch deltas against per-tuple substitution on the workload the RA
    // tier exists for.
    let tc_ra = tc.clone();
    let db96 = chain_edb("e", 96);
    out.push(Scenario {
        name: "e6_binding_patterns/ra_chain_tc_96",
        run: Box::new(move |eval| {
            evaluate(&tc_ra, &db96, eval).unwrap();
        }),
    });
    // E6 — §4 binding patterns: reachable certain answers over a
    // 256-step citation chain through a `bf` source (the `dom` recursion
    // depth grows with the chain), and one Theorem 4.2 decision.
    let mut cites =
        LavSetting::parse(&["Cites(P1, P2) :- cites(P1, P2)."]).expect("cites view parses");
    cites.sources[0] = cites.sources[0]
        .clone()
        .with_adornment("bf")
        .expect("bf fits a binary source");
    let q_cites = parse_program("q(P) :- cites(p0, P). q(P) :- q(Q2), cites(Q2, P).").unwrap();
    let chain256: String = (0..256)
        .map(|i| format!("Cites(p{i}, p{}). ", i + 1))
        .collect();
    let chain256 = qc_datalog::Database::parse(&chain256).unwrap();
    out.push(Scenario {
        name: "e6_binding_patterns/reachable_chain_256",
        run: Box::new(move |eval| {
            reachable_certain_answers(&q_cites, &Symbol::new("q"), &cites, &chain256, eval)
                .unwrap();
        }),
    });
    let mut books = LavSetting::parse(&[
        "Catalog(Author, Isbn) :- authored(Isbn, Author).",
        "PriceOf(Isbn, Price) :- price(Isbn, Price).",
    ])
    .expect("book views parse");
    for s in &mut books.sources {
        *s = s
            .clone()
            .with_adornment("bf")
            .expect("bf fits a binary source");
    }
    let q_eco = parse_program("qe(P) :- authored(I, eco), price(I, P).").unwrap();
    let q_red = parse_program("qf(P) :- authored(I, eco), price(I, P), authored(I, A).").unwrap();
    out.push(Scenario {
        name: "e6_binding_patterns/thm42_decision",
        run: Box::new(move |_eval| {
            let question = Question {
                binding_patterns: true,
                ..Question::new(&q_eco, &Symbol::new("qe"), &q_red, &Symbol::new("qf"))
            };
            decide(&question, Sources::Views(&books)).unwrap();
        }),
    });
    // E9 — binding-pattern workload: reachability seeded at one constant
    // over two disconnected 64-node chains. With magic sets only the
    // component reachable from the seed is derived; the tuple kernel
    // (forced by the live gate) materializes the full closure of both
    // components before selecting. The committed derived-facts counters
    // record the pruning.
    let seeded =
        parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). q(Y) :- t(c0, Y).")
            .unwrap();
    let mut facts = String::new();
    for i in 0..64 {
        facts.push_str(&format!("e(c{}, c{}). e(d{}, d{}). ", i, i + 1, i, i + 1));
    }
    let db_seeded = qc_datalog::Database::parse(&facts).unwrap();
    out.push(Scenario {
        name: "e9_rewriting_ablation/magic_seeded_reach_64",
        run: Box::new(move |eval| {
            qc_datalog::eval::answers(&seeded, &db_seeded, &Symbol::new("q"), eval).unwrap();
        }),
    });

    // E10 — the datalog ⊆ UCQ type fixpoint on transitive closure.
    let q_ucq = Ucq::single(parse_query("t(X, Y) :- e(X, A), e(B, Y).").unwrap());
    out.push(Scenario {
        name: "e10_engine_ablation/type_fixpoint",
        run: Box::new(move |_eval| {
            datalog_contained_in_ucq(&tc, &Symbol::new("t"), &q_ucq, &FixpointBudget::default())
                .unwrap();
        }),
    });

    // E11 — the GAV corollary: containment of unfoldings through a
    // mediated relation defined as a union of n sources, n = 2 and 16.
    let gav = |name: &'static str, n: usize| {
        let defs: Vec<String> = (0..n).map(|i| format!("m(X, Y) :- s{i}(X, Y).")).collect();
        let setting = GavSetting::parse(&defs.join("\n")).expect("GAV definitions parse");
        let q1 = parse_program("q1(X) :- m(X, Y), m(Y, Z).").unwrap();
        let q2 = parse_program("q2(X) :- m(X, Y).").unwrap();
        Scenario {
            name,
            run: Box::new(move |_eval| {
                relatively_contained_gav(
                    &q1,
                    &Symbol::new("q1"),
                    &q2,
                    &Symbol::new("q2"),
                    &setting,
                )
                .unwrap();
            }),
        }
    };
    out.push(gav("e11_gav/union_defs_2", 2));
    out.push(gav("e11_gav/union_defs_16", 16));

    // Serve — admission, checkpoints, resume and the journal, on one
    // question with eight plan disjuncts. Each e{j} of Q1 is reachable
    // only through two constant views, so the plan has 2^3 = 8 disjuncts.
    // Q2 repeats Q1's body eight times with fresh variables (equivalent to
    // one copy), so checking one disjunct searches a mapping for 24
    // subgoals and the per-disjunct loop costs more work units than
    // planning (about 200 against 145, of which 10 unfold Q1, Q2 and the
    // plan). The budget starts at 1 and doubles, carrying checkpoints,
    // until the verdict is definite. The first budget that covers
    // planning is less than twice the planning cost (half of it did not
    // cover planning), so it is less than planning plus the loop: that
    // run always trips inside the loop and
    // leaves a checkpoint (`journal_appends`), the next run resumes from
    // it (`serve_resumed`), and a definite verdict retires the journal
    // entry (`journal_retired`). The service's own counter bank is folded
    // into the installed recorder at the end.
    let views: Vec<String> = (0..3)
        .flat_map(|j| (0..2).map(move |b| format!("w{j}_{b}() :- e{j}({b}).")))
        .collect();
    let views = LavSetting::parse(&views.iter().map(String::as_str).collect::<Vec<_>>())
        .expect("views parse");
    let q1 = parse_program("a() :- e0(U0), e1(U1), e2(U2).").unwrap();
    let q2_body: Vec<String> = (0..8)
        .flat_map(|c| (0..3).map(move |j| format!("e{j}(Y{j}_{c})")))
        .collect();
    let q2 = parse_program(&format!("b() :- {}.", q2_body.join(", "))).unwrap();
    out.push(Scenario {
        name: "serve/plan8_admission_resume",
        run: Box::new(move |_eval| {
            let core = ServeCore::new(views.clone(), ServeConfig::default());
            let mut req = Request::new(q1.clone(), Symbol::new("a"), q2.clone(), Symbol::new("b"));
            let mut budget = 1u64;
            loop {
                req.budget = Some(budget);
                let resp = core.handle(&req, 0).expect("serve scenario run");
                match resp.verdict {
                    qc_mediator::relative::Verdict::Unknown(_) => {
                        req.checkpoint = resp.checkpoint;
                        budget = budget.saturating_mul(2);
                    }
                    _ => break,
                }
            }
            for (name, n) in core.counters().nonzero() {
                if let Some(c) = qc_obs::Counter::from_name(&name) {
                    qc_obs::count(c, n);
                }
            }
        }),
    });

    out
}

/// Runs the scenario once under a fresh recorder and returns the nonzero
/// counter totals, in `Counter::ALL` order.
fn counters_of(s: &Scenario) -> Vec<(String, u64)> {
    memo::clear();
    let rec = Arc::new(qc_obs::PipelineRecorder::new());
    {
        let _g = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
        run(s, &defaults());
    }
    let snap = rec.counters().snapshot();
    qc_obs::Counter::ALL
        .iter()
        .filter_map(|&c| {
            let n = snap[c as usize];
            (n != 0).then(|| (c.name().to_string(), n))
        })
        .collect()
}

/// Same as [`counters_of`], but with an unlimited [`qc_guard::Guard`]
/// installed: the zero-overhead-when-idle check demands that a guard with
/// no limits leaves every work counter bit-for-bit identical.
fn counters_of_guarded(s: &Scenario) -> Vec<(String, u64)> {
    let guard = qc_guard::Guard::unlimited();
    qc_guard::with_guard(&guard, || counters_of(s))
}

/// One timed sample: `reps` cold runs (memo cleared before every run)
/// with `eval`, amortized to whole nanoseconds per run.
fn sample_ns(s: &Scenario, eval: &EvalOptions, reps: u64) -> u64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        memo::clear();
        run(s, eval);
    }
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) / reps.max(1)
}

/// Sizes one sample to roughly [`SAMPLE_TARGET_NS`] of work via a pilot
/// run, so cheap scenarios are averaged over many repeats per sample
/// instead of trusting a single sub-microsecond timing.
fn sample_reps(s: &Scenario, eval: &EvalOptions) -> u64 {
    let pilot = sample_ns(s, eval, 1).max(1);
    (SAMPLE_TARGET_NS / pilot).clamp(1, MAX_SAMPLE_REPS)
}

/// Best (minimum) wall-clock ns over [`TIMED_ITERS`] samples with the
/// defaults.
fn best_ns(s: &Scenario) -> u64 {
    let eval = defaults();
    let reps = sample_reps(s, &eval);
    (0..TIMED_ITERS)
        .map(|_| sample_ns(s, &eval, reps))
        .min()
        .unwrap_or(u64::MAX)
}

/// Best wall clock for two evaluator options with their samples
/// interleaved (A B | B A | A B …). The host this runs on can drift 2× in
/// throughput between one measurement window and the next; measuring one
/// side to completion and then the other lets that drift masquerade as
/// an engine difference. Interleaving keeps both sides inside the same
/// windows, and taking each side's fastest sample discards the windows
/// interference landed on.
fn paired_best_ns(s: &Scenario, a: &EvalOptions, b: &EvalOptions) -> (u64, u64) {
    let (ra, rb) = (sample_reps(s, a), sample_reps(s, b));
    let mut ta = Vec::with_capacity(TIMED_ITERS);
    let mut tb = Vec::with_capacity(TIMED_ITERS);
    for i in 0..TIMED_ITERS {
        if i % 2 == 0 {
            ta.push(sample_ns(s, a, ra));
            tb.push(sample_ns(s, b, rb));
        } else {
            tb.push(sample_ns(s, b, rb));
            ta.push(sample_ns(s, a, ra));
        }
    }
    let best = |v: Vec<u64>| v.into_iter().min().unwrap_or(u64::MAX);
    (best(ta), best(tb))
}

/// The row of scenario `name` in `committed` (a snapshot, or
/// `Value::Null`).
fn committed_row<'v>(committed: &'v Value, name: &str) -> Option<&'v Value> {
    committed
        .get_field("scenarios")
        .as_array()?
        .iter()
        .find(|r| r.get_field("name").as_str() == Some(name))
}

/// The committed `min_ns` of scenario `name`, when `committed` holds one.
fn committed_min_ns(committed: &Value, name: &str) -> Option<u64> {
    as_u64(committed_row(committed, name)?.get_field("min_ns"))
}

/// A fresh snapshot: every scenario's counters, with the minimum
/// `committed` holds for it ([`committed_min_ns`]) or, for a scenario new
/// to it, a measured one. One timing run on a shared 2-core host moved the
/// minima of scenarios a change did not touch by up to 1.7x, so re-timing
/// them would loosen or tighten their gates at random.
fn snapshot(committed: &Value) -> Value {
    let mut rows = Vec::new();
    for s in scenarios() {
        let ns = committed_min_ns(committed, s.name).unwrap_or_else(|| best_ns(&s));
        eprintln!("{:<44} {:>12} ns", s.name, ns);
        rows.push(Value::Object(vec![
            ("name".to_string(), Value::Str(s.name.to_string())),
            ("min_ns".to_string(), Value::UInt(ns)),
            (
                "counters".to_string(),
                Value::Object(
                    counters_of(&s)
                        .into_iter()
                        .map(|(k, v)| (k, Value::UInt(v)))
                        .collect(),
                ),
            ),
        ]));
    }
    Value::Object(vec![
        ("schema".to_string(), Value::Str("bench_pr2/v3".to_string())),
        (
            "wall_clock_gate".to_string(),
            Value::Object(vec![
                ("reps".to_string(), Value::UInt(TIMED_ITERS as u64)),
                ("stat".to_string(), Value::Str("min".to_string())),
                ("default_factor".to_string(), Value::UInt(TIME_FACTOR)),
                (
                    "noise_floor_ns".to_string(),
                    Value::UInt(TIME_NOISE_FLOOR_NS),
                ),
            ]),
        ),
        (
            "regenerate".to_string(),
            Value::Str(
                "cargo run --release -p qc-bench --bin bench_snapshot -- --out BENCH_PR2.json"
                    .to_string(),
            ),
        ),
        ("scenarios".to_string(), Value::Array(rows)),
    ])
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(n) => u64::try_from(*n).ok(),
        Value::UInt(n) => Some(*n),
        _ => None,
    }
}

/// True when a recomputed work counter leaves the committed band: it
/// moved between zero and non-zero, or one of `current` and `committed`
/// exceeds [`REGRESSION_FACTOR`]× the other (clamped up to
/// [`NOISE_FLOOR`]). Pure so the band is unit-testable; saturating like
/// [`time_gate_trips`].
fn counter_gate_trips(current: u64, committed: u64) -> bool {
    let beyond = |a: u64, b: u64| a > REGRESSION_FACTOR.saturating_mul(b.max(NOISE_FLOOR));
    (current == 0) != (committed == 0) || beyond(current, committed) || beyond(committed, current)
}

/// True when a freshly measured wall-clock minimum regresses past the
/// gate: `current > factor × max(committed, TIME_NOISE_FLOOR_NS)`. Pure
/// so the arithmetic is unit-testable; saturating so a `u64::MAX` clamp
/// can never wrap the limit to something small.
fn time_gate_trips(current_ns: u64, committed_ns: u64, factor: u64) -> bool {
    current_ns > factor.saturating_mul(committed_ns.max(TIME_NOISE_FLOOR_NS))
}

/// True when the defaults are slower than the live-measured tuple kernel
/// past the tolerance: `defaults > tuple × 5/4 + 10µs`.
fn live_gate_trips(default_ns: u64, tuple_ns: u64) -> bool {
    default_ns > tuple_ns.saturating_mul(LIVE_NUM) / LIVE_DEN + LIVE_SLACK_NS
}

/// Recomputes every scenario's counters and fails on any counter that
/// left the committed band ([`counter_gate_trips`]), then remeasures
/// wall-clock minima and fails on any scenario slower than
/// `time_factor ×` the committed value (after the noise floor).
/// `inject_slowdown` multiplies the measured minima — a CI self-test hook
/// proving the gate actually trips.
fn check(path: &str, time_factor: u64, inject_slowdown: u64) -> ExitCode {
    let committed = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let committed: Value = match serde_json::from_str(&committed) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if committed.get_field("scenarios").as_array().is_none() {
        eprintln!("{path}: missing scenarios array");
        return ExitCode::from(2);
    }
    let mut failures = 0usize;
    for s in scenarios() {
        let Some(row) = committed_row(&committed, s.name) else {
            eprintln!("SKIP {}: not in committed snapshot", s.name);
            continue;
        };
        let current = counters_of(&s);
        let Value::Object(want) = row.get_field("counters") else {
            eprintln!("SKIP {}: malformed counters", s.name);
            continue;
        };
        // The snapshot omits zero counters, so a counter that appeared
        // since is checked against a committed 0.
        let mut names: Vec<&str> = want.iter().map(|(k, _)| k.as_str()).collect();
        for (k, _) in &current {
            if !names.contains(&k.as_str()) {
                names.push(k);
            }
        }
        for name in names {
            let committed_n = want
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| as_u64(v))
                .unwrap_or(0);
            let current_n = current
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |&(_, v)| v);
            if counter_gate_trips(current_n, committed_n) {
                eprintln!(
                    "COUNTER OUT OF BAND {}: {} = {} (committed {}, band {}x)",
                    s.name, name, current_n, committed_n, REGRESSION_FACTOR
                );
                failures += 1;
            } else {
                eprintln!(
                    "ok {:<44} {:<28} {:>12} (committed {})",
                    s.name, name, current_n, committed_n
                );
            }
        }
        // Zero-overhead-when-idle: an unlimited guard must not change a
        // single work counter relative to the unguarded run.
        let guarded = counters_of_guarded(&s);
        if guarded == current {
            eprintln!("ok {:<44} guarded-unlimited counters identical", s.name);
        } else {
            eprintln!(
                "GUARD OVERHEAD {}: unguarded {:?} vs guarded {:?}",
                s.name, current, guarded
            );
            failures += 1;
        }
        // Wall-clock gate: remeasure (best of TIMED_ITERS samples)
        // and compare against the committed value.
        if let Some(committed_ns) = as_u64(row.get_field("min_ns")) {
            let measured = best_ns(&s).saturating_mul(inject_slowdown);
            if time_gate_trips(measured, committed_ns, time_factor) {
                eprintln!(
                    "WALL-CLOCK REGRESSION {}: min {} ns (committed {} ns, limit {}x)",
                    s.name, measured, committed_ns, time_factor
                );
                failures += 1;
            } else {
                eprintln!(
                    "ok {:<44} {:<28} {:>12} (committed {})",
                    s.name, "wall_clock_min_ns", measured, committed_ns
                );
            }
        } else {
            eprintln!("SKIP {}: no committed min_ns", s.name);
        }
    }
    // Live defaults-vs-tuple comparison: both measured with interleaved
    // samples in this process, so "the RA engine lost to the tuple
    // kernel" cannot hide behind host-speed drift.
    for s in scenarios() {
        if !LIVE_COMPARE.contains(&s.name) {
            continue;
        }
        let (tuple, default_raw) = paired_best_ns(&s, &tuple_kernel(), &defaults());
        let default_ns = default_raw.saturating_mul(inject_slowdown);
        if live_gate_trips(default_ns, tuple) {
            eprintln!(
                "DEFAULTS SLOWER THAN THE TUPLE KERNEL {}: defaults {} ns vs tuple {} ns",
                s.name, default_ns, tuple
            );
            failures += 1;
        } else {
            eprintln!(
                "ok {:<44} defaults {} ns ≤ gate of tuple {} ns",
                s.name, default_ns, tuple
            );
        }
    }
    if failures > 0 {
        eprintln!("{failures} regression(s)");
        ExitCode::from(1)
    } else {
        eprintln!("all work counters and wall-clock minima within bounds");
        ExitCode::SUCCESS
    }
}

/// `--tier-self-test`: proves the size-routed tiers actually route. A
/// small and a large containment check must split across the
/// `EngineTierDirect` / `EngineTierOptimized` counters, and the
/// live-compared scenarios must run the RA evaluator with the defaults
/// and the tuple kernel when it is forced.
fn tier_self_test() -> ExitCode {
    let small = parse_query("q(X) :- e(X, Y).").unwrap();
    let small_to = parse_query("q(A) :- e(A, B).").unwrap();
    // 72 × 64 subgoals: past the direct kernel's 4 096 subgoal pairs, so
    // it routes to the bucketed kernel. Directed chains with pinned
    // endpoints resolve in linear time, so the instance is big without
    // being slow.
    let (big_p, _) = qc_bench::chain_query(72);
    let (big_p2, _) = qc_bench::chain_query(64);
    let big = ConjunctiveQuery::from_rule(&big_p.rules()[0]);
    let big_to = ConjunctiveQuery::from_rule(&big_p2.rules()[0]);
    let tiers = |from: &ConjunctiveQuery, to: &ConjunctiveQuery| {
        let rec = Arc::new(qc_obs::PipelineRecorder::new());
        {
            let _g = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
            cq_contained(from, to);
        }
        (
            rec.counters().get(qc_obs::Counter::EngineTierDirect),
            rec.counters().get(qc_obs::Counter::EngineTierOptimized),
        )
    };
    let mut failures = 0usize;
    let mut expect = |what: &str, got: (u64, u64), want_direct: bool| {
        let ok = if want_direct {
            got.0 > 0 && got.1 == 0
        } else {
            got.0 == 0 && got.1 > 0
        };
        if ok {
            eprintln!("ok {what}: direct={} optimized={}", got.0, got.1);
        } else {
            eprintln!(
                "TIER ROUTING WRONG {what}: direct={} optimized={}",
                got.0, got.1
            );
            failures += 1;
        }
    };
    expect(
        "small instances route direct",
        tiers(&small, &small_to),
        true,
    );
    expect(
        "large instances route bucketed",
        tiers(&big, &big_to),
        false,
    );

    // RA eval tier: the live-compared scenarios must exercise the compiled
    // engine with the defaults and the tuple kernel when it is forced —
    // otherwise the live gate silently measures the same engine twice.
    let eval_tiers = |eval: &EvalOptions, scenario: &str| {
        let s = scenarios()
            .into_iter()
            .find(|s| s.name == scenario)
            .unwrap_or_else(|| panic!("self-test scenario {scenario} missing"));
        let rec = Arc::new(qc_obs::PipelineRecorder::new());
        {
            let _g = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
            run(&s, eval);
        }
        (
            rec.counters().get(qc_obs::Counter::EvalTierRa),
            rec.counters().get(qc_obs::Counter::EvalTierTuple),
            rec.counters().get(qc_obs::Counter::RaMagicPrunedTuples),
        )
    };
    for scenario in LIVE_COMPARE {
        let (ra, tup, _) = eval_tiers(&defaults(), scenario);
        if ra > 0 && tup == 0 {
            eprintln!("ok {scenario} defaults route RA: ra={ra} tuple={tup}");
        } else {
            eprintln!("TIER ROUTING WRONG {scenario} defaults: ra={ra} tuple={tup}");
            failures += 1;
        }
        let (ra_t, tup_t, _) = eval_tiers(&tuple_kernel(), scenario);
        if ra_t == 0 && tup_t > 0 {
            eprintln!("ok {scenario} forced tuple stays tuple: ra={ra_t} tuple={tup_t}");
        } else {
            eprintln!("TIER ROUTING WRONG {scenario} forced tuple: ra={ra_t} tuple={tup_t}");
            failures += 1;
        }
    }
    // Magic sets must prune on the seeded E9 workload.
    let (_, _, pruned) = eval_tiers(&defaults(), "e9_rewriting_ablation/magic_seeded_reach_64");
    if pruned > 0 {
        eprintln!("ok magic sets prune on seeded reachability: pruned={pruned}");
    } else {
        eprintln!("MAGIC SETS NOT PRUNING on seeded reachability");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("{failures} tier-routing failure(s)");
        ExitCode::from(1)
    } else {
        eprintln!("tier routing verified");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut time_factor = TIME_FACTOR;
    let mut inject_slowdown = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next(),
            "--check" => check_path = args.next(),
            "--tier-self-test" => return tier_self_test(),
            "--time-factor" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n >= 1 => time_factor = n,
                _ => {
                    eprintln!("--time-factor expects an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--inject-slowdown" => match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) if n >= 1 => inject_slowdown = n,
                _ => {
                    eprintln!("--inject-slowdown expects an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "unknown flag {other} (expected --out PATH, --check PATH, \
                     --time-factor N, --inject-slowdown N, or --tier-self-test)"
                );
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = check_path {
        return check(&path, time_factor, inject_slowdown);
    }
    let path = out.unwrap_or_else(|| "BENCH_PR2.json".to_string());
    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                return ExitCode::from(2);
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::Null,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let value = snapshot(&committed);
    match serde_json::to_string_pretty(&value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("snapshot written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serialization failed: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gate_is_two_sided() {
        // The 2x band around the committed value, edges included.
        assert!(!counter_gate_trips(1_000, 1_000));
        assert!(!counter_gate_trips(2_000, 1_000));
        assert!(!counter_gate_trips(500, 1_000));
        assert!(counter_gate_trips(2_001, 1_000));
        assert!(counter_gate_trips(499, 1_000));
    }

    #[test]
    fn counter_gate_clamps_small_counters_to_the_noise_floor() {
        // Both sides clamp up to 64: 10 against anything up to 128 passes.
        assert!(!counter_gate_trips(128, 10));
        assert!(counter_gate_trips(129, 10));
        assert!(!counter_gate_trips(10, 128));
        assert!(counter_gate_trips(10, 129));
    }

    #[test]
    fn counter_gate_trips_between_zero_and_nonzero() {
        // A vanished counter fails even inside the noise floor, and so
        // does one the snapshot never recorded.
        assert!(counter_gate_trips(0, 72));
        assert!(counter_gate_trips(0, 1));
        assert!(counter_gate_trips(1, 0));
        assert!(!counter_gate_trips(0, 0));
        assert!(!counter_gate_trips(u64::MAX, u64::MAX));
    }

    #[test]
    fn time_gate_respects_noise_floor() {
        // Committed values below the floor are clamped up to 50µs, so
        // the 4× limit is 200µs regardless of how fast the committed run
        // was: 150µs passes, 250µs trips.
        assert!(!time_gate_trips(150_000, 10_000, 4));
        assert!(time_gate_trips(250_000, 10_000, 4));
    }

    #[test]
    fn time_gate_trips_past_factor() {
        let committed = 1_000_000;
        assert!(!time_gate_trips(committed, committed, 4));
        assert!(!time_gate_trips(4 * committed, committed, 4));
        assert!(time_gate_trips(4 * committed + 1, committed, 4));
        assert!(time_gate_trips(10 * committed, committed, 4));
    }

    #[test]
    fn live_gate_allows_ratio_plus_slack() {
        // Equal timings pass; 1.25× + slack is the edge.
        assert!(!live_gate_trips(1_000_000, 1_000_000));
        assert!(!live_gate_trips(1_250_000 + LIVE_SLACK_NS, 1_000_000));
        assert!(live_gate_trips(1_250_000 + LIVE_SLACK_NS + 1, 1_000_000));
        // Sub-noise scenarios live inside the flat slack.
        assert!(!live_gate_trips(9_000, 100));
        assert!(live_gate_trips(25_000, 100));
    }

    #[test]
    fn regeneration_keeps_committed_minima_and_times_new_scenarios() {
        let committed = serde_json::from_str::<Value>(
            r#"{"scenarios": [
                {"name": "kept", "min_ns": 20, "counters": {}},
                {"name": "untimed", "counters": {}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(committed_min_ns(&committed, "kept"), Some(20));
        // A scenario the file lacks, or holds without a minimum, is timed.
        assert_eq!(committed_min_ns(&committed, "new"), None);
        assert_eq!(committed_min_ns(&committed, "untimed"), None);
        // No file yet: everything is timed.
        assert_eq!(committed_min_ns(&Value::Null, "kept"), None);
    }

    #[test]
    fn time_gate_saturates_instead_of_wrapping() {
        // A u64::MAX committed value (the elapsed-cast clamp) must not
        // overflow the limit into something tiny.
        assert!(!time_gate_trips(u64::MAX, u64::MAX, 4));
    }
}
