//! `bench_snapshot` — counter-first performance snapshot of the engine.
//!
//! Runs fixed scenarios from the experiment suites E1, E4, E5, E6, E9 and
//! E10, plus one through the `qc-serve` admission layer, on the engine
//! pinned to one thread ([`EngineOptions::sequential`]) under two datalog
//! evaluator configurations: the baseline (tuple-at-a-time fixpoints in
//! textual body order, no magic sets) and the optimized evaluator defaults
//! (adaptive RA routing, greedy join reordering, magic sets). It records,
//! per scenario and configuration, the best-of-samples wall-clock ns/iter
//! plus the `qc-obs` work-counter totals of one run. Only the datalog
//! scenarios differ between the two configurations.
//!
//! ```sh
//! # Regenerate the committed snapshot.
//! cargo run --release -p qc-bench --bin bench_snapshot -- --out BENCH_PR2.json
//! # CI smoke: recompute counters and fail on >2x regressions vs the
//! # committed snapshot, and remeasure wall-clock minima, failing on
//! # >4x (configurable via --time-factor) against the committed ones.
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
//! `--check` additionally measures the baseline and optimized
//! configurations back-to-back on the [`LIVE_COMPARE`] scenarios and fails
//! when optimized is slower than `1.25 × baseline + 10µs` — the optimized
//! evaluator regressing behind the tuple-at-a-time baseline on wall clock
//! fails CI even if every counter is fine.
//!
//! Work counters are deterministic for a sequential engine, which is what
//! makes the check mode meaningful on shared CI hardware: a >2× counter
//! increase is an algorithmic regression, not scheduler noise. The
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
use qc_datalog::eval::{evaluate, EvalEngine, EvalOptions, Strategy};
use qc_datalog::{parse_program, parse_query, ConjunctiveQuery, Symbol, Ucq};
use qc_mediator::minicon::minicon_rewritings;
use qc_mediator::reductions::{asu_reduction, random_cnf3, thm33_reduction};
use qc_mediator::relative::relatively_contained;
use qc_mediator::workloads::{chain_edb, random_query, random_views, Shape};
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

/// Counter-regression tolerance for `--check`: current > `2 ×
/// max(committed, NOISE_FLOOR)` fails.
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

/// Scenarios whose baseline and optimized configurations are measured
/// back-to-back during `--check`: optimized slower than
/// `baseline × (LIVE_NUM/LIVE_DEN) + LIVE_SLACK_NS` fails. Both minima
/// come from the same process seconds apart, so the comparison is immune
/// to host-speed drift that the committed-snapshot gate must tolerate.
/// They are the two recursive RA-tier scenarios: the compiled engine must
/// beat (or at worst match, within the ratio) the tuple-at-a-time kernel.
const LIVE_COMPARE: &[&str] = &[
    "e6_binding_patterns/ra_chain_tc_96",
    "e9_rewriting_ablation/magic_seeded_reach_64",
];
/// Live-compare ratio: optimized may cost at most 5/4 of baseline…
const LIVE_NUM: u64 = 5;
const LIVE_DEN: u64 = 4;
/// …plus a flat allowance for sub-noise scenarios.
const LIVE_SLACK_NS: u64 = 10_000;

/// One evaluator configuration under measurement.
struct Cfg {
    name: &'static str,
    eval: EvalOptions,
}

fn configs() -> [Cfg; 2] {
    [
        Cfg {
            name: "baseline",
            // Tuple-at-a-time fixpoints, no dynamic join reordering, no
            // magic sets.
            eval: EvalOptions {
                engine: EvalEngine::Tuple,
                reorder: false,
                magic_sets: false,
                ..EvalOptions::default()
            },
        },
        Cfg {
            name: "optimized",
            eval: EngineOptions::sequential().eval_options(),
        },
    ]
}

/// Runs the scenario once under `cfg` on the engine pinned to one thread,
/// so counter totals stay deterministic.
fn run(s: &Scenario, cfg: &Cfg) {
    engine::with_options(EngineOptions::sequential(), || (s.run)(cfg));
}

type RunFn = Box<dyn Fn(&Cfg)>;

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
        run: Box::new(move |_cfg| {
            for (i, (qa, na)) in queries.iter().enumerate() {
                for (j, (qb, nb)) in queries.iter().enumerate() {
                    if i != j {
                        relatively_contained(qa, na, qb, nb, &views).unwrap();
                    }
                }
            }
        }),
    });

    // E4 — Theorem 3.3 Π₂ᵖ reduction instance (4 universal vars, 3
    // clauses; same seeding scheme as the criterion bench).
    let mut rng = StdRng::seed_from_u64(104);
    let f = random_cnf3(2, 4, 3, &mut rng);
    let inst = thm33_reduction(&f);
    out.push(Scenario {
        name: "e4_pi2p_scaling/universal_vars_4",
        run: Box::new(move |_cfg| {
            relatively_contained(
                &inst.contained,
                &inst.contained_ans,
                &inst.container,
                &inst.container_ans,
                &inst.views,
            )
            .unwrap();
        }),
    });

    // E5 — the NP baseline: ASU SAT reduction and chain-into-chain.
    let mut rng = StdRng::seed_from_u64(6);
    let f = random_cnf3(6, 0, 6, &mut rng);
    let (q1, q2) = asu_reduction(&f);
    out.push(Scenario {
        name: "e5_cq_baseline/asu_nvars_6",
        run: Box::new(move |_cfg| {
            cq_contained(&q2, &q1);
        }),
    });
    let (qa, _) = qc_bench::chain_query(16);
    let (qb, _) = qc_bench::chain_query(8);
    let ca = ConjunctiveQuery::from_rule(&qa.rules()[0]);
    let cb = ConjunctiveQuery::from_rule(&qb.rules()[0]);
    out.push(Scenario {
        name: "e5_cq_baseline/chain_16",
        run: Box::new(move |_cfg| {
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
        run: Box::new(move |_cfg| {
            cq_contained(&ca4, &cb4);
            cq_contained(&cb4, &ca4);
        }),
    });

    // E9 — rewriting: MiniCon on a chain query over 8 random views.
    let mut rng = StdRng::seed_from_u64(8);
    let q = random_query(Shape::Chain, 3, 2, &mut rng);
    let vs = random_views(8, 2, &mut rng);
    out.push(Scenario {
        name: "e9_rewriting_ablation/minicon_8views",
        run: Box::new(move |_cfg| {
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
        run: Box::new(move |_cfg| {
            minicon_rewritings(&q1v, &v1);
        }),
    });

    // E10 — engine ablation: naïve-strategy transitive closure (the
    // workload where join order dominates: the textual order scans the
    // quadratic `t`, the greedy order scans the linear `e`), plus the
    // datalog ⊆ UCQ type fixpoint.
    let tc = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
    let db = chain_edb("e", 48);
    let tc2 = tc.clone();
    out.push(Scenario {
        name: "e10_engine_ablation/tc_naive_chain48",
        run: Box::new(move |cfg| {
            evaluate(
                &tc2,
                &db,
                &EvalOptions {
                    strategy: Strategy::Naive,
                    ..cfg.eval
                },
            )
            .unwrap();
        }),
    });
    // E6 — recursive chain plan: full transitive closure on a 96-node
    // chain (4 560 derived tuples over 95 semi-naive rounds). The
    // baseline runs the tuple-at-a-time kernel; the optimized adaptive
    // router sends this to the compiled RA engine (recursive → RA), so
    // the paired-minima gate measures batch deltas against per-tuple
    // substitution on the workload the RA tier exists for.
    let tc_ra = tc.clone();
    let db96 = chain_edb("e", 96);
    out.push(Scenario {
        name: "e6_binding_patterns/ra_chain_tc_96",
        run: Box::new(move |cfg| {
            evaluate(&tc_ra, &db96, &cfg.eval).unwrap();
        }),
    });
    // E9 — binding-pattern workload: reachability seeded at one constant
    // over two disconnected 64-node chains. With magic sets (optimized)
    // only the component reachable from the seed is derived; the tuple
    // baseline materializes the full closure of both components before
    // selecting. The committed derived-facts counters record the pruning.
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
        run: Box::new(move |cfg| {
            qc_datalog::eval::answers(&seeded, &db_seeded, &Symbol::new("q"), &cfg.eval).unwrap();
        }),
    });

    let q_ucq = Ucq::single(parse_query("t(X, Y) :- e(X, A), e(B, Y).").unwrap());
    out.push(Scenario {
        name: "e10_engine_ablation/type_fixpoint",
        run: Box::new(move |_cfg| {
            datalog_contained_in_ucq(&tc, &Symbol::new("t"), &q_ucq, &FixpointBudget::default())
                .unwrap();
        }),
    });

    // Serve — queue-throughput counters: Example 1 pairs through the
    // admission layer. Each pair starts with a budget of 1 work unit and
    // doubles it until the verdict is definite, carrying checkpoints
    // between rounds, so the serve_* counters (completed, resumed, tier
    // churn) enter the committed snapshot with deterministic values. The
    // service's own counter bank is folded into the installed recorder
    // at the end.
    let (views, queries) = qc_bench::example1();
    out.push(Scenario {
        name: "serve/example1_admission_resume",
        run: Box::new(move |_cfg| {
            let core = ServeCore::new(views.clone(), ServeConfig::default());
            for (i, (qa, na)) in queries.iter().enumerate() {
                for (j, (qb, nb)) in queries.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let mut req = Request::new(qa.clone(), *na, qb.clone(), *nb);
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
fn counters_of(s: &Scenario, cfg: &Cfg) -> Vec<(String, u64)> {
    memo::clear();
    let rec = Arc::new(qc_obs::PipelineRecorder::new());
    {
        let _g = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
        run(s, cfg);
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
fn counters_of_guarded(s: &Scenario, cfg: &Cfg) -> Vec<(String, u64)> {
    let guard = qc_guard::Guard::unlimited();
    qc_guard::with_guard(&guard, || counters_of(s, cfg))
}

/// One timed sample: `reps` cold runs (memo cleared before every run)
/// under `cfg`, amortized to whole nanoseconds per run.
fn sample_ns(s: &Scenario, cfg: &Cfg, reps: u64) -> u64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        memo::clear();
        run(s, cfg);
    }
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) / reps.max(1)
}

/// Sizes one sample to roughly [`SAMPLE_TARGET_NS`] of work via a pilot
/// run, so cheap scenarios are averaged over many repeats per sample
/// instead of trusting a single sub-microsecond timing.
fn sample_reps(s: &Scenario, cfg: &Cfg) -> u64 {
    let pilot = sample_ns(s, cfg, 1).max(1);
    (SAMPLE_TARGET_NS / pilot).clamp(1, MAX_SAMPLE_REPS)
}

/// Best (minimum) wall-clock ns over [`TIMED_ITERS`] samples.
fn best_ns(s: &Scenario, cfg: &Cfg) -> u64 {
    let reps = sample_reps(s, cfg);
    (0..TIMED_ITERS)
        .map(|_| sample_ns(s, cfg, reps))
        .min()
        .unwrap_or(u64::MAX)
}

/// Best wall clock for two configurations with their samples interleaved
/// (A B | B A | A B …). The host this runs on can drift 2× in throughput
/// between one measurement window and the next; measuring one
/// configuration to completion and then the other lets that drift
/// masquerade as an engine difference. Interleaving keeps both
/// configurations inside the same windows, and taking each side's fastest
/// sample discards the windows interference landed on.
fn paired_best_ns(s: &Scenario, a: &Cfg, b: &Cfg) -> (u64, u64) {
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

fn snapshot() -> Value {
    let mut rows = Vec::new();
    for s in scenarios() {
        let mut row = vec![("name".to_string(), Value::Str(s.name.to_string()))];
        let cfgs = configs();
        let (base_ns, opt_ns) = paired_best_ns(&s, &cfgs[0], &cfgs[1]);
        for (cfg, ns) in cfgs.iter().zip([base_ns, opt_ns]) {
            let counters = counters_of(&s, cfg);
            eprintln!("{:<44} {:<10} {:>12} ns", s.name, cfg.name, ns);
            row.push((
                cfg.name.to_string(),
                Value::Object(vec![
                    ("min_ns".to_string(), Value::UInt(ns)),
                    (
                        "counters".to_string(),
                        Value::Object(
                            counters
                                .into_iter()
                                .map(|(k, v)| (k, Value::UInt(v)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        rows.push(Value::Object(row));
    }
    Value::Object(vec![
        ("schema".to_string(), Value::Str("bench_pr2/v2".to_string())),
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

/// True when a freshly measured wall-clock minimum regresses past the
/// gate: `current > factor × max(committed, TIME_NOISE_FLOOR_NS)`. Pure
/// so the arithmetic is unit-testable; saturating so a `u64::MAX` clamp
/// can never wrap the limit to something small.
fn time_gate_trips(current_ns: u64, committed_ns: u64, factor: u64) -> bool {
    current_ns > factor.saturating_mul(committed_ns.max(TIME_NOISE_FLOOR_NS))
}

/// True when the optimized engine is slower than the live-measured
/// baseline past the tolerance: `opt > base × 5/4 + 10µs`.
fn live_gate_trips(opt_ns: u64, base_ns: u64) -> bool {
    opt_ns > base_ns.saturating_mul(LIVE_NUM) / LIVE_DEN + LIVE_SLACK_NS
}

/// Recomputes the optimized-engine counters and fails on any counter that
/// regressed more than [`REGRESSION_FACTOR`]× against the committed
/// snapshot, then remeasures wall-clock minima and fails on any scenario
/// slower than `time_factor ×` the committed value (after the noise
/// floor). `inject_slowdown` multiplies the measured minima — a CI
/// self-test hook proving the gate actually trips.
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
    let Some(rows) = committed.get_field("scenarios").as_array() else {
        eprintln!("{path}: missing scenarios array");
        return ExitCode::from(2);
    };
    let cfg = configs()
        .into_iter()
        .find(|c| c.name == "optimized")
        .expect("optimized config exists");
    let mut failures = 0usize;
    for s in scenarios() {
        let Some(row) = rows
            .iter()
            .find(|r| r.get_field("name").as_str() == Some(s.name))
        else {
            eprintln!("SKIP {}: not in committed snapshot", s.name);
            continue;
        };
        let current = counters_of(&s, &cfg);
        let opt = row.get_field("optimized");
        let want = opt.get_field("counters");
        let Value::Object(want) = want else {
            eprintln!("SKIP {}: malformed counters", s.name);
            continue;
        };
        for (name, committed_v) in want {
            let Some(committed_n) = as_u64(committed_v) else {
                continue;
            };
            let current_n = current
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |&(_, v)| v);
            let limit = REGRESSION_FACTOR * committed_n.max(NOISE_FLOOR);
            if current_n > limit {
                eprintln!(
                    "REGRESSION {}: {} = {} (committed {}, limit {})",
                    s.name, name, current_n, committed_n, limit
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
        let guarded = counters_of_guarded(&s, &cfg);
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
        if let Some(committed_ns) = as_u64(opt.get_field("min_ns")) {
            let measured = best_ns(&s, &cfg).saturating_mul(inject_slowdown);
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
    // Live optimized-vs-baseline comparison: both configurations measured
    // with interleaved samples in this process, so "optimized lost to the
    // baseline" cannot hide behind host-speed drift.
    let baseline_cfg = configs()
        .into_iter()
        .find(|c| c.name == "baseline")
        .expect("baseline config exists");
    for s in scenarios() {
        if !LIVE_COMPARE.contains(&s.name) {
            continue;
        }
        let (base, opt_raw) = paired_best_ns(&s, &baseline_cfg, &cfg);
        let opt = opt_raw.saturating_mul(inject_slowdown);
        if live_gate_trips(opt, base) {
            eprintln!(
                "OPTIMIZED SLOWER THAN BASELINE {}: optimized {} ns vs baseline {} ns",
                s.name, opt, base
            );
            failures += 1;
        } else {
            eprintln!(
                "ok {:<44} optimized {} ns ≤ gate of baseline {} ns",
                s.name, opt, base
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
/// `EngineTierDirect` / `EngineTierOptimized` counters, and the recursive
/// scenarios must run the RA evaluator only under the optimized
/// configuration.
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

    // RA eval tier: the recursive bench scenarios must actually exercise
    // the compiled engine under the optimized configuration (and the
    // tuple kernel under the baseline) — otherwise the committed RA-vs-
    // tuple comparison silently measures the same engine twice.
    let eval_tiers = |cfg: &Cfg, scenario: &str| {
        let s = scenarios()
            .into_iter()
            .find(|s| s.name == scenario)
            .unwrap_or_else(|| panic!("self-test scenario {scenario} missing"));
        let rec = Arc::new(qc_obs::PipelineRecorder::new());
        {
            let _g = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
            run(&s, cfg);
        }
        (
            rec.counters().get(qc_obs::Counter::EvalTierRa),
            rec.counters().get(qc_obs::Counter::EvalTierTuple),
            rec.counters().get(qc_obs::Counter::RaMagicPrunedTuples),
        )
    };
    let cfgs = configs();
    for scenario in [
        "e6_binding_patterns/ra_chain_tc_96",
        "e9_rewriting_ablation/magic_seeded_reach_64",
    ] {
        let (ra, tup, _) = eval_tiers(&cfgs[1], scenario);
        if ra > 0 && tup == 0 {
            eprintln!("ok {scenario} optimized routes RA: ra={ra} tuple={tup}");
        } else {
            eprintln!("TIER ROUTING WRONG {scenario} optimized: ra={ra} tuple={tup}");
            failures += 1;
        }
        let (ra_b, tup_b, _) = eval_tiers(&cfgs[0], scenario);
        if ra_b == 0 && tup_b > 0 {
            eprintln!("ok {scenario} baseline stays tuple: ra={ra_b} tuple={tup_b}");
        } else {
            eprintln!("TIER ROUTING WRONG {scenario} baseline: ra={ra_b} tuple={tup_b}");
            failures += 1;
        }
    }
    // Magic sets must prune on the seeded E9 workload.
    let (_, _, pruned) = eval_tiers(&cfgs[1], "e9_rewriting_ablation/magic_seeded_reach_64");
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
    let value = snapshot();
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
    fn time_gate_saturates_instead_of_wrapping() {
        // A u64::MAX committed value (the elapsed-cast clamp) must not
        // overflow the limit into something tiny.
        assert!(!time_gate_trips(u64::MAX, u64::MAX, 4));
    }
}
