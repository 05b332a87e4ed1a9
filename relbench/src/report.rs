//! Result lines, statistics, and the two ways a run aborts.

use std::collections::BTreeMap;

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload does not exercise reports 0. Must match `per_layer` in
/// BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("relcont.process_ms", "ms"),
    ("relcont.inproc_ms", "ms"),
    ("relcont.cold_overhead_ms", "ms"),
    ("qc-datalog.parse_us", "us"),
    ("qc-datalog.unfold_us", "us"),
    ("qc-mediator.plan_construction_us", "us"),
    ("qc-mediator.expansion_us", "us"),
    ("qc-containment.containment_check_us", "us"),
    ("qc-mediator.fn_elim_us", "us"),
    ("qc-serve.fingerprint_us", "us"),
    ("qc-serve.handle_hit_us", "us"),
    ("qc-serve.handle_miss_us", "us"),
    ("qc-serve.overhead_us", "us"),
    ("qc-serve.apply_delta_us", "us"),
    ("qc-serve.queue_wait_us", "us"),
    ("qc-serve.cache_hit_ratio", "ratio"),
    ("qc-mediator.catalog_compile_ms", "ms"),
    ("qc-mediator.inverse_plan_us", "us"),
    ("qc-datalog.eval_ms", "ms"),
    ("qc-guard.consumed_units", "units/op"),
    ("qc-obs.tracing_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("qc-mediator.plan_disjuncts", "count"),
    ("qc-mediator.fn_elim_rules_emitted", "count"),
    ("qc-mediator.expansion_rules", "count"),
    ("qc-containment.hom_search_nodes", "count"),
    ("qc-containment.hom_candidates_pruned", "count"),
    ("qc-containment.engine_tier_direct", "count"),
    ("qc-containment.engine_tier_optimized", "count"),
    ("qc-containment.memo_hits", "count"),
    ("qc-containment.memo_misses", "count"),
    ("qc-constraints.constraint_closure_ops", "count"),
    ("qc-datalog.eval_tier_ra", "count"),
    ("qc-datalog.eval_tier_tuple", "count"),
    ("qc-datalog.eval_derived_facts", "count"),
    ("qc-datalog.eval_index_probes", "count"),
    ("qc-datalog.eval_full_scans", "count"),
    ("qc-datalog.ra_magic_pruned_tuples", "count"),
    ("qc-serve.serve_verdict_cache_hits", "count"),
    ("qc-serve.serve_coalesced_hits", "count"),
    ("qc-serve.serve_tier_downgrades", "count"),
    ("qc-mediator.catalog_epoch_views_recompiled", "count"),
    ("qc-serve.invalidation_verdicts_dropped", "count"),
];

/// Program counters reported per layer, read from the program's own
/// counter bank (`qc_obs`), keyed by their per-layer metric name.
pub const COUNTERS: &[(&str, qc_obs::Counter)] = &[
    ("qc-mediator.plan_disjuncts", qc_obs::Counter::PlanDisjuncts),
    (
        "qc-mediator.fn_elim_rules_emitted",
        qc_obs::Counter::FnElimRulesEmitted,
    ),
    (
        "qc-mediator.expansion_rules",
        qc_obs::Counter::ExpansionRules,
    ),
    (
        "qc-containment.hom_search_nodes",
        qc_obs::Counter::HomSearchNodes,
    ),
    (
        "qc-containment.hom_candidates_pruned",
        qc_obs::Counter::HomCandidatesPruned,
    ),
    (
        "qc-containment.engine_tier_direct",
        qc_obs::Counter::EngineTierDirect,
    ),
    (
        "qc-containment.engine_tier_optimized",
        qc_obs::Counter::EngineTierOptimized,
    ),
    ("qc-containment.memo_hits", qc_obs::Counter::MemoHits),
    ("qc-containment.memo_misses", qc_obs::Counter::MemoMisses),
    (
        "qc-constraints.constraint_closure_ops",
        qc_obs::Counter::ConstraintClosureOps,
    ),
    ("qc-datalog.eval_tier_ra", qc_obs::Counter::EvalTierRa),
    ("qc-datalog.eval_tier_tuple", qc_obs::Counter::EvalTierTuple),
    (
        "qc-datalog.eval_derived_facts",
        qc_obs::Counter::EvalDerivedFacts,
    ),
    (
        "qc-datalog.eval_index_probes",
        qc_obs::Counter::EvalIndexProbes,
    ),
    ("qc-datalog.eval_full_scans", qc_obs::Counter::EvalFullScans),
    (
        "qc-datalog.ra_magic_pruned_tuples",
        qc_obs::Counter::RaMagicPrunedTuples,
    ),
    (
        "qc-serve.serve_verdict_cache_hits",
        qc_obs::Counter::ServeVerdictCacheHits,
    ),
    (
        "qc-serve.serve_coalesced_hits",
        qc_obs::Counter::ServeCoalescedHits,
    ),
    (
        "qc-serve.serve_tier_downgrades",
        qc_obs::Counter::ServeTierDowngrades,
    ),
    (
        "qc-mediator.catalog_epoch_views_recompiled",
        qc_obs::Counter::CatalogEpochViewsRecompiled,
    ),
    (
        "qc-serve.invalidation_verdicts_dropped",
        qc_obs::Counter::InvalidationVerdictsDropped,
    ),
];

/// Copies every [`COUNTERS`] value from `bank` into `out` (overwriting).
pub fn put_counters(out: &mut BTreeMap<&'static str, f64>, bank: &qc_obs::Counters) {
    for (name, c) in COUNTERS {
        out.insert(name, bank.get(*c) as f64);
    }
}

/// What an untraced run measured.
pub struct E2e {
    /// Seconds of each set-up; the first is timed from process start.
    pub setup_s: Vec<f64>,
    /// Closed-loop latency of every timed operation.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Definite answers that matched their key.
    pub correct: u64,
    /// Length of the timed phase (harness-side checking excluded).
    pub busy_s: f64,
    pub peak_rss_kib: u64,
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted nanosecond samples, in milliseconds.
pub fn quantile_ms(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

/// Prints the count, p50 and mean latency of each group of operations
/// (a workload's question families or instance shapes).
pub fn print_groups<K: Ord + std::fmt::Display>(
    label: &str,
    samples: impl Iterator<Item = (K, u64)>,
) {
    let mut by: BTreeMap<K, Vec<u64>> = BTreeMap::new();
    for (k, ns) in samples {
        by.entry(k).or_default().push(ns);
    }
    let parts: Vec<String> = by
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable();
            let mean = v.iter().sum::<u64>() as f64 / v.len() as f64 / 1e6;
            format!(
                "{k}: {} p50 {:.3} ms mean {mean:.3} ms",
                v.len(),
                quantile_ms(&v, 0.5)
            )
        })
        .collect();
    println!("{label}: {}", parts.join(", "));
}

pub fn print_e2e(mut e: E2e) {
    if e.latencies_ns.is_empty() {
        guard_failed("no timed operation completed");
    }
    e.latencies_ns.sort_unstable();
    let p50 = quantile_ms(&e.latencies_ns, 0.5);
    let p90 = quantile_ms(&e.latencies_ns, 0.9);
    let setup = median(&e.setup_s);
    let rendered: Vec<String> = e.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-ups (s): {}", rendered.join(" "));
    println!(
        "latency samples: {} in {:.3} s; attempted {}, failed {}, correct {}",
        e.latencies_ns.len(),
        e.busy_s,
        e.attempted,
        e.failed,
        e.correct
    );
    let metrics = [
        ("setup_s", setup, "s"),
        ("ops_per_s", e.correct as f64 / e.busy_s, "op/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p90_ms", p90, "ms"),
        ("peak_rss_mib", e.peak_rss_kib as f64 / 1024.0, "MiB"),
    ];
    println!("{}", result_line(e.attempted, e.failed, &metrics));
}

pub fn print_layers(values: &BTreeMap<&'static str, f64>, attempted: u64, failed: u64) {
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .map(|(n, u)| (*n, values.get(n).copied().unwrap_or(0.0), *u))
        .collect();
    println!("{}", result_line(attempted, failed, &metrics));
}

fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|r| r.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// The layout of `struct rusage` on 64-bit Linux: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set of the largest child process waited for so far
/// (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_kib() -> u64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the 64-bit Linux layout of
    // `struct rusage`; getrusage writes only inside it and keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u64::try_from(u.maxrss).unwrap_or(0)
    } else {
        0
    }
}

/// Aborts the run: a definite answer disagreed with its key.
pub fn wrong_answer(what: &str) -> ! {
    eprintln!("relbench: WRONG ANSWER: {what}");
    std::process::exit(3)
}

/// Aborts the run: the workload left the regime it is meant to measure.
pub fn guard_failed(what: &str) -> ! {
    eprintln!("relbench: REGIME GUARD FAILED: {what}");
    std::process::exit(4)
}
