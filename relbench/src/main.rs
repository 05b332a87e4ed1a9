//! End-to-end and per-layer benchmark for `relcont`.
//!
//! One process runs one workload, so interners, memos and peak RSS never
//! carry from one workload to the next:
//!
//! ```text
//! relbench --workload NAME --seed N --seconds S --trace 0|1
//!          --relcont PATH --work-dir DIR [--corrupt-key]
//! ```
//!
//! `relbench/run.py` builds this binary and `relcont` and passes the paths.
//! The last stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`. A
//! definite answer that disagrees with its key (exit 3) or a broken regime
//! guard (exit 4) ends the run without that line. `--corrupt-key` flips
//! the key of the first timed question, to prove the check bites.
//! `relbench/DESIGN.json` records why each workload looks the way it does.

mod certain_eval;
mod cold_check;
mod gen;
mod report;
mod serve_distinct;
mod serve_hot_churn;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub relcont: PathBuf,
    pub work_dir: PathBuf,
    pub corrupt_key: bool,
    /// When the process started (the first set-up is timed from here).
    pub started: Instant,
}

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// The timed phase runs a fixed amount of work: `--seconds` times the
/// workload's nominal rate (its measured rate on a 2-core reference
/// machine), so both sides of a comparison do the same work, and work-bound
/// quantities such as interner growth and peak RSS do not follow speed.
pub fn fixed_ops(args: &Args, nominal_per_s: f64) -> usize {
    (args.seconds.as_secs_f64() * nominal_per_s)
        .round()
        .max(1.0) as usize
}

/// A safety cap on the timed phase, far above its nominal length.
pub fn time_cap(args: &Args) -> Duration {
    args.seconds * 4
}

/// The output of a traced run.
pub struct Traced {
    pub tracer: trace::Tracer,
    /// Mean ns per operation of the untraced pass over the same operations.
    pub untraced_mean_op_ns: f64,
    /// Per-layer metrics the workload measured outside the span table
    /// (counters, ratios, means of response fields).
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut relcont = None;
    let mut work_dir = None;
    let mut corrupt_key = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-key" {
            corrupt_key = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                })
            }
            "--relcont" => relcont = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        relcont: relcont.ok_or("missing --relcont")?,
        work_dir: work_dir.ok_or("missing --work-dir")?,
        corrupt_key,
        started,
    })
}

fn main() {
    let started = Instant::now();
    let args = parse_args(started).unwrap_or_else(|e| {
        eprintln!("relbench: {e}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("relbench: {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let run: fn(&Args) -> report::E2e;
    let traced: fn(&Args) -> Traced;
    match args.workload.as_str() {
        "cold_check" => (run, traced) = (cold_check::run, cold_check::traced),
        "serve_distinct" => (run, traced) = (serve_distinct::run, serve_distinct::traced),
        "serve_hot_churn" => (run, traced) = (serve_hot_churn::run, serve_hot_churn::traced),
        "certain_eval" => (run, traced) = (certain_eval::run, certain_eval::traced),
        other => {
            eprintln!("relbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    if !args.trace {
        report::print_e2e(run(&args));
        return;
    }
    let mut t = traced(&args);
    let sum = t.tracer.summary();
    print!("{}", sum.table(t.untraced_mean_op_ns));
    t.values.insert(
        "qc-obs.tracing_overhead_pct",
        trace::overhead_pct(sum.mean_op_ns(), t.untraced_mean_op_ns),
    );
    t.values
        .insert("bench.unattributed_pct", sum.unattributed_pct());
    for (metric, span, per_op) in SPAN_METRICS {
        if sum.rows.contains_key(span) {
            let us = if *per_op {
                sum.per_op_us(span)
            } else {
                sum.per_call_us(span)
            };
            let scale = if metric.ends_with("_ms") { 1e-3 } else { 1.0 };
            t.values.insert(metric, us * scale);
        }
    }
    let spans = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = t.tracer.write_jsonl(&spans) {
        eprintln!("relbench: {}: {e}", spans.display());
        std::process::exit(2);
    }
    println!("spans: {}", spans.display());
    report::print_layers(&t.values, t.attempted, t.failed);
}

/// Per-layer time metrics read from the span table: `(metric, span name,
/// per operation?)`. Per-operation metrics sum a step over one decision;
/// the others are the mean of one call.
const SPAN_METRICS: &[(&str, &str, bool)] = &[
    ("relcont.process_ms", "relcont.process", false),
    ("relcont.inproc_ms", "relcont.inproc", false),
    ("qc-datalog.parse_us", "qc-datalog.parse", false),
    ("qc-datalog.unfold_us", "qc-datalog.unfold", true),
    (
        "qc-mediator.plan_construction_us",
        "qc-mediator.plan_construction",
        true,
    ),
    ("qc-mediator.expansion_us", "qc-mediator.expansion", true),
    (
        "qc-containment.containment_check_us",
        "qc-containment.containment_check",
        true,
    ),
    ("qc-mediator.fn_elim_us", "qc-mediator.fn_elim", false),
    ("qc-serve.fingerprint_us", "qc-serve.fingerprint", false),
    ("qc-serve.handle_hit_us", "qc-serve.handle_hit", false),
    ("qc-serve.handle_miss_us", "qc-serve.handle_miss", false),
    ("qc-serve.apply_delta_us", "qc-serve.apply_delta", false),
    (
        "qc-mediator.catalog_compile_ms",
        "qc-mediator.catalog_compile",
        false,
    ),
    (
        "qc-mediator.inverse_plan_us",
        "qc-mediator.inverse_plan",
        false,
    ),
    ("qc-datalog.eval_ms", "qc-datalog.eval", false),
];
