//! `cold_check`: one `relcont check` child process at a time over a corpus
//! that set-up writes from the seed. Process start-up, file parsing and
//! first-use set-up dominate here; engine work per question stays under a
//! millisecond and on the direct homomorphism kernel.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qc_datalog::{parse_program, Program, Symbol};
use qc_mediator::reductions::thm33_reduction;
use qc_mediator::relative::{explain_containment, relatively_contained_witness, ContainmentKind};
use qc_mediator::schema::{LavSetting, SourceDescription};

use crate::gen::{self, Chain, Rng};
use crate::report::{self, E2e};
use crate::trace::{span, Tracer};
use crate::{fixed_ops, time_cap, Args, Traced, SETUPS};

/// Untimed checks per set-up, before the timed phase.
const WARM_SPAWNS: usize = 300;
/// Thm 3.3 instances (∀∃-3CNF with 2 existential, 2 universal variables,
/// 3 clauses; half satisfiable) and chain pairs in the corpus. The Thm 3.3
/// checks take about twice as long as the others; at about one item in five
/// they set the 90th percentile, and the median falls well inside the
/// band of the faster items.
const THM33_ITEMS: usize = 12;
/// Checks per second of `--seconds` (see [`crate::fixed_ops`]).
const NOMINAL_RATE: f64 = 1500.0;
const CHAIN_ITEMS: usize = 36;

struct Item {
    kind: &'static str,
    views: String,
    q1: String,
    q2: String,
    paths: [PathBuf; 3],
    key: bool,
}

/// Writes a corpus file unless it already holds `text`. Rewriting a file
/// frees its blocks, which on a filesystem mounted with `discard` can take
/// seconds; a seed's corpus is identical in every set-up and every run.
fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    if std::fs::read_to_string(&path).is_ok_and(|old| old == text) {
        return path;
    }
    if let Err(e) = std::fs::write(&path, text) {
        report::guard_failed(&format!("{}: {e}", path.display()));
    }
    path
}

/// The corpus: Example 1's six ordered pairs, small Thm 3.3 instances and
/// chain pairs over chain views of length ≤ 2, in a seeded order.
fn corpus(args: &Args) -> Vec<Item> {
    let dir = args.work_dir.join(format!("cold_check-{}", args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report::guard_failed(&format!("{}: {e}", dir.display()));
    }
    let mut rng = Rng::new(args.seed);
    let mut items = Vec::new();

    let ex1_views = gen::EXAMPLE1_VIEWS.join("\n");
    let ex1_views_path = write(&dir, "ex1_views.dl", &ex1_views);
    let ex1_paths: Vec<PathBuf> = gen::EXAMPLE1_QUERIES
        .iter()
        .map(|(name, rule)| write(&dir, &format!("ex1_{name}.dl"), rule))
        .collect();
    for a in 0..3 {
        for b in 0..3 {
            if a != b {
                items.push(Item {
                    kind: "example1",
                    views: ex1_views.clone(),
                    q1: gen::EXAMPLE1_QUERIES[a].1.to_string(),
                    q2: gen::EXAMPLE1_QUERIES[b].1.to_string(),
                    paths: [
                        ex1_views_path.clone(),
                        ex1_paths[a].clone(),
                        ex1_paths[b].clone(),
                    ],
                    key: gen::example1_key(a, b),
                });
            }
        }
    }

    for i in 0..THM33_ITEMS {
        let sat = i % 2 == 0;
        let inst = thm33_reduction(&gen::formula_with(&mut rng, 2, 2, 3, sat));
        let views: Vec<String> = inst.views.sources.iter().map(|s| s.to_string()).collect();
        let views = views.join("\n");
        let q1 = inst.contained.to_string();
        let q2 = inst.container.to_string();
        let paths = [
            write(&dir, &format!("t{i}_views.dl"), &views),
            write(&dir, &format!("t{i}_q1.dl"), &q1),
            write(&dir, &format!("t{i}_q2.dl"), &q2),
        ];
        items.push(Item {
            kind: "thm33",
            views,
            q1,
            q2,
            paths,
            key: sat,
        });
    }

    let alphabet = ["a".to_string(), "b".to_string()];
    let chain_views = gen::chain_views(&alphabet, 2).join("\n");
    let chain_views_path = write(&dir, "chain_views.dl", &chain_views);
    for i in 0..CHAIN_ITEMS {
        let len = 2 + i % 3;
        let c1 = Chain::random(&mut rng, &alphabet, len, (i / 3) % 2);
        let contained = i % 2 == 0;
        let c2 = if contained {
            c1.clone()
        } else {
            c1.other(&mut rng, &alphabet)
        };
        let (q1, q2) = (c1.rule("qa"), c2.rule("qb"));
        let paths = [
            chain_views_path.clone(),
            write(&dir, &format!("c{i}_q1.dl"), &q1),
            write(&dir, &format!("c{i}_q2.dl"), &q2),
        ];
        items.push(Item {
            kind: "chain",
            views: chain_views.clone(),
            q1,
            q2,
            paths,
            key: contained,
        });
    }
    rng.shuffle(&mut items);
    if args.corrupt_key {
        items[0].key = !items[0].key;
    }
    items
}

/// One `relcont check` child: wall time from spawn to exit, and the
/// verdict its exit code gives (`None` for any code other than 0 or 1).
fn spawn(relcont: &Path, it: &Item) -> (u64, Option<bool>) {
    let t0 = Instant::now();
    let status = Command::new(relcont)
        .arg("check")
        .arg("--views")
        .arg(&it.paths[0])
        .arg("--q1")
        .arg(&it.paths[1])
        .arg("--q2")
        .arg(&it.paths[2])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match status {
        Ok(s) => (
            ns,
            match s.code() {
                Some(0) => Some(true),
                Some(1) => Some(false),
                _ => None,
            },
        ),
        Err(e) => report::guard_failed(&format!("cannot run {}: {e}", relcont.display())),
    }
}

fn check(it: &Item, verdict: bool) {
    if verdict != it.key {
        report::wrong_answer(&format!(
            "relcont check {} in {} answered {verdict}, key {}",
            it.paths[1].display(),
            it.paths[2].display(),
            it.key
        ));
    }
}

fn setup(args: &Args) -> Vec<Item> {
    let items = corpus(args);
    for i in 0..WARM_SPAWNS {
        let it = &items[i % items.len()];
        if let (_, Some(v)) = spawn(&args.relcont, it) {
            check(it, v);
        }
    }
    items
}

/// Spawns operations `0..` until `limit` or `budget`; returns latencies,
/// failures and wall time.
fn pass(
    args: &Args,
    items: &[Item],
    limit: usize,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> (Vec<u64>, u64, Duration) {
    let mut lat = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    for i in 0..limit {
        if start.elapsed() >= budget {
            break;
        }
        let it = &items[i % items.len()];
        let (ns, verdict) = {
            let _op = tracer.map(|t| t.op(i as u64));
            let _s = span(tracer, "relcont.process");
            spawn(&args.relcont, it)
        };
        lat.push(ns);
        match verdict {
            Some(v) => check(it, v),
            None => failed += 1,
        }
    }
    (lat, failed, start.elapsed())
}

pub fn run(args: &Args) -> E2e {
    let mut setup_s = Vec::new();
    let mut items = Vec::new();
    for k in 0..SETUPS {
        let t0 = if k == 0 { args.started } else { Instant::now() };
        items = setup(args);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (lat, failed, wall) = pass(
        args,
        &items,
        fixed_ops(args, NOMINAL_RATE),
        time_cap(args),
        None,
    );
    report::print_groups(
        "kinds",
        lat.iter()
            .enumerate()
            .map(|(i, ns)| (items[i % items.len()].kind, *ns)),
    );
    E2e {
        setup_s,
        attempted: lat.len() as u64,
        failed,
        correct: lat.len() as u64 - failed,
        latencies_ns: lat,
        busy_s: wall.as_secs_f64(),
        peak_rss_kib: report::children_peak_rss_kib(),
    }
}

/// The question decided in-process the way `relcont check` decides it:
/// parse, `explain_containment`, and the witness search on "not contained".
fn in_process(it: &Item, tracer: Option<&Tracer>) -> bool {
    let (views, q1, q2) = {
        let _s = span(tracer, "qc-datalog.parse");
        let views = parse_program(&it.views).expect("corpus views parse");
        let views = LavSetting {
            sources: views
                .rules()
                .iter()
                .map(|r| SourceDescription::parse(&r.to_string()).expect("view parses"))
                .collect(),
        };
        let q1 = parse_program(&it.q1).expect("corpus query parses");
        let q2 = parse_program(&it.q2).expect("corpus query parses");
        (views, q1, q2)
    };
    let head = |p: &Program| -> Symbol { p.rules()[0].head.pred };
    let (a1, a2) = (head(&q1), head(&q2));
    let kind = {
        let _s = span(tracer, "qc-mediator.explain_containment");
        explain_containment(&q1, &a1, &q2, &a2, &views)
            .unwrap_or_else(|e| report::guard_failed(&format!("in-process check failed: {e}")))
    };
    if kind == ContainmentKind::No {
        let _s = span(tracer, "qc-mediator.witness");
        let _ = relatively_contained_witness(&q1, &a1, &q2, &a2, &views);
    }
    kind != ContainmentKind::No
}

pub fn traced(args: &Args) -> Traced {
    let items = setup(args);
    let ops = 2 * items.len();
    let (lat, failed, _) = pass(args, &items, ops, Duration::MAX, None);
    let untraced_mean_op_ns = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
    let tracer = Tracer::default();
    let (_, traced_failed, _) = pass(args, &items, ops, Duration::MAX, Some(&tracer));

    // Probes: each question once more, warm and in-process.
    let rec = Arc::new(qc_obs::PipelineRecorder::new());
    for it in &items {
        in_process(it, None);
        let _installed = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
        let v = {
            let _p = tracer.probe("relcont.inproc");
            in_process(it, Some(&tracer))
        };
        check(it, v);
    }
    let sum = tracer.summary();
    let mut values = std::collections::BTreeMap::new();
    report::put_counters(&mut values, rec.counters());
    values.insert(
        "relcont.cold_overhead_ms",
        (sum.per_call_us("relcont.process") - sum.per_call_us("relcont.inproc")) / 1e3,
    );
    let optimized = rec.counters().get(qc_obs::Counter::EngineTierOptimized);
    if optimized != 0 {
        report::guard_failed(&format!(
            "cold_check: engine_tier_optimized = {optimized}, expected 0"
        ));
    }
    Traced {
        tracer,
        untraced_mean_op_ns,
        values,
        attempted: 2 * ops as u64,
        failed: failed + traced_failed,
    }
}
