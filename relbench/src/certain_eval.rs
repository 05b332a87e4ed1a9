//! `certain_eval`: certain answers through the path `relcont certain`
//! uses, over instances built in set-up. The only workload where the
//! datalog evaluator does the work; its mix sits on both sides of the
//! adaptive routing (tuple kernel for small non-recursive instances, RA for
//! large or recursive ones, magic sets for constant-seeded queries).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qc_containment::engine;
use qc_datalog::eval::{answers, EvalOptions};
use qc_datalog::{parse_program, Database, Program, Relation, Symbol, Term, Tuple};
use qc_mediator::certain::certain_answers;
use qc_mediator::inverse_rules::max_contained_plan;
use qc_mediator::schema::LavSetting;

use crate::gen::Rng;
use crate::report::{self, E2e};
use crate::trace::{span, Tracer};
use crate::{fixed_ops, time_cap, Args, Traced, SETUPS};

const VIEW: &str = "ve(X, Y) :- e(X, Y).";
const HOP2: &str = "q(X, Z) :- e(X, Y), e(Y, Z).";
const REACH: &str = "reach(X, Y) :- e(X, Y).\nreach(X, Z) :- e(X, Y), reach(Y, Z).";

#[derive(Clone, Copy)]
enum Shape {
    /// Two-hop join over a graph where every node has two out-edges.
    Hop2 { nodes: usize },
    /// Transitive closure over disjoint chains.
    Reach { chains: usize, len: usize },
    /// Nodes reachable from the first node of one chain (magic sets).
    Seeded { chains: usize, len: usize },
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Hop2 { nodes: 32 } => "hop2_64",
            Shape::Hop2 { .. } => "hop2_1024",
            Shape::Reach { chains: 16, .. } => "reach_64",
            Shape::Reach { .. } => "reach_1024",
            Shape::Seeded { chains: 8, .. } => "seeded_64",
            Shape::Seeded { .. } => "seeded_1024",
        }
    }
}

/// One cycle of operations: each shape with its number of instances.
/// Instance sizes against `tier_ra_min_tuples` (256): 64-tuple instances
/// of the non-recursive query stay on the tuple kernel; 1024-tuple ones
/// and every recursive query go to RA. Chains stay sparse: a dense
/// recursive closure would dominate the whole run. The counts are chosen
/// so that the median and the 90th percentile each fall inside one
/// shape's latency band (reach_64 and reach_1024), never on the edge
/// between two shapes.
const MIX: &[(Shape, usize)] = &[
    (Shape::Hop2 { nodes: 32 }, 5),
    (Shape::Seeded { chains: 8, len: 8 }, 3),
    (Shape::Reach { chains: 16, len: 4 }, 4),
    (
        Shape::Seeded {
            chains: 32,
            len: 32,
        },
        2,
    ),
    (Shape::Hop2 { nodes: 512 }, 2),
    (
        Shape::Reach {
            chains: 128,
            len: 8,
        },
        4,
    ),
];

/// Distinct instances: this many copies of [`MIX`], each with its own
/// seeded graphs.
const CYCLES: usize = 2;
/// Operations per second of `--seconds` (see [`crate::fixed_ops`]).
const NOMINAL_RATE: f64 = 1200.0;
/// Operations in a traced pass: every instance once.
const TRACE_OPS: usize = 40;

struct Instance {
    shape: &'static str,
    query: Program,
    ans: Symbol,
    db: Database,
    /// The certain answers, sorted.
    key: Vec<Tuple>,
}

fn node(names: &[usize], i: usize) -> Term {
    Term::sym(format!("n{}", names[i]))
}

/// Builds one instance and works out its certain answers directly from the
/// generated graph: the only view is the identity view `ve`, so the certain
/// answers are the query's answers over the `ve` edges.
fn instance(rng: &mut Rng, shape: Shape) -> Instance {
    let nodes = match shape {
        Shape::Hop2 { nodes } => nodes,
        Shape::Reach { chains, len } | Shape::Seeded { chains, len } => chains * (len + 1),
    };
    let mut names: Vec<usize> = (0..nodes).collect();
    rng.shuffle(&mut names);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    match shape {
        Shape::Hop2 { .. } => {
            for (i, out) in adj.iter_mut().enumerate() {
                while out.len() < 2 {
                    let j = rng.below(nodes);
                    if j != i && !out.contains(&j) {
                        out.push(j);
                    }
                }
            }
        }
        Shape::Reach { chains, len } | Shape::Seeded { chains, len } => {
            for c in 0..chains {
                for k in 0..len {
                    let i = c * (len + 1) + k;
                    adj[i].push(i + 1);
                }
            }
        }
    }
    let mut db = Database::new();
    for (i, out) in adj.iter().enumerate() {
        for &j in out {
            db.insert("ve", vec![node(&names, i), node(&names, j)]);
        }
    }
    let pairs = |set: BTreeSet<(usize, usize)>| -> Vec<Tuple> {
        set.into_iter()
            .map(|(i, j)| vec![node(&names, i), node(&names, j)])
            .collect()
    };
    let (text, ans, mut key) = match shape {
        Shape::Hop2 { .. } => {
            let mut set = BTreeSet::new();
            for (i, out) in adj.iter().enumerate() {
                for &j in out {
                    for &k in &adj[j] {
                        set.insert((i, k));
                    }
                }
            }
            (HOP2.to_string(), "q", pairs(set))
        }
        Shape::Reach { chains, len } => {
            let mut set = BTreeSet::new();
            for c in 0..chains {
                let base = c * (len + 1);
                for a in 0..=len {
                    for b in a + 1..=len {
                        set.insert((base + a, base + b));
                    }
                }
            }
            (REACH.to_string(), "reach", pairs(set))
        }
        Shape::Seeded { chains, len } => {
            let base = rng.below(chains) * (len + 1);
            let text = format!("{REACH}\nqs(Y) :- reach({}, Y).", node(&names, base));
            let key = (1..=len).map(|k| vec![node(&names, base + k)]).collect();
            (text, "qs", key)
        }
    };
    key.sort();
    Instance {
        shape: shape.name(),
        query: parse_program(&text).expect("generated query parses"),
        ans: Symbol::new(ans),
        db,
        key,
    }
}

struct Setup {
    views: LavSetting,
    instances: Vec<Instance>,
    /// Operation `i` runs instance `order[i % order.len()]`.
    order: Vec<usize>,
}

fn eval_options() -> EvalOptions {
    // The options `relcont certain` derives from the ambient engine.
    engine::current().eval_options()
}

fn check(inst: &Instance, rel: &Relation) {
    let mut got = rel.tuples();
    got.sort();
    if got != inst.key {
        report::wrong_answer(&format!(
            "certain answers of {}: {} tuples, key has {}",
            inst.ans,
            got.len(),
            inst.key.len()
        ));
    }
}

fn setup(args: &Args) -> Setup {
    let mut rng = Rng::new(args.seed);
    let views = LavSetting::parse(&[VIEW]).expect("view parses");
    let mut instances = Vec::new();
    for _ in 0..CYCLES {
        for &(shape, count) in MIX {
            for _ in 0..count {
                instances.push(instance(&mut rng, shape));
            }
        }
    }
    let mut order: Vec<usize> = (0..instances.len()).collect();
    rng.shuffle(&mut order);
    if args.corrupt_key {
        instances[order[0]].key.pop();
    }
    // Warm-up: every instance once, checked.
    let opts = eval_options();
    for inst in &instances {
        match certain_answers(&inst.query, &inst.ans, &views, &inst.db, &opts) {
            Ok(rel) => check(inst, &rel),
            Err(e) => report::guard_failed(&format!("warm-up evaluation failed: {e}")),
        }
    }
    Setup {
        views,
        instances,
        order,
    }
}

/// Runs operations `0..` until `limit` operations or `budget` elapsed;
/// returns latencies, failures, and the time spent checking answers.
fn pass(s: &Setup, limit: usize, budget: Duration) -> (Vec<u64>, u64, Duration, Duration) {
    let opts = eval_options();
    let mut lat = Vec::new();
    let mut failed = 0;
    let mut checking = Duration::ZERO;
    let start = Instant::now();
    for i in 0..limit {
        if start.elapsed() >= budget {
            break;
        }
        let inst = &s.instances[s.order[i % s.order.len()]];
        let t0 = Instant::now();
        let out = certain_answers(&inst.query, &inst.ans, &s.views, &inst.db, &opts);
        lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let c0 = Instant::now();
        match out {
            Ok(rel) => check(inst, &rel),
            Err(_) => failed += 1,
        }
        checking += c0.elapsed();
    }
    (lat, failed, start.elapsed(), checking)
}

pub fn run(args: &Args) -> E2e {
    let mut setup_s = Vec::new();
    let mut s = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { args.started } else { Instant::now() };
        s = Some(setup(args));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let (lat, failed, wall, checking) = pass(&s, fixed_ops(args, NOMINAL_RATE), time_cap(args));
    report::print_groups(
        "shapes",
        lat.iter()
            .enumerate()
            .map(|(i, ns)| (s.instances[s.order[i % s.order.len()]].shape, *ns)),
    );
    E2e {
        setup_s,
        attempted: lat.len() as u64,
        failed,
        correct: lat.len() as u64 - failed,
        latencies_ns: lat,
        busy_s: (wall - checking).as_secs_f64(),
        peak_rss_kib: report::self_peak_rss_kib(),
    }
}

pub fn traced(args: &Args) -> Traced {
    let s = setup(args);
    let (lat, failed, _, _) = pass(&s, TRACE_OPS, Duration::MAX);
    let untraced_mean_op_ns = lat.iter().sum::<u64>() as f64 / lat.len() as f64;

    // The traced pass runs certain_answers' own steps, each in its span:
    // plan (query + inverse rules), evaluation, null filtering.
    let tracer = Tracer::default();
    let rec = Arc::new(qc_obs::PipelineRecorder::new());
    let opts = eval_options();
    {
        let _installed = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
        for i in 0..TRACE_OPS {
            let inst = &s.instances[s.order[i % s.order.len()]];
            let rel = {
                let _op = tracer.op(i as u64);
                let plan = {
                    let _s = span(Some(&tracer), "qc-mediator.inverse_plan");
                    max_contained_plan(&inst.query, &s.views)
                };
                let all = {
                    let _s = span(Some(&tracer), "qc-datalog.eval");
                    answers(&plan, &inst.db, &inst.ans, &opts)
                };
                let _s = span(Some(&tracer), "qc-mediator.null_filter");
                all.map(|r| {
                    r.tuples()
                        .into_iter()
                        .filter(|t| t.iter().all(|v| !v.has_function()))
                        .collect::<Relation>()
                })
            };
            match rel {
                Ok(rel) => check(inst, &rel),
                Err(e) => report::guard_failed(&format!("traced evaluation failed: {e}")),
            }
        }
    }
    let bank = rec.counters();
    let mut values = std::collections::BTreeMap::new();
    report::put_counters(&mut values, bank);
    for (c, what) in [
        (qc_obs::Counter::EvalTierTuple, "eval_tier_tuple"),
        (qc_obs::Counter::EvalTierRa, "eval_tier_ra"),
        (
            qc_obs::Counter::RaMagicPrunedTuples,
            "ra_magic_pruned_tuples",
        ),
    ] {
        if bank.get(c) == 0 {
            report::guard_failed(&format!("certain_eval: {what} is 0"));
        }
    }
    Traced {
        tracer,
        untraced_mean_op_ns,
        values,
        attempted: lat.len() as u64,
        failed,
    }
}
