//! `serve_hot_churn`: reads that hit the verdict cache, beside catalog
//! writes that invalidate part of it. One client thread calls
//! `ServeCore::handle` and `apply_delta` directly, as the REPL does, so no
//! thread hand-off sits in the microsecond-scale hot path and `ServeCore`'s
//! own bookkeeping (fingerprint, cache lookup, delta sweep, recomputation
//! after invalidation) does most of the work.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qc_datalog::{parse_program, Symbol};
use qc_mediator::relative::Verdict;
use qc_mediator::schema::{LavSetting, SourceDescription};
use qc_obs::Counter;
use qc_serve::{CatalogDelta, CatalogOp, Request, Response, ServeConfig, ServeCore, ServiceError};

use crate::gen::{self, Chain, Rng};
use crate::report::{self, E2e};
use crate::trace::Tracer;
use crate::{fixed_ops, time_cap, Args, Traced, SETUPS};

/// View groups; each has chain views of length 1 and 2 over two base
/// predicates, so the catalog holds `4 * GROUPS` views (plus fillers).
/// Fingerprint cost grows linearly with catalog size.
const GROUPS: usize = 64;
/// Hot questions per group: the hot set is 384, well under the verdict
/// cache's 4096 entries, so only invalidation causes misses.
const HOT_PER_GROUP: usize = 6;
/// One delta after every `DELTA_EVERY` reads.
const DELTA_EVERY: u64 = 32;
/// Every `REPLACE_EVERY`-th delta replaces a used view by an α-renamed
/// copy (invalidates and forces recomputation, keys unchanged); the others
/// add or remove a filler view no hot question uses.
const REPLACE_EVERY: u64 = 16;
/// At most this many filler views are live at once.
const FILLER_MAX: usize = 16;
/// Reads per second of `--seconds` (see [`crate::fixed_ops`]).
const NOMINAL_RATE: f64 = 16000.0;
/// Reads in a traced pass.
const TRACE_READS: u64 = 20_000;
/// The band the cache-hit ratio (hits / completed reads) must stay in.
const HIT_RATIO_BAND: (f64, f64) = (0.90, 0.999);
/// The band for verdicts dropped per replace delta.
const DROPPED_PER_REPLACE_BAND: (f64, f64) = (0.5, 12.0);

/// The budget pool: far above what any run consumes, so the capacity
/// model never limits a grant (the default pool is a lifetime budget).
pub const POOL: u64 = 1 << 62;

struct Hot {
    req: Request,
    key: bool,
}

struct Setup {
    core: ServeCore,
    hot: Vec<Hot>,
    /// Cumulative Zipf(1) weights over a seeded permutation of `hot`.
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

fn bases(g: usize) -> [String; 2] {
    [format!("a{g}"), format!("b{g}")]
}

fn config() -> ServeConfig {
    ServeConfig {
        pool: POOL,
        ..ServeConfig::default()
    }
}

fn setup(args: &Args) -> Setup {
    let mut rng = Rng::new(args.seed);
    let mut lines = Vec::new();
    for g in 0..GROUPS {
        lines.extend(gen::chain_views(&bases(g), 2));
    }
    let views = LavSetting {
        sources: lines
            .iter()
            .map(|l| SourceDescription::parse(l).expect("generated view parses"))
            .collect(),
    };
    let core = ServeCore::new(views, config());
    let snap = core.snapshot();
    let mut seen = HashSet::new();
    let mut hot = Vec::new();
    for g in 0..GROUPS {
        let alphabet = bases(g);
        for k in 0..HOT_PER_GROUP {
            let contained = k % 3 == 0;
            loop {
                let c1 = Chain::random(&mut rng, &alphabet, 2 + k % 2, (k / 2) % 2);
                let c2 = if contained {
                    c1.clone()
                } else {
                    c1.other(&mut rng, &alphabet)
                };
                let req = Request::new(
                    parse_program(&c1.rule("qa")).expect("chain parses"),
                    Symbol::new("qa"),
                    parse_program(&c2.rule("qb")).expect("chain parses"),
                    Symbol::new("qb"),
                );
                if seen.insert(req.fingerprint(&snap)) {
                    hot.push(Hot {
                        req,
                        key: contained,
                    });
                    break;
                }
            }
        }
    }
    let mut perm: Vec<usize> = (0..hot.len()).collect();
    rng.shuffle(&mut perm);
    let mut acc = 0.0;
    let cdf = (0..hot.len())
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect();
    if args.corrupt_key {
        hot[perm[0]].key = !hot[perm[0]].key;
    }
    // Compute the whole hot set once; after this every read hits unless a
    // delta invalidated it.
    for h in &hot {
        check(h, core.handle(&h.req, 0));
    }
    Setup {
        core,
        hot,
        cdf,
        perm,
    }
}

/// Checks a served answer; returns whether the operation failed.
fn check(h: &Hot, r: Result<Response, ServiceError>) -> bool {
    match r.map(|r| r.verdict) {
        Ok(Verdict::Contained) => verdict(h, true),
        Ok(Verdict::NotContained) => verdict(h, false),
        Ok(Verdict::Unknown(_)) | Err(_) => true,
    }
}

fn verdict(h: &Hot, v: bool) -> bool {
    if v != h.key {
        report::wrong_answer(&format!(
            "{} vs {}: served {v}, key {}",
            h.req.q1, h.req.q2, h.key
        ));
    }
    false
}

enum Op {
    Read(usize),
    Delta(CatalogDelta, bool),
}

/// The seeded operation stream: skewed reads, one delta after every
/// `DELTA_EVERY` reads.
struct Ops {
    rng: Rng,
    reads: u64,
    deltas: u64,
    fillers: Vec<u64>,
    next_filler: u64,
    renamed: Vec<bool>,
}

impl Ops {
    fn new(seed: u64) -> Ops {
        Ops {
            rng: Rng::new(seed ^ 0x6f70_7321),
            reads: 0,
            deltas: 0,
            fillers: Vec::new(),
            next_filler: 0,
            renamed: vec![false; 2 * GROUPS],
        }
    }

    fn next(&mut self, s: &Setup) -> Op {
        if self.deltas < self.reads / DELTA_EVERY {
            self.deltas += 1;
            let replace = self.deltas.is_multiple_of(REPLACE_EVERY);
            return Op::Delta(self.delta(replace), replace);
        }
        self.reads += 1;
        let total = *s.cdf.last().expect("hot set is non-empty");
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let rank = s.cdf.partition_point(|&c| c < u).min(s.cdf.len() - 1);
        Op::Read(s.perm[rank])
    }

    fn delta(&mut self, replace: bool) -> CatalogDelta {
        let op = if replace {
            let slot = self.rng.below(2 * GROUPS);
            self.renamed[slot] = !self.renamed[slot];
            let base = &bases(slot / 2)[slot % 2];
            let var = if self.renamed[slot] { "Y" } else { "X" };
            let text = gen::chain_view(base, 2, var);
            CatalogOp::Replace(SourceDescription::parse(&text).expect("view parses"))
        } else if self.fillers.len() < FILLER_MAX && (self.fillers.is_empty() || self.rng.coin()) {
            let id = self.next_filler;
            self.next_filler += 1;
            self.fillers.push(id);
            let text = format!("zf{id}(X) :- zp{id}(X, Y).");
            CatalogOp::Add(SourceDescription::parse(&text).expect("view parses"))
        } else {
            let at = self.rng.below(self.fillers.len());
            CatalogOp::Remove(format!("zf{}", self.fillers.swap_remove(at)))
        };
        CatalogDelta::one(op)
    }
}

/// Serve-side counters over one pass.
struct Bank {
    hits: u64,
    completed: u64,
    dropped: u64,
    replaces: u64,
}

fn bank(core: &ServeCore) -> [u64; 3] {
    let c = core.counters();
    [
        c.get(Counter::ServeVerdictCacheHits),
        c.get(Counter::ServeCompleted),
        c.get(Counter::InvalidationVerdictsDropped),
    ]
}

fn guard(b: &Bank) {
    let ratio = b.hits as f64 / b.completed.max(1) as f64;
    if !(HIT_RATIO_BAND.0..=HIT_RATIO_BAND.1).contains(&ratio) {
        report::guard_failed(&format!(
            "serve_hot_churn: cache-hit ratio {ratio:.4} ({} of {}) outside {HIT_RATIO_BAND:?}",
            b.hits, b.completed
        ));
    }
    let per = b.dropped as f64 / b.replaces.max(1) as f64;
    if !(DROPPED_PER_REPLACE_BAND.0..=DROPPED_PER_REPLACE_BAND.1).contains(&per) {
        report::guard_failed(&format!(
            "serve_hot_churn: {per:.2} verdicts dropped per replace ({} over {}) outside {DROPPED_PER_REPLACE_BAND:?}",
            b.dropped, b.replaces
        ));
    }
}

/// Runs the operation stream until `reads` reads or `budget` elapsed.
fn pass(
    s: &Setup,
    args: &Args,
    reads: u64,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> (Vec<u64>, u64, Duration, Bank) {
    let before = bank(&s.core);
    let mut ops = Ops::new(args.seed);
    let mut lat = Vec::new();
    let mut failed = 0;
    let mut replaces = 0;
    let start = Instant::now();
    while ops.reads < reads && start.elapsed() < budget {
        match ops.next(s) {
            Op::Read(i) => {
                let h = &s.hot[i];
                let t0 = Instant::now();
                let r = match tracer {
                    None => s.core.handle(&h.req, 0),
                    Some(t) => {
                        let _op = t.op(ops.reads);
                        let hits = s.core.counters().get(Counter::ServeVerdictCacheHits);
                        let call = t.span("qc-serve.handle_miss");
                        let r = s.core.handle(&h.req, 0);
                        if s.core.counters().get(Counter::ServeVerdictCacheHits) > hits {
                            call.rename("qc-serve.handle_hit");
                        }
                        r
                    }
                };
                lat.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                if check(h, r) {
                    failed += 1;
                }
                if let Some(t) = tracer {
                    let _p = t.probe("qc-serve.fingerprint");
                    std::hint::black_box(h.req.fingerprint(&s.core.snapshot()));
                }
            }
            Op::Delta(d, replace) => {
                let _p = tracer.map(|t| t.probe("qc-serve.apply_delta"));
                if let Err(e) = s.core.apply_delta(&d) {
                    report::guard_failed(&format!("delta refused: {e}"));
                }
                replaces += u64::from(replace);
            }
        }
    }
    let wall = start.elapsed();
    let after = bank(&s.core);
    let b = Bank {
        hits: after[0] - before[0],
        completed: after[1] - before[1],
        dropped: after[2] - before[2],
        replaces,
    };
    (lat, failed, wall, b)
}

pub fn run(args: &Args) -> E2e {
    let mut setup_s = Vec::new();
    let mut s = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { args.started } else { Instant::now() };
        drop(s.take());
        s = Some(setup(args));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let (lat, failed, wall, b) = pass(
        &s,
        args,
        fixed_ops(args, NOMINAL_RATE) as u64,
        time_cap(args),
        None,
    );
    guard(&b);
    println!(
        "cache hits: {} of {} reads; {} verdicts dropped over {} replace deltas",
        b.hits, b.completed, b.dropped, b.replaces
    );
    E2e {
        setup_s,
        attempted: lat.len() as u64,
        failed,
        correct: lat.len() as u64 - failed,
        latencies_ns: lat,
        busy_s: wall.as_secs_f64(),
        peak_rss_kib: report::self_peak_rss_kib(),
    }
}

pub fn traced(args: &Args) -> Traced {
    let untraced = setup(args);
    let (lat, failed, _, _) = pass(&untraced, args, TRACE_READS, Duration::MAX, None);
    drop(untraced);
    let untraced_mean_op_ns = lat.iter().sum::<u64>() as f64 / lat.len() as f64;

    let tracer = Tracer::default();
    let s = setup(args);
    let rec = Arc::new(qc_obs::PipelineRecorder::new());
    let (tlat, tfailed, _, b) = {
        let _installed = qc_obs::install(rec.clone() as Arc<dyn qc_obs::Recorder>);
        pass(&s, args, TRACE_READS, Duration::MAX, Some(&tracer))
    };
    guard(&b);
    println!(
        "cache hits: {} of {} reads; {} verdicts dropped over {} replace deltas",
        b.hits, b.completed, b.dropped, b.replaces
    );
    let mut values = BTreeMap::new();
    report::put_counters(&mut values, rec.counters());
    values.insert("qc-serve.serve_verdict_cache_hits", b.hits as f64);
    values.insert("qc-serve.invalidation_verdicts_dropped", b.dropped as f64);
    values.insert(
        "qc-serve.cache_hit_ratio",
        b.hits as f64 / b.completed.max(1) as f64,
    );
    Traced {
        tracer,
        untraced_mean_op_ns,
        values,
        attempted: (lat.len() + tlat.len()) as u64,
        failed: failed + tfailed,
    }
}
