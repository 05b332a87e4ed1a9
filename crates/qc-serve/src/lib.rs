//! qc-serve: a supervised containment service.
//!
//! The layer between the anytime decision procedures
//! ([`qc_mediator::relative`] under [`qc_guard`]) and a long-running
//! deployment: relative containment is Π₂ᵖ-hard (Thm 3.3), so any
//! per-request limit *will* trip on adversarial or merely large inputs,
//! and the service has to stay up and useful anyway. Three mechanisms:
//!
//! * **Admission control** — a bounded queue that sheds load explicitly
//!   ([`ServiceError::ShedUnderLoad`]) instead of queueing to death, plus
//!   a [`CapacityModel`] deriving each request's work-unit grant from the
//!   queue depth and a global budget pool.
//! * **Degradation ladder** ([`ladder`]) — repeated resource trips step
//!   the service down from full Thm 3.1 enumeration to a budget-capped
//!   sequential run to a MiniCon-only sound under-approximation; definite
//!   answers step it back up. The active [`ladder::Tier`] is reported in
//!   every [`Response`].
//! * **Resumable verdicts** ([`checkpoint`]) — an `Unknown` response
//!   carries a [`checkpoint::Checkpoint`] of the disjuncts already
//!   proven, and a retry hands it back so the per-disjunct loop continues
//!   where it stopped. Resumed runs reach exactly the verdict a one-shot
//!   unlimited run would (differentially tested).
//!
//! [`ServeCore`] is the threadless, deterministic engine (used directly
//! by the REPL and benchmarks); [`Service`] wraps it with worker threads,
//! the admission queue, and panic supervision. Every admitted request
//! gets a [`Response`] or a typed [`ServiceError`] — never silence.

pub mod checkpoint;
pub mod flight;
pub mod journal;
pub mod ladder;
pub mod retry;

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qc_containment::engine::{self, EngineOptions};
use qc_datalog::{ConjunctiveQuery, Program, Symbol, Ucq};
use qc_guard::{FaultPlan, Guard, ResourceError};
use qc_mediator::catalog::{extend_footprint, CompiledCatalog};
use qc_mediator::expansion::expand_cq;
use qc_mediator::minicon::minicon_rewritings_catalog;
use qc_mediator::relative::{
    decide, Partial, Question, RelativeError, Resume, ResumeState, Sources, Verdict,
};
use qc_mediator::schema::LavSetting;
use qc_obs::{Counter, Counters, Hist, Histograms};

pub use checkpoint::{Checkpoint, CheckpointRejected, RejectReason};
pub use flight::{FlightRecorder, StageTime, Timeline};
pub use journal::{
    CheckpointStore, DirSync, EpochRecord, FileJournal, FsyncPolicy, JournalConfig, MemoryStore,
    RealDirSync, ReplayReport, SaveReceipt,
};
pub use ladder::{DegradationController, Tier};
pub use qc_mediator::catalog::{CatalogDelta, CatalogError, CatalogOp, DeltaReport};
pub use retry::RetryPolicy;

/// A per-request trace ID: allocated at admission (or at [`ServeCore::handle`]
/// for direct callers), carried by every [`Response`] and [`ServiceError`],
/// and resolvable against the [`FlightRecorder`] dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Bit position where the store generation lives in a [`TraceId`]: the
/// low 48 bits are the per-process sequence, the high 16 the journal
/// generation, so trace IDs stay unique across a kill–restart.
pub const TRACE_GENERATION_SHIFT: u32 = 48;

impl TraceId {
    /// The store generation this trace was minted under (0 for bare
    /// in-memory cores).
    pub fn generation(self) -> u64 {
        self.0 >> TRACE_GENERATION_SHIFT
    }

    /// The per-process sequence number within the generation.
    pub fn sequence(self) -> u64 {
        self.0 & ((1u64 << TRACE_GENERATION_SHIFT) - 1)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t-{:08x}", self.0)
    }
}

/// Guard stage name for limits imposed by the service itself (synthetic
/// resource provenance on under-approximated answers).
pub const STAGE: &str = "serve";

// ---------------------------------------------------------------------------
// Errors, requests, responses
// ---------------------------------------------------------------------------

/// Why a request did not get a verdict. The taxonomy is the service's
/// contract: every admitted request ends in a [`Response`] or exactly one
/// of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Refused before running: the service is draining, or the input is
    /// outside the decidable classes (the payload says which).
    Rejected {
        /// The request's trace ID.
        trace: TraceId,
        /// Why it was refused.
        why: String,
    },
    /// The admission queue was full; the request was never admitted.
    ShedUnderLoad {
        /// The request's trace ID.
        trace: TraceId,
        /// Queue length observed at the shed.
        queue_len: usize,
    },
    /// The request waited in the queue longer than its queue timeout.
    Timeout {
        /// The request's trace ID.
        trace: TraceId,
        /// How long it waited before being abandoned.
        waited_ms: u64,
    },
    /// The worker running the request panicked, and so did the one retry;
    /// the request is isolated as poisoned rather than retried forever.
    WorkerLost {
        /// The request's trace ID.
        trace: TraceId,
        /// The panic message.
        why: String,
    },
}

impl ServiceError {
    /// The trace ID of the request this error answered — every error
    /// carries one, resolvable in the flight-recorder dump.
    pub fn trace(&self) -> TraceId {
        match self {
            ServiceError::Rejected { trace, .. }
            | ServiceError::ShedUnderLoad { trace, .. }
            | ServiceError::Timeout { trace, .. }
            | ServiceError::WorkerLost { trace, .. } => *trace,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected { trace, why } => write!(f, "rejected [{trace}]: {why}"),
            ServiceError::ShedUnderLoad { trace, queue_len } => {
                write!(f, "shed under load [{trace}] (queue length {queue_len})")
            }
            ServiceError::Timeout { trace, waited_ms } => {
                write!(f, "timed out in queue [{trace}] after {waited_ms} ms")
            }
            ServiceError::WorkerLost { trace, why } => write!(f, "worker lost [{trace}]: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

// ---------------------------------------------------------------------------
// Catalog snapshots
// ---------------------------------------------------------------------------

/// An immutable view of the catalog at one epoch. Every request runs
/// entirely against the snapshot it was admitted under ([`Arc`]-shared, so
/// a concurrent [`ServeCore::apply_delta`] swaps the core's pointer
/// without touching in-flight runs) — a verdict is always computed against
/// *one* catalog, never a mix.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    epoch: u64,
    compiled: CompiledCatalog,
}

impl CatalogSnapshot {
    /// A snapshot of `compiled` at `epoch`.
    pub fn new(epoch: u64, compiled: CompiledCatalog) -> CatalogSnapshot {
        CatalogSnapshot { epoch, compiled }
    }

    /// The catalog epoch this snapshot serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's views as a plain LAV setting.
    pub fn views(&self) -> &LavSetting {
        self.compiled.views()
    }

    /// The compiled catalog (cached inverse rules and MiniCon
    /// preparations).
    pub fn catalog(&self) -> &CompiledCatalog {
        &self.compiled
    }

    /// Content hash of the catalog: names plus rendered definitions,
    /// order-sensitive, versions excluded. Two processes serving textually
    /// identical catalogs hash equal — the restart-adoption key for the
    /// journaled [`EpochRecord`].
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for e in self.compiled.entries() {
            e.rendered().hash(&mut h);
        }
        h.finish()
    }

    /// The journal form of this snapshot's epoch state.
    pub fn epoch_record(&self) -> EpochRecord {
        EpochRecord {
            epoch: self.epoch,
            cat: self.content_hash(),
            names: self
                .compiled
                .entries()
                .iter()
                .map(|e| e.source.name.to_string())
                .collect(),
            versions: self.compiled.entries().iter().map(|e| e.version).collect(),
        }
    }
}

/// One containment question: is `Q1 ⊑_V Q2` for the service's views?
#[derive(Debug, Clone)]
pub struct Request {
    /// The (candidate) contained query.
    pub q1: Program,
    /// Its answer predicate.
    pub ans1: Symbol,
    /// The containing query.
    pub q2: Program,
    /// Its answer predicate.
    pub ans2: Symbol,
    /// Explicit work-unit budget, overriding the capacity model's grant.
    pub budget: Option<u64>,
    /// Per-run wall-clock limit, overriding the service default.
    pub timeout: Option<Duration>,
    /// Checkpoint from a previous `Unknown` answer to resume from.
    pub checkpoint: Option<Checkpoint>,
    /// Deterministic fault to inject (chaos harness only).
    pub fault: Option<FaultPlan>,
}

impl Request {
    /// A plain request with no overrides.
    pub fn new(q1: Program, ans1: Symbol, q2: Program, ans2: Symbol) -> Request {
        Request {
            q1,
            ans1,
            q2,
            ans2,
            budget: None,
            timeout: None,
            checkpoint: None,
            fault: None,
        }
    }

    /// [`Request::pred_names`] as interned symbols, each once.
    fn footprint(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        extend_footprint(&mut out, &self.q1);
        extend_footprint(&mut out, &self.q2);
        out
    }

    /// Every predicate this request mentions: head and relational-body
    /// predicates of both programs. This is the request's dependency
    /// footprint against the catalog — a view is *relevant* iff its
    /// exported name or a body predicate lands in this set
    /// ([`qc_mediator::catalog::CompiledView::meets`]).
    pub fn pred_names(&self) -> BTreeSet<String> {
        self.footprint().iter().map(|p| p.to_string()).collect()
    }

    /// Deterministic fingerprint of `(Q1, ans1, Q2, ans2, V)`, the key
    /// that scopes a [`Checkpoint`] to the request that produced it. The
    /// hash is over the rendered programs and view definitions — *not*
    /// interned IDs — so textually identical requests fingerprint equal
    /// regardless of how (or in which process, with which interning
    /// order) they were built.
    ///
    /// Only the *relevant* views are folded in, each with the epoch that
    /// last touched it: a catalog delta changes exactly the fingerprints
    /// of requests that depend on a touched view, so invalidation is
    /// precise — untouched requests keep their checkpoints, cached
    /// verdicts, and coalescing identity across epochs.
    pub fn fingerprint(&self, snap: &CatalogSnapshot) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.q1.to_string().hash(&mut h);
        self.ans1.as_str().hash(&mut h);
        self.q2.to_string().hash(&mut h);
        self.ans2.as_str().hash(&mut h);
        let preds = self.footprint();
        for e in snap.catalog().entries() {
            if e.meets(&preds) {
                e.rendered().hash(&mut h);
                e.version.hash(&mut h);
            }
        }
        h.finish()
    }
}

/// A served verdict plus the provenance a caller needs to interpret and
/// retry it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The anytime answer.
    pub verdict: Verdict,
    /// The ladder tier that produced it. Degraded tiers are still sound:
    /// `Contained`/`NotContained` at any tier agree with the unlimited
    /// oracle (see the module docs of [`ladder`]).
    pub tier: Tier,
    /// Whether the run continued from a request checkpoint.
    pub resumed: bool,
    /// Work units consumed by this run.
    pub consumed: u64,
    /// Resume token, present when the verdict is `Unknown` and the run
    /// got far enough to have per-disjunct progress worth keeping.
    pub checkpoint: Option<Checkpoint>,
    /// Set when the request carried (or the store held) a checkpoint
    /// that was refused — wrong fingerprint or a plan-shape mismatch —
    /// and the run recomputed from scratch instead of resuming.
    pub checkpoint_rejected: Option<CheckpointRejected>,
    /// The request's trace ID, resolvable in the flight-recorder dump.
    pub trace: TraceId,
    /// Time the request waited in the admission queue before a worker
    /// picked it up (0 for direct [`ServeCore::handle`] calls).
    pub queue_wait_ns: u64,
    /// The catalog epoch this verdict was computed under — a single
    /// epoch, by construction (snapshot-on-admission), never a mix.
    pub epoch: u64,
}

/// Coarse service health, derived from the ladder and queue state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving at the full tier.
    Healthy,
    /// Serving, but the ladder has stepped below [`Tier::Full`].
    Degraded,
    /// No longer admitting; queued work is being finished.
    Draining,
}

impl Health {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Draining => "draining",
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Capacity model
// ---------------------------------------------------------------------------

/// Derives per-request work-unit grants from a global budget pool and the
/// observed queue depth: a request admitted to an idle service may spend
/// the whole remaining pool; one admitted behind `d` waiters gets
/// `remaining / (d + 1)`, never less than the configured floor. Consumed
/// units are settled back against the pool, so sustained load tightens
/// grants gradually instead of cutting anyone off outright — the floor
/// guarantees every admitted request can still make progress (the ladder,
/// not the pool, is what handles chronic overload).
#[derive(Debug)]
pub struct CapacityModel {
    pool: AtomicU64,
    min_budget: u64,
}

impl CapacityModel {
    /// A pool of `pool` work units with a per-request floor of
    /// `min_budget` (clamped to at least 1).
    pub fn new(pool: u64, min_budget: u64) -> CapacityModel {
        CapacityModel {
            pool: AtomicU64::new(pool),
            min_budget: min_budget.max(1),
        }
    }

    /// Unspent units in the pool.
    pub fn remaining(&self) -> u64 {
        self.pool.load(Ordering::Relaxed)
    }

    /// The per-request grant floor.
    pub fn min_budget(&self) -> u64 {
        self.min_budget
    }

    /// The work-unit grant for a request admitted with `depth` others
    /// waiting behind it.
    pub fn grant(&self, depth: usize) -> u64 {
        (self.remaining() / (depth as u64 + 1)).max(self.min_budget)
    }

    /// Settles `consumed` units against the pool (saturating at zero).
    pub fn settle(&self, consumed: u64) {
        let _ = self
            .pool
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(consumed))
            });
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning knobs for [`ServeCore`] / [`Service`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads ([`Service`] only).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Global work-unit budget pool (see [`CapacityModel`]).
    pub pool: u64,
    /// Per-request grant floor.
    pub min_budget: u64,
    /// At [`Tier::Bounded`], grants are divided by this (still floored at
    /// `min_budget`).
    pub bounded_divisor: u64,
    /// Default per-run wall-clock limit (requests may override).
    pub default_timeout: Option<Duration>,
    /// How long a request may wait in the queue before it is answered
    /// with [`ServiceError::Timeout`] instead of running.
    pub queue_timeout: Option<Duration>,
    /// Consecutive resource trips before the ladder steps down.
    pub trip_threshold: u32,
    /// Consecutive definite answers before it steps back up.
    pub recover_threshold: u32,
    /// Start with workers paused (deterministic queue tests).
    pub start_paused: bool,
    /// Coalesce structurally-identical in-flight requests: later
    /// arrivals attach as waiters to the first computation instead of
    /// running their own ([`Service`] only).
    pub coalesce: bool,
    /// How many request timelines the flight recorder retains.
    pub flight_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            pool: 1 << 22,
            min_budget: 4096,
            bounded_divisor: 4,
            default_timeout: None,
            queue_timeout: None,
            trip_threshold: 3,
            recover_threshold: 3,
            start_paused: false,
            coalesce: true,
            flight_capacity: 256,
        }
    }
}

// ---------------------------------------------------------------------------
// Counter sink
// ---------------------------------------------------------------------------

/// A [`qc_obs::Recorder`] that folds counters into a shared bank and
/// ignores spans. This is what worker threads install: the span tree of
/// [`qc_obs::PipelineRecorder`] assumes one thread, but counter totals
/// aggregate safely from any number of them.
pub struct CounterSink(pub Arc<Counters>);

impl qc_obs::Recorder for CounterSink {
    fn count(&self, c: Counter, n: u64) {
        self.0.add(c, n);
    }
}

/// The per-request recorder [`ServeCore::handle_traced`] installs for the
/// duration of one decision: it chains counters and spans to whatever
/// recorder the thread already had (the worker's [`CounterSink`], the
/// REPL's pipeline recorder, …) so existing flows are unchanged, records
/// latency samples into the core's histogram bank, and aggregates
/// per-stage wall time for the request's flight-recorder timeline.
struct RequestRecorder {
    inner: Option<Arc<dyn qc_obs::Recorder>>,
    hists: Arc<Histograms>,
    state: Mutex<RequestSpans>,
}

#[derive(Default)]
struct RequestSpans {
    stack: Vec<(&'static str, Instant)>,
    agg: Vec<StageTime>,
}

impl RequestRecorder {
    fn new(inner: Option<Arc<dyn qc_obs::Recorder>>, hists: Arc<Histograms>) -> RequestRecorder {
        RequestRecorder {
            inner,
            hists,
            state: Mutex::new(RequestSpans::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, RequestSpans> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The aggregated per-stage timings, consuming them.
    fn take_stages(&self) -> Vec<StageTime> {
        std::mem::take(&mut self.state().agg)
    }
}

impl qc_obs::Recorder for RequestRecorder {
    fn count(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.count(c, n);
        }
    }

    fn span_enter(&self, name: &'static str) {
        self.state().stack.push((name, Instant::now()));
        if let Some(inner) = &self.inner {
            inner.span_enter(name);
        }
    }

    fn span_exit(&self, name: &'static str) {
        let mut st = self.state();
        if let Some((_, started)) = st.stack.pop() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(h) = Hist::from_stage(name) {
                self.hists.record(h, ns);
            }
            match st.agg.iter_mut().find(|s| s.stage == name) {
                Some(s) => {
                    s.calls += 1;
                    s.total_ns = s.total_ns.saturating_add(ns);
                }
                None => st.agg.push(StageTime {
                    stage: name.to_string(),
                    calls: 1,
                    total_ns: ns,
                }),
            }
        }
        drop(st);
        if let Some(inner) = &self.inner {
            inner.span_exit(name);
        }
    }

    fn record_hist(&self, h: Hist, ns: u64) {
        self.hists.record(h, ns);
        if let Some(inner) = &self.inner {
            inner.record_hist(h, ns);
        }
    }
}

/// The queue-wait histogram for runs at `tier`.
fn queue_wait_hist(tier: Tier) -> Hist {
    match tier {
        Tier::Full => Hist::ServeQueueWaitFullNs,
        Tier::Bounded => Hist::ServeQueueWaitBoundedNs,
        Tier::MiniconOnly => Hist::ServeQueueWaitMiniconNs,
    }
}

/// The execute-latency histogram for runs at `tier`.
fn execute_hist(tier: Tier) -> Hist {
    match tier {
        Tier::Full => Hist::ServeExecuteFullNs,
        Tier::Bounded => Hist::ServeExecuteBoundedNs,
        Tier::MiniconOnly => Hist::ServeExecuteMiniconNs,
    }
}

/// The end-to-end-latency histogram for runs at `tier`.
fn e2e_hist(tier: Tier) -> Hist {
    match tier {
        Tier::Full => Hist::ServeE2eFullNs,
        Tier::Bounded => Hist::ServeE2eBoundedNs,
        Tier::MiniconOnly => Hist::ServeE2eMiniconNs,
    }
}

// ---------------------------------------------------------------------------
// ServeCore — the deterministic, threadless engine
// ---------------------------------------------------------------------------

/// A point-in-time view of the service's counters and ladder state.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Derived health (see [`Health`]).
    pub health: Health,
    /// Active ladder tier.
    pub tier: Tier,
    /// Requests waiting in the admission queue (0 for a bare core).
    pub queue_len: usize,
    /// Unspent units in the budget pool.
    pub pool_remaining: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests that ran to a verdict.
    pub completed: u64,
    /// Requests resumed from a checkpoint.
    pub resumed: u64,
    /// Runs executed below [`Tier::Full`].
    pub degraded_runs: u64,
    /// Worker panics recovered by supervision.
    pub worker_restarts: u64,
    /// Ladder steps down.
    pub tier_downgrades: u64,
    /// Ladder steps up.
    pub tier_upgrades: u64,
    /// Requests answered by attaching to an identical in-flight one.
    pub coalesced_hits: u64,
    /// Checkpoints refused (fingerprint/shape mismatch) and recomputed.
    pub checkpoint_rejected: u64,
    /// Checkpoint records appended to the store.
    pub journal_appends: u64,
    /// Live fingerprints resident in the checkpoint store.
    pub journal_live: usize,
    /// The store's process generation (0 for in-memory stores).
    pub generation: u64,
    /// The current catalog epoch.
    pub epoch: u64,
    /// Catalog deltas applied.
    pub epoch_bumps: u64,
    /// Requests answered from the memoized-verdict cache.
    pub verdict_cache_hits: u64,
    /// Queue-wait latency distribution (all tiers merged).
    pub queue_wait: LatencySummary,
    /// Execute latency distribution (all tiers merged).
    pub execute: LatencySummary,
    /// End-to-end latency distribution (all tiers merged).
    pub e2e: LatencySummary,
}

/// Quantile summary of one latency histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median upper bound, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile upper bound, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile upper bound, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile upper bound, nanoseconds.
    pub p999_ns: u64,
}

impl LatencySummary {
    fn of(h: &qc_obs::Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            p50_ns: h.quantile(0.50),
            p90_ns: h.quantile(0.90),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
        }
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={} p90={} p99={} p999={}",
            self.count,
            flight::fmt_ns(self.p50_ns),
            flight::fmt_ns(self.p90_ns),
            flight::fmt_ns(self.p99_ns),
            flight::fmt_ns(self.p999_ns),
        )
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "health: {}", self.health)?;
        writeln!(f, "tier: {}", self.tier)?;
        writeln!(f, "queue: {} waiting", self.queue_len)?;
        writeln!(f, "pool: {} units remaining", self.pool_remaining)?;
        writeln!(
            f,
            "requests: {} admitted, {} shed, {} completed, {} resumed",
            self.admitted, self.shed, self.completed, self.resumed
        )?;
        writeln!(
            f,
            "ladder: {} degraded runs, {} down / {} up; {} worker restarts",
            self.degraded_runs, self.tier_downgrades, self.tier_upgrades, self.worker_restarts
        )?;
        writeln!(
            f,
            "durability: generation {}, {} journal appends, {} live checkpoints; \
             {} coalesced, {} checkpoints rejected",
            self.generation,
            self.journal_appends,
            self.journal_live,
            self.coalesced_hits,
            self.checkpoint_rejected
        )?;
        writeln!(
            f,
            "catalog: epoch {}, {} deltas applied, {} verdict-cache hits",
            self.epoch, self.epoch_bumps, self.verdict_cache_hits
        )?;
        writeln!(f, "queue-wait: {}", self.queue_wait)?;
        writeln!(f, "execute: {}", self.execute)?;
        write!(f, "end-to-end: {}", self.e2e)
    }
}

/// The deterministic heart of the service: capacity model, degradation
/// ladder, resumption, and the per-tier decision procedures — everything
/// except threads and queues. The REPL and benchmarks drive a bare core;
/// [`Service`] drives one from supervised workers.
pub struct ServeCore {
    catalog: Mutex<Arc<CatalogSnapshot>>,
    cfg: ServeConfig,
    capacity: CapacityModel,
    ladder: Mutex<DegradationController>,
    counters: Arc<Counters>,
    hists: Arc<Histograms>,
    flight: FlightRecorder,
    next_trace: AtomicU64,
    store: Arc<dyn CheckpointStore>,
    generation: u64,
    /// Memoized definite verdicts, keyed by request fingerprint (which
    /// folds in the relevant views' versions, so entries never outlive
    /// the catalog state they were computed under).
    verdicts: Mutex<BTreeMap<u64, CachedVerdict>>,
}

/// A memoized definite verdict with its invalidation key.
#[derive(Debug, Clone)]
struct CachedVerdict {
    verdict: Verdict,
    tier: Tier,
    /// The originating request's predicate footprint: a delta drops the
    /// entry iff its touched predicates intersect this set.
    preds: Vec<Symbol>,
    /// Epoch the verdict was computed under (observability; validity is
    /// carried by the fingerprint + predicate-based invalidation).
    #[allow(dead_code)]
    epoch: u64,
}

/// Bound on memoized definite verdicts. A full cache evicts the entry
/// with the numerically smallest fingerprint — an arbitrary victim, not
/// the oldest or the least used.
const VERDICT_CACHE_CAP: usize = 4096;

impl ServeCore {
    /// A core serving containment over `views`, with a volatile
    /// in-memory checkpoint store (see [`ServeCore::with_store`] for a
    /// durable one).
    pub fn new(views: LavSetting, cfg: ServeConfig) -> ServeCore {
        ServeCore::with_store(views, cfg, Arc::new(MemoryStore::new()))
    }

    /// A core whose `Unknown`-with-checkpoint responses are journaled to
    /// `store` at response time, and which replays the store's live
    /// checkpoints on arriving fingerprints — a restarted core resumes a
    /// retried request from its pre-crash proven-disjunct set. The
    /// store's generation is folded into trace-ID minting (see
    /// [`TRACE_GENERATION_SHIFT`]) and its replay report into the
    /// `journal_*` counters.
    pub fn with_store(
        views: LavSetting,
        cfg: ServeConfig,
        store: Arc<dyn CheckpointStore>,
    ) -> ServeCore {
        let capacity = CapacityModel::new(cfg.pool, cfg.min_budget);
        let ladder = Mutex::new(DegradationController::new(
            cfg.trip_threshold,
            cfg.recover_threshold,
        ));
        let flight = FlightRecorder::new(cfg.flight_capacity);
        let counters = Arc::new(Counters::new());
        let hists = Arc::new(Histograms::new());
        let report = store.replay_report();
        counters.add(Counter::JournalReplayed, report.records_replayed);
        counters.add(
            Counter::JournalTornTruncations,
            report.torn_truncated as u64,
        );
        counters.add(Counter::JournalCorruptRecords, report.corrupt_records);
        counters.add(Counter::JournalResets, report.reset.is_some() as u64);
        if report.replay_ns > 0 {
            hists.record(Hist::JournalReplayNs, report.replay_ns);
        }
        let generation = store.generation();

        // Epoch adoption: reconcile this process's catalog with the
        // journaled epoch state so pre-restart checkpoints resume exactly
        // when they are still sound.
        let mut compiled = CompiledCatalog::compile(&views);
        let mut snap = CatalogSnapshot::new(0, compiled.clone());
        match store.epoch_state() {
            None => {
                // Pre-epoch (or fresh) journal: epoch 0, all views at
                // version 0; nothing to write until a delta happens.
            }
            Some(rec) if rec.cat == snap.content_hash() => {
                // Same catalog as before the restart: adopt the epoch and
                // the per-view versions, so pre-restart fingerprints keep
                // matching and journaled progress resumes precisely.
                compiled.restore_versions(&rec.names, &rec.versions);
                snap = CatalogSnapshot::new(rec.epoch, compiled);
                // Belt and braces: a checkpoint tagged with a *different*
                // epoch can only be journal damage — sweep it.
                for fp in store.live_fingerprints() {
                    if let Some(cp) = store.load(fp) {
                        if cp.epoch.is_some_and(|e| e != rec.epoch) && store.retire(fp) {
                            counters.add(Counter::InvalidationStaleEpochRejected, 1);
                        }
                    }
                }
            }
            Some(rec) => {
                // The catalog changed while the process was down. Nothing
                // journaled can be trusted against the new definitions:
                // bump past the journaled epoch, stamp every view as
                // freshly changed, and sweep every checkpoint as stale.
                let epoch = rec.epoch + 1;
                compiled.set_all_versions(epoch);
                snap = CatalogSnapshot::new(epoch, compiled);
                store.set_epoch(&snap.epoch_record());
                for fp in store.live_fingerprints() {
                    if store.retire(fp) {
                        counters.add(Counter::InvalidationStaleEpochRejected, 1);
                    }
                }
            }
        }

        ServeCore {
            catalog: Mutex::new(Arc::new(snap)),
            cfg,
            capacity,
            ladder,
            counters,
            hists,
            flight,
            next_trace: AtomicU64::new(1),
            store,
            generation,
            verdicts: Mutex::new(BTreeMap::new()),
        }
    }

    /// The current catalog snapshot. A request admitted now runs entirely
    /// against this snapshot even if [`ServeCore::apply_delta`] lands
    /// mid-flight.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.catalog_lock())
    }

    /// The current catalog epoch.
    pub fn epoch(&self) -> u64 {
        self.catalog_lock().epoch()
    }

    fn catalog_lock(&self) -> MutexGuard<'_, Arc<CatalogSnapshot>> {
        self.catalog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn verdicts_lock(&self) -> MutexGuard<'_, BTreeMap<u64, CachedVerdict>> {
        self.verdicts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Applies a catalog delta: recompiles exactly the touched views,
    /// bumps the epoch, journals the new epoch state (durably, *before*
    /// serving it), drops every memoized verdict and journaled checkpoint
    /// whose predicate footprint the delta touches, and re-tags untouched
    /// checkpoints to the new epoch so they stay honored. In-flight
    /// requests keep the snapshot they were admitted under; requests
    /// admitted after the swap see only the new epoch. On error the
    /// catalog is unchanged.
    pub fn apply_delta(&self, delta: &CatalogDelta) -> Result<DeltaReport, CatalogError> {
        let mut guard = self.catalog_lock();
        let new_epoch = guard.epoch() + 1;
        // The one copy a delta makes: the view list. Compiled views are
        // shared with the old snapshot by `Arc`.
        let mut compiled = guard.catalog().clone();
        let report = compiled.apply(delta, new_epoch)?;
        let snap = Arc::new(CatalogSnapshot::new(new_epoch, compiled));

        // Durability first: the journaled epoch state must cover the new
        // catalog before any checkpoint is re-tagged against it (a crash
        // between the two leaves re-tagged checkpoints under an epoch the
        // journal knows, never the reverse).
        self.store.set_epoch(&snap.epoch_record());

        // Drop memoized verdicts whose footprint the delta touches.
        {
            let touched: Vec<Symbol> = report.touched_preds.iter().map(Symbol::new).collect();
            let mut cache = self.verdicts_lock();
            let before = cache.len();
            cache.retain(|_, v| !v.preds.iter().any(|p| touched.contains(p)));
            let dropped = (before - cache.len()) as u64;
            if dropped > 0 {
                self.counters
                    .add(Counter::InvalidationVerdictsDropped, dropped);
            }
        }

        // Sweep the checkpoint store: retire what the delta touches (or
        // whose footprint is unknown), re-tag the rest to the new epoch.
        for fp in self.store.live_fingerprints() {
            let Some(cp) = self.store.load(fp) else {
                continue;
            };
            let touched = match &cp.preds {
                None => true, // legacy: unknown footprint, assume touched
                Some(preds) => preds.iter().any(|p| report.touched_preds.contains(p)),
            };
            if touched {
                if self.store.retire(fp) {
                    self.counters
                        .add(Counter::InvalidationCheckpointsDropped, 1);
                }
            } else if cp.epoch != Some(new_epoch) {
                // Untouched progress stays honored: its fingerprint is
                // unchanged (no relevant view changed version), so only
                // the epoch tag needs to move.
                let retagged = Checkpoint {
                    epoch: Some(new_epoch),
                    ..cp
                };
                let _ = self.store.save(&retagged);
            }
        }

        *guard = snap;
        self.counters.add(Counter::CatalogEpochBumps, 1);
        Ok(report)
    }

    /// The checkpoint store backing resumable verdicts.
    pub fn store(&self) -> &Arc<dyn CheckpointStore> {
        &self.store
    }

    /// The store generation trace IDs are minted under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shared counter bank (serve-level counters always land here;
    /// engine counters do too when a [`CounterSink`] over it is
    /// installed, as [`Service`] workers do).
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The shared histogram bank: per-stage latencies and the per-tier
    /// request-lifecycle distributions.
    pub fn histograms(&self) -> &Arc<Histograms> {
        &self.hists
    }

    /// The flight recorder holding the last N request timelines.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Allocates the next trace ID: the store generation in the high
    /// bits, a per-process sequence in the low — unique within a process
    /// by the sequence, across restarts by the generation. [`Service`]
    /// calls this at admission; direct [`ServeCore::handle`] callers get
    /// one implicitly.
    pub fn next_trace(&self) -> TraceId {
        let seq = self.next_trace.fetch_add(1, Ordering::Relaxed)
            & ((1u64 << TRACE_GENERATION_SHIFT) - 1);
        TraceId(((self.generation & 0xFFFF) << TRACE_GENERATION_SHIFT) | seq)
    }

    /// The active ladder tier.
    pub fn tier(&self) -> Tier {
        self.ladder().tier()
    }

    /// Stats snapshot (queue length 0 — a bare core has no queue).
    pub fn stats(&self) -> ServeStats {
        let tier = self.tier();
        let c = |ctr| self.counters.get(ctr);
        ServeStats {
            health: if tier.degraded() {
                Health::Degraded
            } else {
                Health::Healthy
            },
            tier,
            queue_len: 0,
            pool_remaining: self.capacity.remaining(),
            admitted: c(Counter::ServeAdmitted),
            shed: c(Counter::ServeShed),
            completed: c(Counter::ServeCompleted),
            resumed: c(Counter::ServeResumed),
            degraded_runs: c(Counter::ServeDegradedRuns),
            worker_restarts: c(Counter::ServeWorkerRestarts),
            tier_downgrades: c(Counter::ServeTierDowngrades),
            tier_upgrades: c(Counter::ServeTierUpgrades),
            coalesced_hits: c(Counter::ServeCoalescedHits),
            checkpoint_rejected: c(Counter::ServeCheckpointRejected),
            journal_appends: c(Counter::JournalAppends),
            journal_live: self.store.live(),
            generation: self.generation,
            epoch: self.epoch(),
            epoch_bumps: c(Counter::CatalogEpochBumps),
            verdict_cache_hits: c(Counter::ServeVerdictCacheHits),
            queue_wait: LatencySummary::of(&self.hists.merged(&[
                Hist::ServeQueueWaitFullNs,
                Hist::ServeQueueWaitBoundedNs,
                Hist::ServeQueueWaitMiniconNs,
            ])),
            execute: LatencySummary::of(&self.hists.merged(&[
                Hist::ServeExecuteFullNs,
                Hist::ServeExecuteBoundedNs,
                Hist::ServeExecuteMiniconNs,
            ])),
            e2e: LatencySummary::of(&self.hists.merged(&[
                Hist::ServeE2eFullNs,
                Hist::ServeE2eBoundedNs,
                Hist::ServeE2eMiniconNs,
            ])),
        }
    }

    /// Locks the ladder, recovering from poisoning: a worker panicking
    /// mid-update leaves the controller's counters merely stale, and a
    /// poisoned lock must not take the whole service down with it.
    fn ladder(&self) -> MutexGuard<'_, DegradationController> {
        self.ladder
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether the MiniCon tier's soundness argument applies to this
    /// request: both queries nonrecursive, and both queries and the views
    /// Q1 can reach comparison-free (the semi-interval MiniCon variant
    /// exists, but its soundness story under *relative* containment is
    /// exactly what the full tiers are for). Views outside Q1's scope
    /// cannot enter a rewriting, and reading only the scope keeps the
    /// answer a function of what the request fingerprint hashes.
    /// Unsupported requests run with [`Tier::Bounded`] semantics instead.
    fn minicon_supported(&self, req: &Request, snap: &CatalogSnapshot) -> bool {
        !req.q1.has_comparisons()
            && !req.q2.has_comparisons()
            && snap
                .catalog()
                .scope(&req.q1)
                .iter()
                .all(|e| e.source.view.is_comparison_free())
            && !req
                .q1
                .dependency_graph()
                .pred_in_cycle_reachable_from(&req.ans1)
            && !req
                .q2
                .dependency_graph()
                .pred_in_cycle_reachable_from(&req.ans2)
    }

    /// Decides one request at the active tier. `depth` is the number of
    /// requests queued behind it (0 when called directly) and shapes the
    /// capacity grant. `Err` is only [`ServiceError::Rejected`] here —
    /// queue-level errors belong to [`Service`], and panics propagate to
    /// the caller's supervision.
    ///
    /// A fresh trace ID is allocated; [`Service`] workers instead call
    /// [`ServeCore::handle_traced`] with the ID minted at admission.
    pub fn handle(&self, req: &Request, depth: usize) -> Result<Response, ServiceError> {
        self.handle_traced(req, depth, self.next_trace(), Duration::ZERO)
    }

    /// [`ServeCore::handle`] with an explicit trace ID and the time the
    /// request already spent in the admission queue. Records the request's
    /// lifecycle into the per-tier latency histograms and pushes its
    /// timeline into the flight recorder.
    pub fn handle_traced(
        &self,
        req: &Request,
        depth: usize,
        trace: TraceId,
        queue_wait: Duration,
    ) -> Result<Response, ServiceError> {
        self.handle_traced_at(&self.snapshot(), req, depth, trace, queue_wait)
    }

    /// [`ServeCore::handle_traced`] against an explicit catalog snapshot
    /// — the one the request was admitted under, so a delta applied while
    /// it waited in the queue cannot mix catalogs mid-verdict.
    pub fn handle_traced_at(
        &self,
        snap: &Arc<CatalogSnapshot>,
        req: &Request,
        depth: usize,
        trace: TraceId,
        queue_wait: Duration,
    ) -> Result<Response, ServiceError> {
        let started = Instant::now();
        let epoch = snap.epoch();
        let fingerprint = req.fingerprint(snap);
        let mut proven_before: Vec<usize> = Vec::new();
        let mut expected_total: Option<usize> = None;
        let mut resumed = false;
        let mut checkpoint_rejected: Option<CheckpointRejected> = None;
        if let Some(cp) = &req.checkpoint {
            if cp.epoch.is_some_and(|e| e != epoch) {
                // Stale epoch beats fingerprint: even when the fingerprint
                // happens to match (the delta touched none of the
                // request's views), an explicitly foreign-epoch tag means
                // the client's picture of the catalog is out of date, and
                // the chaos suite pins that such resumes are *typed*
                // rejections, never silently honored.
                checkpoint_rejected = Some(CheckpointRejected {
                    kind: RejectReason::StaleEpoch,
                    reason: format!(
                        "stale epoch: checkpoint cut at epoch {}, catalog at epoch {epoch}",
                        cp.epoch.unwrap_or_default()
                    ),
                });
                self.counters.add(Counter::ServeCheckpointRejected, 1);
                self.counters
                    .add(Counter::InvalidationStaleEpochRejected, 1);
            } else if cp.fingerprint == fingerprint {
                // The disjunct count is validated against the rebuilt
                // plan inside `decide`; a mismatch surfaces as
                // `ResumeState::Rejected` below.
                proven_before = cp.proven.clone();
                expected_total = Some(cp.disjuncts_total);
                resumed = true;
            } else {
                checkpoint_rejected = Some(CheckpointRejected {
                    kind: RejectReason::FingerprintMismatch,
                    reason: format!(
                        "fingerprint mismatch: checkpoint {:#018x}, request {:#018x}",
                        cp.fingerprint, fingerprint
                    ),
                });
                self.counters.add(Counter::ServeCheckpointRejected, 1);
            }
        } else if let Some(cp) = self.store.load(fingerprint) {
            // No client-supplied checkpoint: resume from the journal's
            // durable copy, if a prior (possibly pre-crash) generation
            // made partial progress on this exact request. A stored
            // checkpoint with nothing proven has nothing to resume —
            // skipping it keeps `resumed` meaning "work was skipped".
            // A store copy tagged with a foreign epoch (sweeps should
            // have retired or re-tagged it) is never trusted.
            if cp.epoch.is_some_and(|e| e != epoch) {
                self.counters
                    .add(Counter::InvalidationStaleEpochRejected, 1);
            } else if !cp.proven.is_empty() {
                proven_before = cp.proven;
                expected_total = Some(cp.disjuncts_total);
                resumed = true;
            }
        }

        // Memoized definite verdicts. Only consulted for plain requests:
        // an explicit checkpoint, fault plan, or budget override means the
        // caller wants the run itself (resume paths, chaos instruments,
        // deliberately starved anytime runs), not just its answer.
        if req.checkpoint.is_none() && req.fault.is_none() && req.budget.is_none() {
            let hit = self
                .verdicts_lock()
                .get(&fingerprint)
                .map(|v| (v.verdict.clone(), v.tier));
            if let Some((verdict, tier)) = hit {
                self.counters.add(Counter::ServeVerdictCacheHits, 1);
                self.counters.add(Counter::ServeCompleted, 1);
                // A cache hit serves a definite answer; it counts toward
                // ladder recovery like any other definite response.
                if self.ladder().on_definite().is_some() {
                    self.counters.add(Counter::ServeTierUpgrades, 1);
                }
                let queue_wait_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
                self.flight.push(Timeline {
                    trace,
                    outcome: "verdict_cache_hit".into(),
                    tier: Some(tier),
                    resumed: false,
                    checkpoint_rejected: None,
                    queue_wait_ns,
                    execute_ns: 0,
                    total_ns: queue_wait_ns,
                    consumed: 0,
                    trip: None,
                    stages: Vec::new(),
                });
                return Ok(Response {
                    verdict,
                    tier,
                    resumed: false,
                    consumed: 0,
                    checkpoint: None,
                    checkpoint_rejected: None,
                    trace,
                    queue_wait_ns,
                    epoch,
                });
            }
        }

        let tier = self.ladder().tier();
        let grant = match req.budget {
            Some(b) => b,
            None => {
                let g = self.capacity.grant(depth);
                if tier == Tier::Bounded {
                    (g / self.cfg.bounded_divisor.max(1)).max(self.capacity.min_budget())
                } else {
                    g
                }
            }
        };
        let mut guard = Guard::unlimited().with_budget(grant).with_trace(trace.0);
        if let Some(t) = req.timeout.or(self.cfg.default_timeout) {
            guard = guard.with_timeout(t);
        }
        if let Some(f) = req.fault {
            guard = guard.with_fault(f);
        }

        // Per-request telemetry: stage latencies into the core histogram
        // bank and a per-stage breakdown for the flight recorder, chaining
        // to the recorder the thread already had (worker CounterSink, REPL
        // pipeline recorder, …) so counter flows are unchanged.
        let request_rec = Arc::new(RequestRecorder::new(
            qc_obs::current(),
            Arc::clone(&self.hists),
        ));
        let _rec_guard = qc_obs::install(request_rec.clone() as Arc<dyn qc_obs::Recorder>);

        // Every tier runs the sequential engine: service-level parallelism
        // comes from workers, and sequential runs keep verdicts (and
        // checkpoints) deterministic per request.
        let outcome = if tier == Tier::MiniconOnly && self.minicon_supported(req, snap) {
            engine::with_options(EngineOptions::sequential(), || {
                qc_guard::with_guard(&guard, || self.minicon_verdict(req, grant, snap))
            })
        } else {
            let question = Question {
                resume: expected_total.map(|disjuncts_total| Resume {
                    proven: &proven_before,
                    disjuncts_total,
                }),
                ..Question::new(&req.q1, &req.ans1, &req.q2, &req.ans2)
            };
            engine::with_options(EngineOptions::sequential(), || {
                qc_guard::with_guard(&guard, || {
                    decide(&question, Sources::Catalog(snap.catalog()))
                })
            })
            .map(|decision| {
                if let ResumeState::Rejected { expected, actual } = decision.resume {
                    checkpoint_rejected = Some(CheckpointRejected {
                        kind: RejectReason::PlanShapeMismatch,
                        reason: format!(
                            "plan shape mismatch: checkpoint expects {expected} disjuncts, plan has {actual}"
                        ),
                    });
                    self.counters.add(Counter::ServeCheckpointRejected, 1);
                    resumed = false;
                }
                decision.verdict
            })
        };
        let consumed = guard.consumed();
        self.capacity.settle(consumed);
        // Counted after the run so a shape-rejected checkpoint (resumed
        // flipped back off above) is a rejection, not a resume.
        if resumed {
            self.counters.add(Counter::ServeResumed, 1);
        }

        let execute_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let queue_wait_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
        let total_ns = queue_wait_ns.saturating_add(execute_ns);
        let stages = request_rec.take_stages();

        let verdict = match outcome {
            Ok(v) => v,
            Err(e) => {
                let why = e.to_string();
                self.flight.push(Timeline {
                    trace,
                    outcome: "rejected".into(),
                    tier: Some(tier),
                    resumed,
                    checkpoint_rejected: checkpoint_rejected.map(|r| r.reason),
                    queue_wait_ns,
                    execute_ns,
                    total_ns,
                    consumed,
                    trip: Some(why.clone()),
                    stages,
                });
                return Err(ServiceError::Rejected { trace, why });
            }
        };
        self.hists.record(queue_wait_hist(tier), queue_wait_ns);
        self.hists.record(execute_hist(tier), execute_ns);
        self.hists.record(e2e_hist(tier), total_ns);
        self.counters.add(Counter::ServeCompleted, 1);
        if tier.degraded() {
            self.counters.add(Counter::ServeDegradedRuns, 1);
        }
        let step = match &verdict {
            Verdict::Unknown(_) => self
                .ladder()
                .on_resource_trip()
                .map(|t| (Counter::ServeTierDowngrades, t)),
            _ => self
                .ladder()
                .on_definite()
                .map(|t| (Counter::ServeTierUpgrades, t)),
        };
        if let Some((ctr, _)) = step {
            self.counters.add(ctr, 1);
        }

        let checkpoint = match &verdict {
            // The MiniCon tier reports `disjuncts_total: 0` (its indices
            // live in a different space than the plan's), so this arm
            // only fires for resumable per-disjunct progress.
            Verdict::Unknown(p) if p.disjuncts_total > 0 => Some(Checkpoint {
                fingerprint,
                disjuncts_total: p.disjuncts_total,
                proven: p.disjuncts_proven.clone(),
                memo_resident: qc_containment::memo::resident(),
                epoch: Some(epoch),
                preds: Some(req.pred_names().into_iter().collect()),
            }),
            _ => None,
        };
        // Durability: every checkpoint handed to a client is also written
        // to the store at response time, so a crash between response and
        // retry loses nothing. Definite verdicts retire the fingerprint's
        // journal entry — the progress is spent. The save runs under the
        // request's guard so chaos harnesses can kill the process
        // mid-append (`stage::JOURNAL`); budget/cancel trips inside the
        // store are ignored there, journaling is never starved.
        match &checkpoint {
            Some(cp) => {
                let t0 = Instant::now();
                let receipt = qc_guard::with_guard(&guard, || self.store.save(cp));
                self.hists.record(
                    Hist::JournalAppendNs,
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
                if receipt.appended {
                    self.counters.add(Counter::JournalAppends, 1);
                }
                if receipt.compacted {
                    self.counters.add(Counter::JournalCompactions, 1);
                }
            }
            None => {
                // Retire only on a definite verdict. An `Unknown` that
                // produced no checkpoint (e.g. the budget tripped during
                // plan construction) says nothing about the stored
                // progress — erasing it would lose durable work.
                if matches!(verdict, Verdict::Contained | Verdict::NotContained)
                    && self.store.retire(fingerprint)
                {
                    self.counters.add(Counter::JournalRetired, 1);
                }
            }
        }
        let (outcome_name, trip) = match &verdict {
            Verdict::Contained => ("contained", None),
            Verdict::NotContained => ("not_contained", None),
            Verdict::Unknown(p) => ("unknown", Some(p.resource.to_string())),
        };
        self.flight.push(Timeline {
            trace,
            outcome: outcome_name.into(),
            tier: Some(tier),
            resumed,
            checkpoint_rejected: checkpoint_rejected.as_ref().map(|r| r.reason.clone()),
            queue_wait_ns,
            execute_ns,
            total_ns,
            consumed,
            trip,
            stages,
        });
        // Memoize definite verdicts of plain requests (same gate as the
        // lookup: resumes and chaos instruments bypass the cache).
        if req.checkpoint.is_none()
            && req.fault.is_none()
            && req.budget.is_none()
            && matches!(verdict, Verdict::Contained | Verdict::NotContained)
        {
            let mut cache = self.verdicts_lock();
            while cache.len() >= VERDICT_CACHE_CAP {
                cache.pop_first();
            }
            cache.insert(
                fingerprint,
                CachedVerdict {
                    verdict: verdict.clone(),
                    tier,
                    preds: req.footprint(),
                    epoch,
                },
            );
        }
        Ok(Response {
            verdict,
            tier,
            resumed,
            consumed,
            checkpoint,
            checkpoint_rejected,
            trace,
            queue_wait_ns,
            epoch,
        })
    }

    /// The bottom-tier procedure: MiniCon rewritings as a sound
    /// under-approximation of the maximally-contained plan.
    ///
    /// Soundness of `NotContained`: each surviving rewriting `rw` is
    /// sound (`rw^exp ⊆ Q1` — MiniCon's own filter), hence contained in
    /// the maximally-contained plan `MCP`, and expansion preserves
    /// containment, so `rw^exp ⊆ MCP^exp`. If some `rw^exp ⊄ Q2` then
    /// `MCP^exp ⊄ Q2`, which by Thm 3.1 is exactly `Q1 ⋢_V Q2`.
    ///
    /// Incompleteness: all rewritings passing proves nothing — the
    /// under-approximation may simply be missing the disjunct that
    /// escapes `Q2` — so the answer is `Unknown` (with the checked
    /// rewritings as the sound partial plan), never `Contained`.
    fn minicon_verdict(
        &self,
        req: &Request,
        grant: u64,
        snap: &CatalogSnapshot,
    ) -> Result<Verdict, RelativeError> {
        let u1 = req.q1.unfold(&req.ans1)?;
        let u2 = req.q2.unfold(&req.ans2)?;
        let mut sound: Vec<ConjunctiveQuery> = Vec::new();
        let run = qc_guard::guarded(|| -> Result<bool, RelativeError> {
            for d in &u1.disjuncts {
                let rewritings = minicon_rewritings_catalog(d, snap.catalog());
                for rw in rewritings.disjuncts {
                    let exp = expand_cq(&rw, snap.views()).ok_or_else(|| {
                        RelativeError::Unsupported("rewriting does not expand".into())
                    })?;
                    if !qc_containment::cq_contained_in_ucq(&exp, &u2) {
                        return Ok(false);
                    }
                    sound.push(rw);
                }
            }
            Ok(true)
        });
        let resource = match run {
            Ok(Ok(false)) => return Ok(Verdict::NotContained),
            Ok(Err(e)) => return Err(e),
            // Exhausted without a refutation: synthesize "the service's
            // under-approximation stopped here" provenance.
            Ok(Ok(true)) => ResourceError::budget(
                STAGE,
                qc_guard::current().map_or(0, |g| g.consumed()),
                grant,
            ),
            // A genuine limit tripped mid-scan.
            Err(r) => r,
        };
        let partial_plan = if sound.is_empty() {
            None
        } else {
            Ucq::new(sound).ok()
        };
        Ok(Verdict::Unknown(Partial {
            resource,
            disjuncts_proven: Vec::new(),
            disjuncts_total: 0,
            partial_plan,
        }))
    }
}

// ---------------------------------------------------------------------------
// Service — queue, workers, supervision
// ---------------------------------------------------------------------------

struct Job {
    req: Request,
    trace: TraceId,
    /// The catalog snapshot captured at admission: the run uses this even
    /// if a delta lands while the job waits in the queue.
    snap: Arc<CatalogSnapshot>,
    enqueued: Instant,
    queue_timeout: Option<Duration>,
    /// Coalescing key this job leads (other identical requests attach as
    /// waiters under it), when coalescing applies.
    key: Option<u64>,
    reply: mpsc::Sender<Result<Response, ServiceError>>,
}

/// A request that attached to an identical in-flight computation instead
/// of enqueueing its own job. It gets a copy of the leader's answer under
/// its own trace ID.
struct Waiter {
    trace: TraceId,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Response, ServiceError>>,
}

struct QueueShared {
    jobs: Mutex<VecDeque<Job>>,
    cond: Condvar,
    capacity: usize,
    paused: AtomicBool,
    draining: AtomicBool,
    /// Coalescing table: key → waiters attached to the in-flight leader.
    /// Lock order: `jobs` before `inflight` (workers take `inflight`
    /// alone, admission takes it while holding `jobs`).
    inflight: Mutex<HashMap<u64, Vec<Waiter>>>,
}

impl QueueShared {
    fn jobs(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn inflight(&self) -> MutexGuard<'_, HashMap<u64, Vec<Waiter>>> {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The identity under which two requests may share one computation: the
/// request fingerprint plus every answer-shaping override (budget,
/// timeout, checkpoint content). Requests carrying an injected fault are
/// never coalesced — fault plans are per-request chaos instruments. The
/// fingerprint folds the relevant views' epoch versions, so a request
/// admitted after a delta touching its views never attaches to a leader
/// running against the old catalog.
fn coalesce_key(req: &Request, snap: &CatalogSnapshot) -> Option<u64> {
    use std::hash::{Hash, Hasher};
    if req.fault.is_some() {
        return None;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    req.fingerprint(snap).hash(&mut h);
    req.budget.hash(&mut h);
    req.timeout.hash(&mut h);
    if let Some(cp) = &req.checkpoint {
        cp.fingerprint.hash(&mut h);
        cp.disjuncts_total.hash(&mut h);
        cp.proven.hash(&mut h);
    }
    Some(h.finish())
}

/// A pending answer; [`Ticket::wait`] blocks until the worker replies.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServiceError>>,
    trace: TraceId,
}

impl Ticket {
    /// The admitted request's trace ID (known before the answer is).
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Blocks for the verdict. A closed channel (the service was torn
    /// down so hard even drain replies were lost) maps to
    /// [`ServiceError::WorkerLost`] — the caller always gets *something*.
    pub fn wait(self) -> Result<Response, ServiceError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(ServiceError::WorkerLost {
                trace: self.trace,
                why: "reply channel closed".into(),
            })
        })
    }
}

/// The supervised, multi-worker service: a [`ServeCore`] behind a bounded
/// admission queue and panic-isolated worker threads. Dropping (or
/// [`Service::shutdown`]) drains: no new admissions, queued requests
/// still get answers, workers are joined.
pub struct Service {
    core: Arc<ServeCore>,
    shared: Arc<QueueShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Starts `cfg.workers` worker threads over a fresh core with a
    /// volatile in-memory checkpoint store.
    pub fn start(views: LavSetting, cfg: ServeConfig) -> Service {
        Service::start_with_store(views, cfg, Arc::new(MemoryStore::new()))
    }

    /// [`Service::start`] over an explicit [`CheckpointStore`] — pass a
    /// [`FileJournal`] for crash-durable checkpoints and restart
    /// recovery.
    pub fn start_with_store(
        views: LavSetting,
        cfg: ServeConfig,
        store: Arc<dyn CheckpointStore>,
    ) -> Service {
        let start_paused = cfg.start_paused;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(QueueShared {
            jobs: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            paused: AtomicBool::new(start_paused),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
        });
        let core = Arc::new(ServeCore::with_store(views, cfg, store));
        let handles = (0..workers)
            .map(|_| {
                let core = Arc::clone(&core);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(core, shared))
            })
            .collect();
        Service {
            core,
            shared,
            workers: handles,
        }
    }

    /// The underlying core (counters, tier, views).
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Applies a catalog delta to the live service (see
    /// [`ServeCore::apply_delta`]). Requests already admitted keep their
    /// admission-time snapshot; requests admitted after this returns run
    /// at the new epoch.
    pub fn apply_delta(&self, delta: &CatalogDelta) -> Result<DeltaReport, CatalogError> {
        self.core.apply_delta(delta)
    }

    /// Non-blocking admission: sheds when the queue is full, rejects when
    /// draining.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServiceError> {
        self.admit(req, false)
    }

    /// Blocking admission for batch callers: waits for queue room instead
    /// of shedding (still rejects when draining). Note that a paused
    /// service never makes room.
    pub fn submit_wait(&self, req: Request) -> Result<Ticket, ServiceError> {
        self.admit(req, true)
    }

    fn admit(&self, req: Request, wait_for_room: bool) -> Result<Ticket, ServiceError> {
        let counters = self.core.counters();
        // Snapshot-on-admission: the catalog this request will run
        // against, whatever deltas land while it queues.
        let snap = self.core.snapshot();
        let key = if self.core.cfg.coalesce {
            coalesce_key(&req, &snap)
        } else {
            None
        };
        let mut jobs = self.shared.jobs();
        loop {
            if self.shared.draining.load(Ordering::SeqCst) {
                let trace = self.core.next_trace();
                self.core.flight().push(Timeline::admission(
                    trace,
                    "rejected",
                    Some("service is draining".into()),
                ));
                return Err(ServiceError::Rejected {
                    trace,
                    why: "service is draining".into(),
                });
            }
            // Coalescing: an identical request is already queued or
            // executing — attach to it instead of spending a queue slot
            // (checked before the capacity gate: attaching beats
            // shedding). The waiter's answer arrives when the leader's
            // does, under the waiter's own trace ID.
            if let Some(k) = key {
                let mut inflight = self.shared.inflight();
                if let Some(waiters) = inflight.get_mut(&k) {
                    let trace = self.core.next_trace();
                    let (tx, rx) = mpsc::channel();
                    waiters.push(Waiter {
                        trace,
                        enqueued: Instant::now(),
                        reply: tx,
                    });
                    counters.add(Counter::ServeCoalescedHits, 1);
                    return Ok(Ticket { rx, trace });
                }
            }
            if jobs.len() < self.shared.capacity {
                break;
            }
            if !wait_for_room {
                counters.add(Counter::ServeShed, 1);
                let trace = self.core.next_trace();
                self.core.flight().push(Timeline::admission(
                    trace,
                    "shed",
                    Some(format!("queue full at {}", jobs.len())),
                ));
                return Err(ServiceError::ShedUnderLoad {
                    trace,
                    queue_len: jobs.len(),
                });
            }
            let (guard, _) = self
                .shared
                .cond
                .wait_timeout(jobs, Duration::from_millis(50))
                .unwrap_or_else(|e| {
                    let (g, t) = e.into_inner();
                    (g, t)
                });
            jobs = guard;
        }
        let (tx, rx) = mpsc::channel();
        let trace = self.core.next_trace();
        if let Some(k) = key {
            // Register as the in-flight leader for this key so identical
            // requests admitted from here on attach as waiters.
            self.shared.inflight().insert(k, Vec::new());
        }
        jobs.push_back(Job {
            req,
            trace,
            snap,
            enqueued: Instant::now(),
            queue_timeout: None,
            key,
            reply: tx,
        });
        counters.add(Counter::ServeAdmitted, 1);
        drop(jobs);
        self.shared.cond.notify_all();
        Ok(Ticket { rx, trace })
    }

    /// Submits every request (blocking for queue room) and waits for all
    /// answers, preserving order.
    pub fn run_batch(&self, reqs: Vec<Request>) -> Vec<Result<Response, ServiceError>> {
        let tickets: Vec<Result<Ticket, ServiceError>> =
            reqs.into_iter().map(|r| self.submit_wait(r)).collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(Ticket::wait))
            .collect()
    }

    /// Pauses workers (they stop popping; admission continues). With a
    /// bounded queue this makes shedding deterministic for tests.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes paused workers.
    pub fn unpause(&self) {
        self.shared.paused.store(false, Ordering::SeqCst);
        self.shared.cond.notify_all();
    }

    /// Stops admitting new requests; queued ones still run to answers.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.paused.store(false, Ordering::SeqCst);
        self.shared.cond.notify_all();
    }

    /// Derived health: draining beats degraded beats healthy.
    pub fn health(&self) -> Health {
        if self.shared.draining.load(Ordering::SeqCst) {
            Health::Draining
        } else if self.core.tier().degraded() {
            Health::Degraded
        } else {
            Health::Healthy
        }
    }

    /// Stats snapshot including live queue length and health.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.core.stats();
        s.queue_len = self.shared.jobs().len();
        s.health = self.health();
        s
    }

    /// Drains and joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.begin_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sets the per-job queue timeout at admission time. Kept as a free
/// function on [`Request`]-level config instead: the service default is
/// applied by the worker when it pops the job.
fn waited_too_long(job: &Job, default: Option<Duration>) -> Option<u64> {
    let limit = job.queue_timeout.or(default)?;
    let waited = job.enqueued.elapsed();
    (waited > limit).then_some(waited.as_millis() as u64)
}

fn worker_loop(core: Arc<ServeCore>, shared: Arc<QueueShared>) {
    // Engine counters from this thread aggregate into the core's bank.
    let _rec = qc_obs::install(Arc::new(CounterSink(Arc::clone(core.counters()))));
    let queue_default = core.cfg.queue_timeout;
    loop {
        let (job, depth) = {
            let mut jobs = shared.jobs();
            loop {
                if !shared.paused.load(Ordering::SeqCst) {
                    if let Some(j) = jobs.pop_front() {
                        let depth = jobs.len();
                        drop(jobs);
                        // Wake blocked submit_wait callers: there is room.
                        shared.cond.notify_all();
                        break (j, depth);
                    }
                    if shared.draining.load(Ordering::SeqCst) {
                        return;
                    }
                }
                // Timed wait so a missed notify can never hang a drain.
                let (guard, _) = shared
                    .cond
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .unwrap_or_else(|e| {
                        let (g, t) = e.into_inner();
                        (g, t)
                    });
                jobs = guard;
            }
        };
        let waited = job.enqueued.elapsed();
        let reply = match waited_too_long(&job, queue_default) {
            Some(waited_ms) => {
                core.flight().push(Timeline::event(
                    job.trace,
                    "queue_timeout",
                    u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX),
                    Some(format!("waited {waited_ms} ms")),
                ));
                Err(ServiceError::Timeout {
                    trace: job.trace,
                    waited_ms,
                })
            }
            None => run_supervised(&core, &job.snap, &job.req, depth, job.trace, waited),
        };
        // Resolve coalesced waiters. The key is removed *before* replies
        // are sent: requests admitted from here on lead a fresh
        // computation instead of attaching to an answer already on its
        // way out.
        let waiters = match job.key {
            Some(k) => shared.inflight().remove(&k).unwrap_or_default(),
            None => Vec::new(),
        };
        // A dropped ticket just discards the answer; never an error.
        for w in waiters {
            let _ = w.reply.send(coalesced_reply(&core, &reply, &w, job.trace));
        }
        let _ = job.reply.send(reply);
    }
}

/// The answer a coalesced waiter receives: the leader's verdict under the
/// waiter's own trace ID and queue wait, with a `coalesced` timeline
/// pointing back at the leader's trace.
fn coalesced_reply(
    core: &ServeCore,
    leader: &Result<Response, ServiceError>,
    w: &Waiter,
    leader_trace: TraceId,
) -> Result<Response, ServiceError> {
    let waited_ns = u64::try_from(w.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match leader {
        Ok(resp) => {
            core.flight().push(Timeline {
                trace: w.trace,
                outcome: "coalesced".into(),
                tier: Some(resp.tier),
                resumed: resp.resumed,
                checkpoint_rejected: None,
                queue_wait_ns: waited_ns,
                execute_ns: 0,
                total_ns: waited_ns,
                consumed: 0,
                trip: Some(format!("waiter of {leader_trace}")),
                stages: Vec::new(),
            });
            let mut r = resp.clone();
            r.trace = w.trace;
            r.queue_wait_ns = waited_ns;
            Ok(r)
        }
        Err(e) => {
            core.flight().push(Timeline::event(
                w.trace,
                "coalesced",
                waited_ns,
                Some(format!("waiter of {leader_trace}: {e}")),
            ));
            Err(error_with_trace(e, w.trace))
        }
    }
}

/// The same service error re-addressed to a coalesced waiter's trace.
fn error_with_trace(e: &ServiceError, trace: TraceId) -> ServiceError {
    match e.clone() {
        ServiceError::Rejected { why, .. } => ServiceError::Rejected { trace, why },
        ServiceError::ShedUnderLoad { queue_len, .. } => {
            ServiceError::ShedUnderLoad { trace, queue_len }
        }
        ServiceError::Timeout { waited_ms, .. } => ServiceError::Timeout { trace, waited_ms },
        ServiceError::WorkerLost { why, .. } => ServiceError::WorkerLost { trace, why },
    }
}

/// Runs one request with panic isolation: a panicking run is retried once
/// on the (logically restarted) worker; a second panic isolates the
/// request as poisoned with [`ServiceError::WorkerLost`] instead of
/// retrying forever — deterministic panics would otherwise wedge the
/// service on one request.
fn run_supervised(
    core: &ServeCore,
    snap: &Arc<CatalogSnapshot>,
    req: &Request,
    depth: usize,
    trace: TraceId,
    queue_wait: Duration,
) -> Result<Response, ServiceError> {
    let queue_wait_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
    match catch_unwind(AssertUnwindSafe(|| {
        core.handle_traced_at(snap, req, depth, trace, queue_wait)
    })) {
        Ok(r) => r,
        Err(p) => {
            core.counters().add(Counter::ServeWorkerRestarts, 1);
            core.flight().push(Timeline::event(
                trace,
                "panic_retry",
                queue_wait_ns,
                Some(panic_message(p.as_ref())),
            ));
            match catch_unwind(AssertUnwindSafe(|| {
                core.handle_traced_at(snap, req, depth, trace, queue_wait)
            })) {
                Ok(r) => r,
                Err(p) => {
                    let why = panic_message(p.as_ref());
                    core.flight().push(Timeline::event(
                        trace,
                        "worker_lost",
                        queue_wait_ns,
                        Some(why.clone()),
                    ));
                    Err(ServiceError::WorkerLost { trace, why })
                }
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_datalog::parse_program;
    use qc_guard::FaultKind;
    use qc_mediator::schema::example1_sources;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    fn q1_prog() -> Program {
        parse_program(
            "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
        )
        .unwrap()
    }

    fn q2_prog() -> Program {
        parse_program(
            "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
        )
        .unwrap()
    }

    fn contained_request() -> Request {
        Request::new(q1_prog(), sym("q1"), q2_prog(), sym("q2"))
    }

    /// Comparison-free setting where the MiniCon tier applies: one view
    /// exposes edges, q_far needs a 2-hop path, q_near a 1-hop one.
    fn chain_setting() -> (LavSetting, Request) {
        let views = LavSetting::parse(&["v(X, Y) :- e(X, Y)."]).unwrap();
        let far = parse_program("qf(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
        let near = parse_program("qn(X, Z) :- e(X, Z).").unwrap();
        (views, Request::new(far, sym("qf"), near, sym("qn")))
    }

    #[test]
    fn capacity_grant_divides_and_floors() {
        let cap = CapacityModel::new(1000, 10);
        assert_eq!(cap.grant(0), 1000);
        assert_eq!(cap.grant(3), 250);
        assert_eq!(cap.grant(999), 10, "floored at min_budget");
        cap.settle(600);
        assert_eq!(cap.remaining(), 400);
        cap.settle(1_000_000);
        assert_eq!(cap.remaining(), 0, "saturates at zero");
        assert_eq!(cap.grant(0), 10, "exhausted pool still grants the floor");
    }

    #[test]
    fn core_decides_contained_at_full_tier() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        let resp = core.handle(&contained_request(), 0).unwrap();
        assert_eq!(resp.verdict, Verdict::Contained);
        assert_eq!(resp.tier, Tier::Full);
        assert!(!resp.resumed);
        assert!(resp.checkpoint.is_none());
        assert!(resp.consumed > 0);
        let stats = core.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.health, Health::Healthy);
    }

    #[test]
    fn tiny_budget_yields_checkpoint_and_resume_finishes() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        // Find a budget that lands between the disjunct checks so the
        // checkpoint carries partial progress.
        let mut cp = None;
        for budget in 1..5_000 {
            let mut req = contained_request();
            req.budget = Some(budget);
            let resp = core.handle(&req, 0).unwrap();
            if let Verdict::Unknown(p) = &resp.verdict {
                if !p.disjuncts_proven.is_empty() {
                    cp = resp.checkpoint.clone();
                    break;
                }
            }
        }
        let cp = cp.expect("some budget trips mid-plan");
        assert!(!cp.proven.is_empty());

        let mut retry = contained_request();
        retry.checkpoint = Some(cp);
        let resp = core.handle(&retry, 0).unwrap();
        assert!(resp.resumed);
        assert_eq!(
            resp.verdict,
            Verdict::Contained,
            "resumed run reaches the one-shot verdict"
        );
        assert!(core.stats().resumed >= 1);
    }

    #[test]
    fn foreign_checkpoint_is_ignored() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        let mut req = contained_request();
        req.checkpoint = Some(Checkpoint {
            fingerprint: 12345, // wrong on purpose
            disjuncts_total: 2,
            proven: vec![0, 1],
            memo_resident: 0,
            epoch: None,
            preds: None,
        });
        let resp = core.handle(&req, 0).unwrap();
        assert!(!resp.resumed, "fingerprint mismatch must not resume");
        assert_eq!(resp.verdict, Verdict::Contained);
        let rejected = resp.checkpoint_rejected.expect("typed rejection");
        assert_eq!(rejected.kind, RejectReason::FingerprintMismatch);
        assert!(
            rejected.reason.contains("fingerprint mismatch"),
            "{rejected}"
        );
        assert_eq!(core.stats().checkpoint_rejected, 1);
        let tl = core.flight().find(resp.trace).unwrap();
        assert_eq!(
            tl.checkpoint_rejected.as_deref(),
            Some(rejected.reason.as_str()),
            "rejection is visible in the timeline"
        );
    }

    #[test]
    fn shape_mismatched_checkpoint_is_rejected_with_reason() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        let req = contained_request();
        let fingerprint = req.fingerprint(&core.snapshot());
        let mut stale = req.clone();
        stale.checkpoint = Some(Checkpoint {
            fingerprint,
            disjuncts_total: 99, // the rebuilt plan will disagree
            proven: vec![0, 1],
            memo_resident: 0,
            epoch: None,
            preds: None,
        });
        let resp = core.handle(&stale, 0).unwrap();
        assert_eq!(resp.verdict, Verdict::Contained, "recomputed from scratch");
        assert!(!resp.resumed, "shape mismatch must not count as resumed");
        let rejected = resp.checkpoint_rejected.expect("typed rejection");
        assert_eq!(rejected.kind, RejectReason::PlanShapeMismatch);
        assert!(rejected.reason.contains("99"), "{rejected}");
        assert_eq!(core.stats().checkpoint_rejected, 1);
    }

    #[test]
    fn ladder_steps_down_on_trips_and_reports_tier() {
        let cfg = ServeConfig {
            trip_threshold: 1,
            recover_threshold: 2,
            ..ServeConfig::default()
        };
        let core = ServeCore::new(example1_sources(), cfg);
        let mut starved = contained_request();
        starved.budget = Some(1);
        let r1 = core.handle(&starved, 0).unwrap();
        assert_eq!(r1.tier, Tier::Full);
        assert!(matches!(r1.verdict, Verdict::Unknown(_)));
        assert_eq!(core.tier(), Tier::Bounded);
        let r2 = core.handle(&starved, 0).unwrap();
        assert_eq!(r2.tier, Tier::Bounded);
        assert_eq!(core.tier(), Tier::MiniconOnly);
        let stats = core.stats();
        assert_eq!(stats.tier_downgrades, 2);
        assert_eq!(stats.degraded_runs, 1);
        assert_eq!(stats.health, Health::Degraded);

        // Definite answers at the degraded tier climb back up.
        let ok = contained_request();
        for _ in 0..4 {
            core.handle(&ok, 0).unwrap();
        }
        assert_eq!(core.tier(), Tier::Full);
        assert!(core.stats().tier_upgrades >= 2);
    }

    #[test]
    fn minicon_tier_is_sound_never_contained() {
        let cfg = ServeConfig {
            trip_threshold: 1,
            ..ServeConfig::default()
        };
        let (views, not_contained_req) = chain_setting();
        let core = ServeCore::new(views, cfg);
        // Drive the ladder to the bottom.
        let mut starved = not_contained_req.clone();
        starved.budget = Some(1);
        core.handle(&starved, 0).unwrap();
        core.handle(&starved, 0).unwrap();
        assert_eq!(core.tier(), Tier::MiniconOnly);

        // A true refutation is definite even at the bottom tier: the far
        // query's sound plan (two view hops) expands outside the one-hop
        // query.
        let resp = core.handle(&not_contained_req, 0).unwrap();
        assert_eq!(resp.tier, Tier::MiniconOnly);
        assert_eq!(resp.verdict, Verdict::NotContained);

        // A true containment is *not* claimed by the under-approximation:
        // it answers Unknown with serve-stage provenance. (Reset the
        // ladder first — the definite answer above started recovery.)
        let (views, _) = chain_setting();
        let core = ServeCore::new(
            views,
            ServeConfig {
                trip_threshold: 1,
                ..ServeConfig::default()
            },
        );
        let same = parse_program("qs(X, Y) :- e(X, Y).").unwrap();
        let same2 = parse_program("qt(X, Y) :- e(X, Y).").unwrap();
        let mut starved = Request::new(same.clone(), sym("qs"), same2.clone(), sym("qt"));
        starved.budget = Some(1);
        core.handle(&starved, 0).unwrap();
        core.handle(&starved, 0).unwrap();
        assert_eq!(core.tier(), Tier::MiniconOnly);
        let resp = core
            .handle(&Request::new(same, sym("qs"), same2, sym("qt")), 0)
            .unwrap();
        match resp.verdict {
            Verdict::Unknown(p) => {
                assert_eq!(p.resource.stage, STAGE);
                assert!(p.partial_plan.is_some(), "sound rewritings are reported");
                assert!(
                    resp.checkpoint.is_none(),
                    "minicon progress is not a checkpoint"
                );
            }
            other => panic!("under-approximation must not decide {other:?}"),
        }
    }

    #[test]
    fn service_sheds_deterministically_when_paused() {
        let cfg = ServeConfig {
            workers: 2,
            queue_capacity: 2,
            start_paused: true,
            // The submits are identical; without this they would coalesce
            // instead of shedding, which is exactly what this test pins.
            coalesce: false,
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let mut tickets = Vec::new();
        let mut shed = 0;
        for _ in 0..5 {
            match svc.submit(contained_request()) {
                Ok(t) => tickets.push(t),
                Err(e @ ServiceError::ShedUnderLoad { queue_len, .. }) => {
                    assert_eq!(queue_len, 2);
                    assert!(svc.core().flight().find(e.trace()).is_some());
                    shed += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(tickets.len(), 2);
        assert_eq!(shed, 3);
        assert_eq!(svc.stats().shed, 3);
        svc.unpause();
        for t in tickets {
            let resp = t.wait().expect("admitted requests complete");
            assert_eq!(resp.verdict, Verdict::Contained);
        }
        let stats = svc.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        svc.shutdown();
    }

    #[test]
    fn draining_rejects_but_finishes_queued_work() {
        let cfg = ServeConfig {
            workers: 1,
            start_paused: true,
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let t = svc.submit(contained_request()).unwrap();
        svc.begin_drain();
        match svc.submit(contained_request()) {
            Err(ServiceError::Rejected { .. }) => {}
            other => panic!("draining must reject, got {other:?}"),
        }
        assert_eq!(svc.health(), Health::Draining);
        // begin_drain unpauses; the queued request still gets its answer.
        let resp = t.wait().unwrap();
        assert_eq!(resp.verdict, Verdict::Contained);
        svc.shutdown();
    }

    #[test]
    fn injected_panic_is_supervised_and_answered() {
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let mut req = contained_request();
        req.fault = Some(FaultPlan {
            stage: qc_guard::stage::HOM_SEARCH,
            at_tick: 1,
            kind: FaultKind::Panic,
        });
        let reply = svc.submit(req).unwrap().wait();
        // The guard (and its armed fault) is rebuilt per attempt, so a
        // deterministic injected panic fires on the retry too and the
        // request is isolated as poisoned — but *answered*, with restarts
        // counted. A healthy request afterwards still succeeds.
        match reply {
            Err(ServiceError::WorkerLost { .. }) => {}
            other => panic!("expected WorkerLost, got {other:?}"),
        }
        assert!(svc.stats().worker_restarts >= 1);
        let resp = svc.submit(contained_request()).unwrap().wait().unwrap();
        assert_eq!(resp.verdict, Verdict::Contained);
        svc.shutdown();
    }

    #[test]
    fn queue_timeout_answers_instead_of_running() {
        let cfg = ServeConfig {
            workers: 1,
            start_paused: true,
            queue_timeout: Some(Duration::from_millis(1)),
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let t = svc.submit(contained_request()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        svc.unpause();
        match t.wait() {
            Err(ServiceError::Timeout { waited_ms, .. }) => assert!(waited_ms >= 1),
            other => panic!("expected Timeout, got {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn run_batch_preserves_order_without_shedding() {
        let cfg = ServeConfig {
            workers: 2,
            queue_capacity: 2,
            // Identical requests would coalesce into one computation;
            // this test pins the plain bounded-queue batch path.
            coalesce: false,
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let reqs: Vec<Request> = (0..6).map(|_| contained_request()).collect();
        let replies = svc.run_batch(reqs);
        assert_eq!(replies.len(), 6);
        for r in replies {
            assert_eq!(r.unwrap().verdict, Verdict::Contained);
        }
        let stats = svc.stats();
        assert_eq!(stats.shed, 0, "batch admission waits instead of shedding");
        assert_eq!(stats.completed, 6);
        svc.shutdown();
    }

    #[test]
    fn identical_concurrent_requests_coalesce_into_one_computation() {
        let cfg = ServeConfig {
            workers: 2,
            queue_capacity: 8,
            start_paused: true, // all submits land before any runs
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let n = 4;
        let tickets: Vec<Ticket> = (0..n)
            .map(|_| svc.submit(contained_request()).unwrap())
            .collect();
        let traces: Vec<TraceId> = tickets.iter().map(Ticket::trace).collect();
        svc.unpause();
        let mut verdicts = Vec::new();
        for t in tickets {
            verdicts.push(t.wait().unwrap().verdict);
        }
        assert!(verdicts.iter().all(|v| *v == Verdict::Contained));
        let stats = svc.stats();
        assert_eq!(stats.admitted, 1, "one leader");
        assert_eq!(stats.completed, 1, "one computation");
        assert_eq!(stats.coalesced_hits, n as u64 - 1);
        // Every waiter gets its own trace and a `coalesced` timeline
        // naming the leader.
        let flight = svc.core().flight();
        for w in &traces[1..] {
            let tl = flight.find(*w).expect("waiter timeline");
            assert_eq!(tl.outcome, "coalesced");
            assert_eq!(
                tl.trip.as_deref(),
                Some(format!("waiter of {}", traces[0]).as_str())
            );
        }
        assert_ne!(
            flight.find(traces[0]).unwrap().outcome,
            "coalesced",
            "the leader's timeline is the real run"
        );
        svc.shutdown();
    }

    #[test]
    fn faulted_requests_never_coalesce() {
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 8,
            start_paused: true,
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let mut req = contained_request();
        req.fault = Some(FaultPlan {
            stage: qc_guard::stage::HOM_SEARCH,
            at_tick: 1_000_000, // armed but never fires
            kind: FaultKind::Panic,
        });
        let t1 = svc.submit(req.clone()).unwrap();
        let t2 = svc.submit(req).unwrap();
        svc.unpause();
        t1.wait().unwrap();
        t2.wait().unwrap();
        let stats = svc.stats();
        assert_eq!(stats.coalesced_hits, 0, "fault plans are per-request");
        assert_eq!(stats.admitted, 2);
        svc.shutdown();
    }

    #[test]
    fn store_resumes_requests_that_arrive_without_a_checkpoint() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        let mut starved = contained_request();
        // Find a budget yielding partial progress (as in the resume test).
        let mut journaled = false;
        for budget in 1..5_000 {
            starved.budget = Some(budget);
            let resp = core.handle(&starved, 0).unwrap();
            if let Some(cp) = resp.checkpoint {
                if !cp.proven.is_empty() {
                    journaled = true;
                    break;
                }
            }
        }
        assert!(journaled, "no budget produced partial progress");
        assert!(core.stats().journal_live >= 1, "checkpoint was journaled");
        // Same request, no explicit checkpoint, ample budget: the core
        // resumes from its own store.
        starved.budget = Some(u64::MAX);
        let resp = core.handle(&starved, 0).unwrap();
        assert_eq!(resp.verdict, Verdict::Contained);
        assert!(resp.resumed, "store-held checkpoint was applied");
        assert_eq!(
            core.stats().journal_live,
            0,
            "definite verdict retired the fingerprint"
        );
        assert!(core.stats().journal_appends >= 1);
    }

    #[test]
    fn starved_unknown_does_not_retire_stored_progress() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        let mut starved = contained_request();
        for budget in 1..5_000 {
            starved.budget = Some(budget);
            let resp = core.handle(&starved, 0).unwrap();
            if resp.checkpoint.is_some_and(|cp| !cp.proven.is_empty()) {
                break;
            }
        }
        assert!(core.stats().journal_live >= 1, "checkpoint was journaled");
        // A rerun so starved it dies during plan construction returns
        // `Unknown` with no checkpoint. That says nothing about the
        // stored progress: the fingerprint must stay live.
        starved.budget = Some(1);
        let resp = core.handle(&starved, 0).unwrap();
        assert!(matches!(resp.verdict, Verdict::Unknown(_)));
        assert!(resp.checkpoint.is_none(), "too starved to checkpoint");
        assert!(
            core.stats().journal_live >= 1,
            "Unknown without a checkpoint must not retire the fingerprint"
        );
    }

    #[test]
    fn trace_ids_carry_the_store_generation() {
        let store = Arc::new(MemoryStore::with_generation(3));
        let core = ServeCore::with_store(example1_sources(), ServeConfig::default(), store);
        let resp = core.handle(&contained_request(), 0).unwrap();
        assert_eq!(resp.trace.generation(), 3);
        assert_eq!(core.generation(), 3);
        let gen0 = ServeCore::new(example1_sources(), ServeConfig::default());
        let r0 = gen0.handle(&contained_request(), 0).unwrap();
        assert_eq!(r0.trace.generation(), 0);
        assert_ne!(
            resp.trace, r0.trace,
            "same sequence, different generation → distinct traces"
        );
    }
}
