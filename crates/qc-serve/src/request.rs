//! The core request path: catalog snapshots, requests and responses, and
//! [`ServeCore`], which answers one request in seven named stages (see
//! [`ServeCore::handle_traced_at`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qc_containment::engine::{self, EngineOptions};
use qc_datalog::{Program, Symbol};
use qc_guard::{FaultPlan, Guard};
use qc_mediator::catalog::{
    extend_footprint, CatalogDelta, CatalogError, CompiledCatalog, DeltaReport,
};
use qc_mediator::relative::{decide, Question, Resume, ResumeState, Sources, Verdict};
use qc_mediator::schema::LavSetting;
use qc_obs::{Counter, Counters, Hist, Histograms};

use crate::checkpoint::{Checkpoint, CheckpointRejected, RejectReason};
use crate::flight::{FlightRecorder, StageTime, Timeline};
use crate::journal::{CheckpointStore, EpochRecord, MemoryStore};
use crate::{nanos, ServeConfig, ServiceError, TraceId, TRACE_GENERATION_SHIFT};

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

    /// The compiled catalog (cached inverse rules and footprints).
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

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

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
    /// Explicit work-unit budget, overriding the grant the service would
    /// derive from [`ServeConfig::pool`].
    pub budget: Option<u64>,
    /// Per-run wall-clock limit (none by default).
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

    /// Whether the verdict cache serves this request: it carries no
    /// checkpoint, fault plan or budget override. Each of those means the
    /// caller wants the run itself (resume paths, chaos instruments,
    /// deliberately starved anytime runs), not just its answer.
    fn is_plain(&self) -> bool {
        self.checkpoint.is_none() && self.fault.is_none() && self.budget.is_none()
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

/// The smallest grant a request without its own budget gets, however deep
/// the queue behind it.
const MIN_GRANT: u64 = 4096;

/// The work-unit grant of a request without its own budget that starts
/// with `depth` others queued behind it: `pool / (depth + 1)`, never less
/// than [`MIN_GRANT`].
fn grant(pool: u64, depth: usize) -> u64 {
    (pool / (depth as u64 + 1)).max(MIN_GRANT)
}

/// The per-request recorder the decide stage installs for the duration
/// of one decision: it chains counters and spans to whatever recorder the
/// thread already had (the worker's [`crate::CounterSink`], the REPL's
/// pipeline recorder, …) so existing flows are unchanged, records latency
/// samples into the core's histogram bank, and aggregates per-stage wall
/// time for the request's flight-recorder timeline.
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
            let ns = nanos(started.elapsed());
            if let Some(h) = Hist::from_stage(name) {
                self.hists.record(h, ns);
            }
            match st.agg.iter_mut().find(|s| s.stage == name) {
                Some(s) => {
                    s.calls += 1;
                    s.total_ns = s.total_ns.saturating_add(ns);
                }
                None => st.agg.push(StageTime {
                    stage: name,
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

// ---------------------------------------------------------------------------
// ServeCore — the deterministic, threadless engine
// ---------------------------------------------------------------------------

/// How many request timelines the flight recorder retains.
const FLIGHT_CAPACITY: usize = 256;

/// Bound on memoized definite verdicts. A full cache evicts the entry
/// with the numerically smallest fingerprint — an arbitrary victim, not
/// the oldest or the least used.
const VERDICT_CACHE_CAP: usize = 4096;

/// A memoized definite verdict with its invalidation key.
#[derive(Debug, Clone)]
struct CachedVerdict {
    verdict: Verdict,
    /// The originating request's predicate footprint: a delta drops the
    /// entry iff its touched predicates intersect this set.
    preds: Vec<Symbol>,
}

/// Where a run starts (the resume-lookup stage's result).
#[derive(Default)]
struct ResumePoint {
    /// The proven disjunct indices and the plan size they were cut
    /// against, when the run resumes from a checkpoint.
    from: Option<(Vec<usize>, usize)>,
    /// Why a client checkpoint was refused, when one was.
    rejected: Option<CheckpointRejected>,
}

/// What one request came to: its counters, its flight timeline and its
/// response are all built from this.
struct Run {
    /// The verdict, or why `decide` refused the question.
    answer: Result<Verdict, String>,
    /// Answered from the verdict cache: nothing ran.
    cache_hit: bool,
    resumed: bool,
    consumed: u64,
    checkpoint: Option<Checkpoint>,
    checkpoint_rejected: Option<CheckpointRejected>,
    execute_ns: u64,
    stages: Vec<StageTime>,
}

impl Run {
    /// A plain request answered from the verdict cache.
    fn cache_hit(verdict: Verdict) -> Run {
        Run {
            answer: Ok(verdict),
            cache_hit: true,
            resumed: false,
            consumed: 0,
            checkpoint: None,
            checkpoint_rejected: None,
            execute_ns: 0,
            stages: Vec::new(),
        }
    }

    /// The verdict, when it is definite.
    fn definite(&self) -> Option<&Verdict> {
        self.answer
            .as_ref()
            .ok()
            .filter(|v| matches!(v, Verdict::Contained | Verdict::NotContained))
    }

    /// The run's flight-recorder timeline (taking its stage breakdown).
    fn timeline(&mut self, trace: TraceId, queue_wait_ns: u64) -> Timeline {
        let (outcome, trip) = match &self.answer {
            Ok(_) if self.cache_hit => ("verdict_cache_hit", None),
            Ok(Verdict::Contained) => ("contained", None),
            Ok(Verdict::NotContained) => ("not_contained", None),
            Ok(Verdict::Unknown(p)) => ("unknown", Some(p.resource.to_string())),
            Err(why) => ("rejected", Some(why.clone())),
        };
        Timeline {
            trace,
            outcome,
            resumed: self.resumed,
            checkpoint_rejected: self.checkpoint_rejected.as_ref().map(|r| r.reason.clone()),
            queue_wait_ns,
            execute_ns: self.execute_ns,
            total_ns: queue_wait_ns.saturating_add(self.execute_ns),
            consumed: self.consumed,
            trip,
            stages: std::mem::take(&mut self.stages),
        }
    }

    /// The caller's answer: a [`Response`], or the rejection.
    fn into_response(
        self,
        trace: TraceId,
        queue_wait_ns: u64,
        epoch: u64,
    ) -> Result<Response, ServiceError> {
        let verdict = self
            .answer
            .map_err(|why| ServiceError::Rejected { trace, why })?;
        Ok(Response {
            verdict,
            resumed: self.resumed,
            consumed: self.consumed,
            checkpoint: self.checkpoint,
            checkpoint_rejected: self.checkpoint_rejected,
            trace,
            queue_wait_ns,
            epoch,
        })
    }
}

/// The deterministic heart of the service: grants, resumption, the
/// verdict cache and the decision — everything except threads and
/// queues. The REPL and benchmarks drive a bare core;
/// [`crate::Service`] drives one from supervised workers.
pub struct ServeCore {
    catalog: Mutex<Arc<CatalogSnapshot>>,
    pool: u64,
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
                        if cp.epoch != rec.epoch && store.retire(fp) {
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
            pool: cfg.pool,
            counters,
            hists,
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
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

        // Sweep the checkpoint store: retire what the delta touches,
        // re-tag the rest to the new epoch.
        for fp in self.store.live_fingerprints() {
            let Some(cp) = self.store.load(fp) else {
                continue;
            };
            if cp.preds.iter().any(|p| report.touched_preds.contains(p)) {
                if self.store.retire(fp) {
                    self.counters
                        .add(Counter::InvalidationCheckpointsDropped, 1);
                }
            } else if cp.epoch != new_epoch {
                // Untouched progress stays honored: its fingerprint is
                // unchanged (no relevant view changed version), so only
                // the epoch tag needs to move.
                let retagged = Checkpoint {
                    epoch: new_epoch,
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
    /// engine counters do too when a [`crate::CounterSink`] over it is
    /// installed, as [`crate::Service`] workers do).
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The shared histogram bank: per-stage latencies and the
    /// request-lifecycle distributions.
    pub fn histograms(&self) -> &Arc<Histograms> {
        &self.hists
    }

    /// The flight recorder holding the last 256 request timelines.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Allocates the next trace ID: the store generation in the high
    /// bits, a per-process sequence in the low — unique within a process
    /// by the sequence, across restarts by the generation.
    /// [`crate::Service`] calls this at admission; direct
    /// [`ServeCore::handle`] callers get one implicitly.
    pub fn next_trace(&self) -> TraceId {
        let seq = self.next_trace.fetch_add(1, Ordering::Relaxed)
            & ((1u64 << TRACE_GENERATION_SHIFT) - 1);
        TraceId(((self.generation & 0xFFFF) << TRACE_GENERATION_SHIFT) | seq)
    }

    /// Decides one request. `depth` is the number of requests queued
    /// behind it (0 when called directly) and splits the grant of a
    /// request without its own budget. `Err` is only
    /// [`ServiceError::Rejected`] here — queue-level errors belong to
    /// [`crate::Service`], and panics propagate to the caller's
    /// supervision. A fresh trace ID is allocated and the fingerprint
    /// computed; [`crate::Service`] workers instead call
    /// [`ServeCore::handle_traced_at`] with both from admission.
    pub fn handle(&self, req: &Request, depth: usize) -> Result<Response, ServiceError> {
        let trace = self.next_trace();
        let snap = self.snapshot();
        let fingerprint = req.fingerprint(&snap);
        self.handle_traced_at(&snap, req, fingerprint, depth, trace, Duration::ZERO)
    }

    /// [`ServeCore::handle`] with the catalog snapshot the request was
    /// admitted under (so a delta applied while it waited in the queue
    /// cannot mix catalogs mid-verdict), its fingerprint against that
    /// snapshot ([`Request::fingerprint`], computed once at admission), an
    /// explicit trace ID, and the time it already spent in the admission
    /// queue.
    ///
    /// A request passes through seven stages, in order:
    ///
    /// 1. **Verdict cache** — a plain request (no checkpoint, fault plan
    ///    or budget) whose fingerprint holds a memoized definite verdict
    ///    is answered from it, and skips stages 2–5 and 7.
    /// 2. **Resume lookup** — the client's checkpoint, or else the
    ///    store's copy for this fingerprint.
    /// 3. **Grant** — the run's guard: the request's budget, or the pool
    ///    split by queue depth.
    /// 4. **Decide** — [`decide`] under that guard.
    /// 5. **Persist** — journal the checkpoint of an `Unknown`, or retire
    ///    the fingerprint on a definite verdict.
    /// 6. **Record** — counters, latency histograms and the flight
    ///    timeline.
    /// 7. **Memoize** — a plain request's definite verdict enters the
    ///    cache.
    ///
    /// Each outcome's [`Timeline`] and [`Response`] are built from the
    /// run's result in one place each.
    pub fn handle_traced_at(
        &self,
        snap: &Arc<CatalogSnapshot>,
        req: &Request,
        fingerprint: u64,
        depth: usize,
        trace: TraceId,
        queue_wait: Duration,
    ) -> Result<Response, ServiceError> {
        let started = Instant::now();
        let plain = req.is_plain();
        let mut run = match plain.then(|| self.cached_verdict(fingerprint)).flatten() {
            Some(verdict) => Run::cache_hit(verdict),
            None => {
                let resume = self.resume_point(req, fingerprint, snap.epoch());
                let guard = self.grant_guard(req, depth, trace);
                let run = self.decide_run(snap, req, fingerprint, &guard, resume, started);
                self.persist(&guard, fingerprint, &run);
                run
            }
        };
        let queue_wait_ns = nanos(queue_wait);
        self.record(trace, queue_wait_ns, &mut run);
        if plain && !run.cache_hit {
            self.memoize(fingerprint, req, &run);
        }
        run.into_response(trace, queue_wait_ns, snap.epoch())
    }

    /// Stage 1: the memoized definite verdict for `fingerprint`, if any.
    fn cached_verdict(&self, fingerprint: u64) -> Option<Verdict> {
        self.verdicts_lock()
            .get(&fingerprint)
            .map(|v| v.verdict.clone())
    }

    /// Stage 2: where the run starts. A client checkpoint resumes the run
    /// when it carries the current epoch and this request's fingerprint,
    /// and is refused with a typed reason otherwise. Without one, the
    /// store's durable copy resumes the run — a prior (possibly
    /// pre-crash) generation made partial progress on this exact request
    /// — when it carries the current epoch and has something proven: an
    /// empty-proven copy has nothing to skip, and skipping it keeps
    /// `resumed` meaning "work was skipped".
    fn resume_point(&self, req: &Request, fingerprint: u64, epoch: u64) -> ResumePoint {
        let refuse = |kind, reason| {
            self.counters.add(Counter::ServeCheckpointRejected, 1);
            ResumePoint {
                from: None,
                rejected: Some(CheckpointRejected { kind, reason }),
            }
        };
        match &req.checkpoint {
            // Stale epoch beats fingerprint: even when the fingerprint
            // happens to match (the delta touched none of the request's
            // views), a foreign-epoch tag means the client's picture of
            // the catalog is out of date, and the chaos suite pins that
            // such resumes are *typed* rejections, never silently honored.
            Some(cp) if cp.epoch != epoch => {
                self.counters
                    .add(Counter::InvalidationStaleEpochRejected, 1);
                refuse(
                    RejectReason::StaleEpoch,
                    format!(
                        "stale epoch: checkpoint cut at epoch {}, catalog at epoch {epoch}",
                        cp.epoch
                    ),
                )
            }
            // The disjunct count is validated against the rebuilt plan
            // inside `decide`; a mismatch surfaces as
            // `ResumeState::Rejected` in the decide stage.
            Some(cp) if cp.fingerprint == fingerprint => ResumePoint {
                from: Some((cp.proven.clone(), cp.disjuncts_total)),
                rejected: None,
            },
            Some(cp) => refuse(
                RejectReason::FingerprintMismatch,
                format!(
                    "fingerprint mismatch: checkpoint {:#018x}, request {:#018x}",
                    cp.fingerprint, fingerprint
                ),
            ),
            // A store copy tagged with a foreign epoch (sweeps should
            // have retired or re-tagged it) is never trusted.
            None => match self.store.load(fingerprint) {
                Some(cp) if cp.epoch != epoch => {
                    self.counters
                        .add(Counter::InvalidationStaleEpochRejected, 1);
                    ResumePoint::default()
                }
                Some(cp) if !cp.proven.is_empty() => ResumePoint {
                    from: Some((cp.proven, cp.disjuncts_total)),
                    rejected: None,
                },
                _ => ResumePoint::default(),
            },
        }
    }

    /// Stage 3: the run's guard. Its work-unit grant is the request's own
    /// budget, or else the pool split over the `depth` requests queued
    /// behind it; the request's timeout and fault plan ride along.
    fn grant_guard(&self, req: &Request, depth: usize, trace: TraceId) -> Guard {
        let units = req.budget.unwrap_or_else(|| grant(self.pool, depth));
        let mut guard = Guard::unlimited().with_budget(units).with_trace(trace.0);
        if let Some(t) = req.timeout {
            guard = guard.with_timeout(t);
        }
        if let Some(f) = req.fault {
            guard = guard.with_fault(f);
        }
        guard
    }

    /// Stage 4: [`decide`] under `guard` on the sequential engine —
    /// service-level parallelism comes from workers, and sequential runs
    /// keep verdicts (and checkpoints) deterministic per request. A
    /// per-request recorder collects the stage breakdown, and an
    /// `Unknown` that got as far as its plan is cut into a checkpoint.
    fn decide_run(
        &self,
        snap: &CatalogSnapshot,
        req: &Request,
        fingerprint: u64,
        guard: &Guard,
        resume: ResumePoint,
        started: Instant,
    ) -> Run {
        let recorder = Arc::new(RequestRecorder::new(
            qc_obs::current(),
            Arc::clone(&self.hists),
        ));
        let installed = qc_obs::install(recorder.clone() as Arc<dyn qc_obs::Recorder>);
        let ResumePoint { from, rejected } = resume;
        let question = Question {
            resume: from.as_ref().map(|(proven, disjuncts_total)| Resume {
                proven,
                disjuncts_total: *disjuncts_total,
            }),
            ..Question::new(&req.q1, &req.ans1, &req.q2, &req.ans2)
        };
        let decision = engine::with_options(EngineOptions::sequential(), || {
            qc_guard::with_guard(guard, || {
                decide(&question, Sources::Catalog(snap.catalog()))
            })
        });
        drop(installed);

        let mut resumed = from.is_some();
        let mut checkpoint_rejected = rejected;
        let answer = match decision {
            Ok(decision) => {
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
                Ok(decision.verdict)
            }
            Err(e) => Err(e.to_string()),
        };
        let execute_ns = nanos(started.elapsed());
        let checkpoint = match &answer {
            // A run that tripped before its plan existed has no
            // per-disjunct progress to resume (`disjuncts_total: 0`).
            Ok(Verdict::Unknown(p)) if p.disjuncts_total > 0 => Some(Checkpoint {
                fingerprint,
                disjuncts_total: p.disjuncts_total,
                proven: p.disjuncts_proven.clone(),
                epoch: snap.epoch(),
                preds: req.pred_names().into_iter().collect(),
            }),
            _ => None,
        };
        Run {
            answer,
            cache_hit: false,
            resumed,
            consumed: guard.consumed(),
            checkpoint,
            checkpoint_rejected,
            execute_ns,
            stages: recorder.take_stages(),
        }
    }

    /// Stage 5: durability. Every checkpoint handed to a client is also
    /// written to the store at response time, so a crash between response
    /// and retry loses nothing. A definite verdict retires the
    /// fingerprint's journal entry — the progress is spent. An `Unknown`
    /// that produced no checkpoint (e.g. the budget tripped during plan
    /// construction) says nothing about the stored progress, and erasing
    /// it would lose durable work. The save runs under the request's guard
    /// so chaos harnesses can kill the process mid-append
    /// (`stage::JOURNAL`); budget/cancel trips inside the store are
    /// ignored there, journaling is never starved.
    fn persist(&self, guard: &Guard, fingerprint: u64, run: &Run) {
        if let Some(cp) = &run.checkpoint {
            let t0 = Instant::now();
            let receipt = qc_guard::with_guard(guard, || self.store.save(cp));
            self.hists
                .record(Hist::JournalAppendNs, nanos(t0.elapsed()));
            if receipt.appended {
                self.counters.add(Counter::JournalAppends, 1);
            }
            if receipt.compacted {
                self.counters.add(Counter::JournalCompactions, 1);
            }
        } else if run.definite().is_some() && self.store.retire(fingerprint) {
            self.counters.add(Counter::JournalRetired, 1);
        }
    }

    /// Stage 6: counts the run, records the latency of an answered run
    /// that executed (rejections and cache hits stay out of the
    /// distributions), and pushes the run's flight timeline.
    fn record(&self, trace: TraceId, queue_wait_ns: u64, run: &mut Run) {
        if run.cache_hit {
            self.counters.add(Counter::ServeVerdictCacheHits, 1);
        }
        // Counted after the run, so a shape-rejected checkpoint is a
        // rejection, not a resume.
        if run.resumed {
            self.counters.add(Counter::ServeResumed, 1);
        }
        if run.answer.is_ok() {
            if !run.cache_hit {
                self.hists.record(Hist::ServeQueueWaitNs, queue_wait_ns);
                self.hists.record(Hist::ServeExecuteNs, run.execute_ns);
                self.hists.record(
                    Hist::ServeE2eNs,
                    queue_wait_ns.saturating_add(run.execute_ns),
                );
            }
            self.counters.add(Counter::ServeCompleted, 1);
        }
        self.flight.push(run.timeline(trace, queue_wait_ns));
    }

    /// Stage 7: memoizes a plain request's definite verdict, keyed by its
    /// fingerprint and invalidated by its predicate footprint.
    fn memoize(&self, fingerprint: u64, req: &Request, run: &Run) {
        let Some(verdict) = run.definite() else {
            return;
        };
        let mut cache = self.verdicts_lock();
        while cache.len() >= VERDICT_CACHE_CAP {
            cache.pop_first();
        }
        cache.insert(
            fingerprint,
            CachedVerdict {
                verdict: verdict.clone(),
                preds: req.footprint(),
            },
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::journal::SaveReceipt;
    use crate::Health;
    use qc_datalog::parse_program;
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

    /// Example 1's `q1 ⊑_V q2`, which is contained.
    pub(crate) fn contained_request() -> Request {
        Request::new(q1_prog(), sym("q1"), q2_prog(), sym("q2"))
    }

    /// A [`MemoryStore`] that counts the core's calls into it.
    #[derive(Default)]
    struct CountingStore {
        inner: MemoryStore,
        loads: AtomicU64,
        saves: AtomicU64,
        retires: AtomicU64,
    }

    impl CountingStore {
        /// `(loads, saves, retires)` so far.
        fn calls(&self) -> (u64, u64, u64) {
            (
                self.loads.load(Ordering::Relaxed),
                self.saves.load(Ordering::Relaxed),
                self.retires.load(Ordering::Relaxed),
            )
        }
    }

    impl CheckpointStore for CountingStore {
        fn generation(&self) -> u64 {
            self.inner.generation()
        }

        fn save(&self, cp: &Checkpoint) -> SaveReceipt {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.inner.save(cp)
        }

        fn load(&self, fingerprint: u64) -> Option<Checkpoint> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.inner.load(fingerprint)
        }

        fn retire(&self, fingerprint: u64) -> bool {
            self.retires.fetch_add(1, Ordering::Relaxed);
            self.inner.retire(fingerprint)
        }

        fn live(&self) -> usize {
            self.inner.live()
        }
    }

    /// The verdict cache is the first stage: a miss reads the store once
    /// (the resume lookup) and retires the fingerprint once (the definite
    /// verdict spent it); a hit touches the store not at all.
    #[test]
    fn verdict_cache_hits_skip_the_store() {
        let store = Arc::new(CountingStore::default());
        let core = ServeCore::with_store(example1_sources(), ServeConfig::default(), store.clone());
        let miss = core.handle(&contained_request(), 0).unwrap();
        assert_eq!(miss.verdict, Verdict::Contained);
        assert_eq!(store.calls(), (1, 0, 1), "a miss: one load, one retire");
        for _ in 0..3 {
            let hit = core.handle(&contained_request(), 0).unwrap();
            assert_eq!(hit.verdict, Verdict::Contained);
            assert_eq!(hit.consumed, 0, "a hit runs nothing");
        }
        assert_eq!(core.stats().verdict_cache_hits, 3);
        assert_eq!(store.calls(), (1, 0, 1), "hits read and write nothing");
    }

    #[test]
    fn grant_divides_the_pool_by_depth_and_floors() {
        assert_eq!(
            grant(1 << 20, 0),
            1 << 20,
            "an idle service grants the pool"
        );
        assert_eq!(grant(1 << 20, 3), 1 << 18);
        assert_eq!(grant(20_000, 9), MIN_GRANT, "floored");
        assert_eq!(grant(0, 0), MIN_GRANT);
    }

    #[test]
    fn core_decides_contained() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        let resp = core.handle(&contained_request(), 0).unwrap();
        assert_eq!(resp.verdict, Verdict::Contained);
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
            epoch: core.epoch(),
            preds: req.pred_names().into_iter().collect(),
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
            epoch: core.epoch(),
            preds: req.pred_names().into_iter().collect(),
        });
        let resp = core.handle(&stale, 0).unwrap();
        assert_eq!(resp.verdict, Verdict::Contained, "recomputed from scratch");
        assert!(!resp.resumed, "shape mismatch must not count as resumed");
        let rejected = resp.checkpoint_rejected.expect("typed rejection");
        assert_eq!(rejected.kind, RejectReason::PlanShapeMismatch);
        assert!(rejected.reason.contains("99"), "{rejected}");
        assert_eq!(core.stats().checkpoint_rejected, 1);
    }

    /// Starved runs leave nothing behind that shrinks a later grant: a
    /// plain run after them spends what it spends on a fresh core.
    #[test]
    fn starved_runs_do_not_change_a_later_plain_run() {
        let core = ServeCore::new(example1_sources(), ServeConfig::default());
        let mut starved = contained_request();
        starved.budget = Some(1);
        for _ in 0..5 {
            let r = core.handle(&starved, 0).unwrap();
            assert!(matches!(r.verdict, Verdict::Unknown(_)));
            assert!(r.checkpoint.is_none(), "budget 1 trips before the plan");
        }
        assert_eq!(core.stats().health, Health::Healthy);
        let plain = core.handle(&contained_request(), 0).unwrap();
        let fresh = ServeCore::new(example1_sources(), ServeConfig::default())
            .handle(&contained_request(), 0)
            .unwrap();
        assert_eq!(plain.verdict, Verdict::Contained);
        assert_eq!(plain.verdict, fresh.verdict);
        assert_eq!(plain.consumed, fresh.consumed);
    }

    /// Theorem 5.1's plan for a semi-interval chain of 28 subgoals answers
    /// within its request's timeout.
    #[test]
    fn semi_interval_chain_answers_within_its_timeout() {
        let n = 28;
        let body = (0..n)
            .map(|i| format!("r(X{i}, X{})", i + 1))
            .collect::<Vec<_>>()
            .join(", ");
        let views = LavSetting::parse(&["v(A, B) :- r(A, B)."]).unwrap();
        let q1 = parse_program(&format!("q(X0, X{n}) :- {body}, X0 < 3.")).unwrap();
        let q2 = parse_program(&format!("q(X0, X{n}) :- {body}, X0 < 2.")).unwrap();
        let core = ServeCore::new(views, ServeConfig::default());
        let mut req = Request::new(q1, sym("q"), q2, sym("q"));
        req.timeout = Some(Duration::from_millis(50));
        let started = Instant::now();
        let resp = core.handle(&req, 0).unwrap();
        let elapsed = started.elapsed();
        assert!(
            matches!(resp.verdict, Verdict::NotContained | Verdict::Unknown(_)),
            "{:?}",
            resp.verdict
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "took {elapsed:?} under a 50 ms timeout"
        );
    }

    /// A plan with 4^9 disjuncts (a 9-atom chain over four copies of one
    /// view) stops at the request's timeout while it is being unfolded,
    /// as an Unknown, not as a rejection.
    #[test]
    fn unfolding_answers_within_its_timeout() {
        let n = 9;
        let body = (0..n)
            .map(|i| format!("r(X{i}, X{})", i + 1))
            .collect::<Vec<_>>()
            .join(", ");
        let views = LavSetting::parse(&[
            "v1(A, B) :- r(A, B).",
            "v2(A, B) :- r(A, B).",
            "v3(A, B) :- r(A, B).",
            "v4(A, B) :- r(A, B).",
            "w(A) :- s(A).",
        ])
        .unwrap();
        let q1 = parse_program(&format!("q(X0, X{n}) :- {body}.")).unwrap();
        let q2 = parse_program(&format!("q(X0, X{n}) :- {body}, s(X0).")).unwrap();
        let core = ServeCore::new(views, ServeConfig::default());
        let mut req = Request::new(q1, sym("q"), q2, sym("q"));
        req.timeout = Some(Duration::from_millis(100));
        let started = Instant::now();
        let resp = core.handle(&req, 0).unwrap();
        let elapsed = started.elapsed();
        match &resp.verdict {
            Verdict::Unknown(p) => assert_eq!(p.resource.stage, qc_guard::stage::UNFOLD),
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(1),
            "took {elapsed:?} under a 100 ms timeout"
        );
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
