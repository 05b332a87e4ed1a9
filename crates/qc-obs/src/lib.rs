//! `qc-obs` — observability substrate for the relative-containment engine.
//!
//! Every decision procedure in the engine is a multi-stage pipeline
//! (maximally-contained plan construction, function-term elimination,
//! expansion, and the final Π₂ᵖ containment check), and this crate provides
//! the measurement plumbing those stages report into:
//!
//! * [`Counter`] / [`Counters`] — a fixed vocabulary of relaxed atomic
//!   counters, one per paper construct worth measuring (fixpoint iterations,
//!   homomorphism search nodes, inverse rules generated, …);
//! * [`Recorder`] — the sink trait. The default state is *no recorder
//!   installed*, in which case [`count`] and [`span`] are a thread-local read
//!   and a branch — cheap enough to leave instrumentation on in benches;
//! * [`span`] — RAII timing of a named stage, with parent/child nesting;
//! * [`PipelineRecorder`] — the standard sink: accumulates counters and a
//!   span tree, and renders a [`PipelineReport`];
//! * [`PipelineReport`] — a serializable (JSON via the workspace `serde`)
//!   tree of stages, each carrying its duration and the counter deltas that
//!   occurred while it was open (inclusive of its children).
//!
//! # Usage
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(qc_obs::PipelineRecorder::new());
//! {
//!     let _install = qc_obs::install(rec.clone());
//!     let _stage = qc_obs::span("plan_construction");
//!     qc_obs::count(qc_obs::Counter::InverseRulesGenerated, 3);
//! }
//! let report = rec.report("pipeline");
//! assert_eq!(report.children[0].counter(qc_obs::Counter::InverseRulesGenerated), 3);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod fx;
pub mod hist;

pub use hist::{prometheus_text, Hist, Histogram, HistogramSnapshot, Histograms};

// ---------------------------------------------------------------------------
// Counter vocabulary
// ---------------------------------------------------------------------------

macro_rules! counters {
    ($($(#[doc = $doc:expr])* $variant:ident => $name:literal,)+) => {
        /// The fixed vocabulary of pipeline counters.
        ///
        /// Each variant measures one construct of the paper's procedures; see
        /// DESIGN.md §Observability for the full mapping.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[doc = $doc])* $variant,)+
        }

        impl Counter {
            /// Number of counters.
            pub const COUNT: usize = [$(Counter::$variant),+].len();

            /// Every counter, in declaration order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),+];

            /// Stable snake_case name (used as the JSON key).
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }

            /// Inverse of [`Counter::name`].
            pub fn from_name(name: &str) -> Option<Counter> {
                match name {
                    $($name => Some(Counter::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

counters! {
    /// Naive/semi-naive evaluation rounds until fixpoint.
    EvalRounds => "eval_rounds",
    /// Tuples that entered a delta across all rounds.
    EvalDeltaTuples => "eval_delta_tuples",
    /// Rule-body matches that emitted a (possibly duplicate) head fact.
    EvalRuleFirings => "eval_rule_firings",
    /// Distinct facts added to the database during evaluation.
    EvalDerivedFacts => "eval_derived_facts",
    /// Nodes visited in the containment-mapping (homomorphism) search.
    HomSearchNodes => "hom_search_nodes",
    /// Complete containment mappings found.
    HomMappingsFound => "hom_mappings_found",
    /// Candidate target subgoals rejected before recursing.
    HomCandidatesPruned => "hom_candidates_pruned",
    /// Goal lookups answered from the `(pred, arity)` target buckets.
    HomBucketHits => "hom_bucket_hits",
    /// Homomorphism searches rejected by the pre-filter before any search.
    HomPrefilterRejects => "hom_prefilter_rejects",
    /// Candidate tuples enumerated through a per-position `rows_with`
    /// index probe during rule-body matching.
    EvalIndexProbes => "eval_index_probes",
    /// Candidate tuples enumerated by falling back to a full relation
    /// scan during rule-body matching ("full-scan probes").
    EvalFullScans => "eval_full_scans",
    /// CQ⊑CQ verdicts answered from the canonical containment memo.
    MemoHits => "memo_hits",
    /// CQ⊑CQ verdicts computed and inserted into the containment memo.
    MemoMisses => "memo_misses",
    /// Iterations of the Chaudhuri–Vardi type fixpoint (datalog ⊆ UCQ).
    FixpointIterations => "fixpoint_iterations",
    /// Type-table entries recorded by the fixpoint.
    FixpointTypesRecorded => "fixpoint_types_recorded",
    /// Type-composition calls made by the fixpoint.
    FixpointComposeCalls => "fixpoint_compose_calls",
    /// Type compositions answered from cache.
    FixpointComposeCacheHits => "fixpoint_compose_cache_hits",
    /// Inverse rules generated from view definitions.
    InverseRulesGenerated => "inverse_rules_generated",
    /// MiniCon descriptions (MCDs) formed by the reference rewriting
    /// (`qc_mediator::minicon`, no production caller).
    MiniconMcdsFormed => "minicon_mcds_formed",
    /// Rules emitted by function-term elimination (shape specialization).
    FnElimRulesEmitted => "fn_elim_rules_emitted",
    /// Skolem function terms eliminated by specialization.
    FnElimSkolemsEliminated => "fn_elim_skolems_eliminated",
    /// Constraint-set satisfiability checks.
    ConstraintSatChecks => "constraint_sat_checks",
    /// Constraint entailment checks.
    ConstraintEntailmentChecks => "constraint_entailment_checks",
    /// Constraint-set closure operations (transitive-closure passes).
    ConstraintClosureOps => "constraint_closure_ops",
    /// Disjuncts in constructed maximally-contained plans.
    PlanDisjuncts => "plan_disjuncts",
    /// Tuples materialized into canonical databases.
    CanonicalDbTuples => "canonical_db_tuples",
    /// Rules produced by expansion (P ↦ P^exp).
    ExpansionRules => "expansion_rules",
    /// Requests admitted into the serve queue.
    ServeAdmitted => "serve_admitted",
    /// Requests shed because the admission queue was full.
    ServeShed => "serve_shed",
    /// Requests that ran to a verdict (definite or Unknown).
    ServeCompleted => "serve_completed",
    /// Requests resumed from a checkpoint instead of restarting.
    ServeResumed => "serve_resumed",
    /// Worker threads restarted after a panic.
    ServeWorkerRestarts => "serve_worker_restarts",
    /// Retired: counted steps down the service's degradation ladder,
    /// which is gone. Nothing increments it any more; it stays only
    /// because the relbench report and serve_distinct's guard name it.
    ServeTierDowngrades => "serve_tier_downgrades",
    /// Requests that attached as waiters to a structurally-identical
    /// in-flight computation instead of running their own.
    ServeCoalescedHits => "serve_coalesced_hits",
    /// Request checkpoints refused (fingerprint or plan-shape mismatch)
    /// and therefore recomputed from scratch.
    ServeCheckpointRejected => "serve_checkpoint_rejected",
    /// Checkpoint records appended to the journal (durable or in-memory).
    JournalAppends => "journal_appends",
    /// Checkpoint records dropped from the journal after a definite
    /// verdict retired their fingerprint.
    JournalRetired => "journal_retired",
    /// Valid checkpoint records replayed from a journal at startup.
    JournalReplayed => "journal_replayed",
    /// Journal replays that truncated a torn tail (a partially-written
    /// final record, e.g. from a crash mid-append).
    JournalTornTruncations => "journal_torn_truncations",
    /// Corrupt journal records (framing/CRC/parse failures before the
    /// tail) discarded along with everything after them.
    JournalCorruptRecords => "journal_corrupt_records",
    /// Journals abandoned wholesale at replay (unsupported format
    /// version); the store restarts empty with a logged reason.
    JournalResets => "journal_resets",
    /// Size-triggered journal compactions (live fingerprints rewritten).
    JournalCompactions => "journal_compactions",
    /// Containment-mapping searches of at most 4 096 subgoal pairs, which
    /// run on the direct (linear-scan) kernel.
    EngineTierDirect => "engine_tier_direct",
    /// Containment-mapping searches of more than 4 096 subgoal pairs,
    /// which run on the bucketed kernel.
    EngineTierOptimized => "engine_tier_optimized",
    /// Fixpoints run on the batch relational-algebra engine.
    EvalTierRa => "eval_tier_ra",
    /// Fixpoints run on the tuple-at-a-time kernel.
    EvalTierTuple => "eval_tier_tuple",
    /// Rule plan variants compiled by the RA engine (one per rule plus one
    /// per rule × semi-naive delta focus).
    RaRulesCompiled => "ra_rules_compiled",
    /// Join probes against magic (demand) relations that found no binding —
    /// candidate derivations the magic-sets rewrite pruned before they
    /// produced tuples.
    RaMagicPrunedTuples => "ra_magic_pruned_tuples",
    /// Catalog epoch advances (one per applied `CatalogDelta` plus any
    /// replay-time bump after a catalog/journal mismatch).
    CatalogEpochBumps => "catalog_epoch_bumps",
    /// Views whose inverse rules were recompiled by a catalog delta (the
    /// touched set).
    CatalogEpochViewsRecompiled => "catalog_epoch_views_recompiled",
    /// Views a catalog delta left untouched (compiled artifacts reused
    /// verbatim — the delta-maintenance win).
    CatalogEpochViewsReused => "catalog_epoch_views_reused",
    /// Memoized definite verdicts dropped because a catalog delta touched
    /// a predicate their request depends on.
    InvalidationVerdictsDropped => "invalidation_verdicts_dropped",
    /// Cached/journaled checkpoints retired because a catalog delta
    /// touched a predicate their request depends on (or their dependency
    /// set was unknown).
    InvalidationCheckpointsDropped => "invalidation_checkpoints_dropped",
    /// Checkpoints refused or swept because they were cut under a catalog
    /// epoch other than the current one.
    InvalidationStaleEpochRejected => "invalidation_stale_epoch_rejected",
    /// Requests answered from the serve core's memoized definite-verdict
    /// cache without re-running the decision procedure.
    ServeVerdictCacheHits => "serve_verdict_cache_hits",
    /// Plan disjuncts freshly proven contained (checkpoint-skipped
    /// disjuncts are not counted — the re-proof work measure).
    PlanDisjunctsProved => "plan_disjuncts_proved",
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A bank of relaxed atomic counters, one slot per [`Counter`].
///
/// All operations use `Ordering::Relaxed`: totals are exact because every
/// update is an atomic RMW, only cross-counter ordering is unspecified —
/// fine for metrics.
#[derive(Debug)]
pub struct Counters {
    slots: [AtomicU64; Counter::COUNT],
}

// Derived `Default` relies on the stdlib's array impls, which stop at 32
// elements; build the slot array explicitly instead.
impl Default for Counters {
    fn default() -> Counters {
        Counters {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Counters {
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.slots[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of all counters, indexed by `Counter as usize`.
    pub fn snapshot(&self) -> [u64; Counter::COUNT] {
        std::array::from_fn(|i| self.slots[i].load(Ordering::Relaxed))
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for slot in &self.slots {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Nonzero counters as a name → value map.
    pub fn nonzero(&self) -> BTreeMap<String, u64> {
        let snap = self.snapshot();
        Counter::ALL
            .iter()
            .filter(|c| snap[**c as usize] != 0)
            .map(|c| (c.name().to_string(), snap[*c as usize]))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// A sink for instrumentation events.
///
/// All methods default to no-ops so sinks can implement only what they need.
pub trait Recorder: Send + Sync {
    /// `n` occurrences of `c`.
    fn count(&self, _c: Counter, _n: u64) {}

    /// A named stage opened.
    fn span_enter(&self, _name: &'static str) {}

    /// The most recently opened stage closed.
    fn span_exit(&self, _name: &'static str) {}

    /// A latency sample of `ns` nanoseconds for histogram `h`.
    fn record_hist(&self, _h: Hist, _ns: u64) {}

    /// Merges a whole histogram bank into this sink (no-op for sinks that
    /// keep no distributions). Used to fold a subsystem's private bank —
    /// e.g. the serve core's — into the session recorder.
    fn absorb_hists(&self, _other: &Histograms) {}
}

/// The do-nothing sink. Installing it is equivalent to (but slightly more
/// expensive than) installing nothing; it exists for tests and defaults.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

thread_local! {
    static RECORDER: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// Installs `rec` as this thread's recorder until the guard drops; the
/// previous recorder (if any) is restored.
#[must_use = "the recorder is uninstalled when the guard drops"]
pub fn install(rec: Arc<dyn Recorder>) -> InstallGuard {
    let previous = RECORDER.with(|r| r.borrow_mut().replace(rec));
    InstallGuard {
        previous,
        _not_send: std::marker::PhantomData,
    }
}

/// Uninstalls the recorder installed by [`install`] on drop.
pub struct InstallGuard {
    previous: Option<Arc<dyn Recorder>>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        RECORDER.with(|r| *r.borrow_mut() = previous);
    }
}

/// Whether a recorder is installed on this thread.
pub fn is_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// A handle to this thread's installed recorder, if any.
///
/// Lets wrapper sinks (e.g. a per-request recorder) chain events to the
/// recorder that was active before they were installed.
pub fn current() -> Option<Arc<dyn Recorder>> {
    RECORDER.with(|r| r.borrow().clone())
}

/// Records `n` occurrences of `c` on the installed recorder, if any.
///
/// Without a recorder this is a thread-local read and a branch.
#[inline]
pub fn count(c: Counter, n: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            rec.count(c, n);
        }
    });
}

/// Opens a named stage; the returned guard closes it on drop.
///
/// Stages nest: spans opened while another span guard is alive become its
/// children in the [`PipelineReport`] tree.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    let active = RECORDER.with(|r| match r.borrow().as_ref() {
        Some(rec) => {
            rec.span_enter(name);
            true
        }
        None => false,
    });
    SpanGuard {
        name,
        active,
        _not_send: std::marker::PhantomData,
    }
}

/// Records one latency sample into histogram `h` on the installed
/// recorder, if any.
///
/// Without a recorder this is a thread-local read and a branch.
#[inline]
pub fn record_hist(h: Hist, ns: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            rec.record_hist(h, ns);
        }
    });
}

/// Starts timing a stage for histogram `h`; the elapsed nanoseconds are
/// recorded when the guard drops.
///
/// Without a recorder installed no clock is read at all — the guard is
/// inert, so leaving `time` calls in hot paths costs a thread-local read
/// and a branch, same as [`count`].
#[must_use = "the sample is recorded when the guard drops"]
pub fn time(h: Hist) -> HistTimer {
    HistTimer {
        h,
        started: is_active().then(Instant::now),
        _not_send: std::marker::PhantomData,
    }
}

/// RAII guard for [`time`]: records the elapsed time on drop.
pub struct HistTimer {
    h: Hist,
    started: Option<Instant>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_hist(self.h, ns);
        }
    }
}

/// RAII guard for a [`span`].
pub struct SpanGuard {
    name: &'static str,
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            RECORDER.with(|r| {
                if let Some(rec) = r.borrow().as_ref() {
                    rec.span_exit(self.name);
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// PipelineRecorder
// ---------------------------------------------------------------------------

/// The standard sink: accumulates a counter bank and a span tree, and
/// renders both as a [`PipelineReport`].
///
/// Counter updates are lock-free (relaxed atomics); span transitions take a
/// mutex, which is uncontended in the single-threaded pipelines the engine
/// runs today.
#[derive(Debug)]
pub struct PipelineRecorder {
    counters: Counters,
    hists: Histograms,
    state: Mutex<TreeState>,
}

#[derive(Debug)]
struct TreeState {
    started: Instant,
    stack: Vec<Frame>,
    roots: Vec<PipelineReport>,
}

#[derive(Debug)]
struct Frame {
    name: &'static str,
    started: Instant,
    enter_snapshot: [u64; Counter::COUNT],
    children: Vec<PipelineReport>,
}

impl Default for PipelineRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineRecorder {
    pub fn new() -> PipelineRecorder {
        PipelineRecorder {
            counters: Counters::new(),
            hists: Histograms::new(),
            state: Mutex::new(TreeState {
                started: Instant::now(),
                stack: Vec::new(),
                roots: Vec::new(),
            }),
        }
    }

    /// Direct access to the counter bank.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Direct access to the histogram bank. Stage histograms fill in from
    /// span durations ([`Hist::from_stage`]) and explicit [`time`] guards.
    pub fn histograms(&self) -> &Histograms {
        &self.hists
    }

    /// Assembles the report collected so far under a root named `name`.
    ///
    /// The root's duration is the recorder's lifetime, its counters are the
    /// bank totals, and its children are the completed top-level spans.
    /// Unclosed spans are ignored.
    pub fn report(&self, name: impl Into<String>) -> PipelineReport {
        let state = self.state.lock().expect("qc-obs recorder poisoned");
        PipelineReport {
            name: name.into(),
            duration_ns: u64::try_from(state.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            counters: self.counters.nonzero(),
            children: state.roots.clone(),
        }
    }

    /// Clears the span tree and zeroes every counter and histogram.
    pub fn reset(&self) {
        let mut state = self.state.lock().expect("qc-obs recorder poisoned");
        state.started = Instant::now();
        state.stack.clear();
        state.roots.clear();
        self.counters.reset();
        self.hists.reset();
    }
}

impl Recorder for PipelineRecorder {
    fn count(&self, c: Counter, n: u64) {
        self.counters.add(c, n);
    }

    fn record_hist(&self, h: Hist, ns: u64) {
        self.hists.record(h, ns);
    }

    fn absorb_hists(&self, other: &Histograms) {
        self.hists.merge_from(other);
    }

    fn span_enter(&self, name: &'static str) {
        let frame = Frame {
            name,
            started: Instant::now(),
            enter_snapshot: self.counters.snapshot(),
            children: Vec::new(),
        };
        self.state
            .lock()
            .expect("qc-obs recorder poisoned")
            .stack
            .push(frame);
    }

    fn span_exit(&self, name: &'static str) {
        let exit_snapshot = self.counters.snapshot();
        let mut state = self.state.lock().expect("qc-obs recorder poisoned");
        let Some(frame) = state.stack.pop() else {
            return; // Unbalanced exit: tolerated.
        };
        debug_assert_eq!(frame.name, name, "span exit out of order");
        let mut counters = BTreeMap::new();
        for c in Counter::ALL {
            let delta = exit_snapshot[c as usize] - frame.enter_snapshot[c as usize];
            if delta != 0 {
                counters.insert(c.name().to_string(), delta);
            }
        }
        let duration_ns = u64::try_from(frame.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(h) = Hist::from_stage(name) {
            self.hists.record(h, duration_ns);
        }
        let report = PipelineReport {
            name: frame.name.to_string(),
            duration_ns,
            counters,
            children: frame.children,
        };
        match state.stack.last_mut() {
            Some(parent) => parent.children.push(report),
            None => state.roots.push(report),
        }
    }
}

// ---------------------------------------------------------------------------
// PipelineReport
// ---------------------------------------------------------------------------

/// A serializable tree of pipeline stages.
///
/// Each node carries its wall-clock duration and the counter deltas observed
/// while it was open — *inclusive* of its children, so a parent's counter is
/// always ≥ the sum of its children's.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineReport {
    /// Stage name (e.g. `plan_construction`).
    pub name: String,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Nonzero counter deltas, keyed by [`Counter::name`].
    pub counters: BTreeMap<String, u64>,
    /// Sub-stages, in completion order.
    pub children: Vec<PipelineReport>,
}

impl PipelineReport {
    /// An empty report with the given name.
    pub fn empty(name: impl Into<String>) -> PipelineReport {
        PipelineReport {
            name: name.into(),
            duration_ns: 0,
            counters: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// This node's value for `c` (zero when absent).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// Finds the first descendant (depth-first, self included) named `name`.
    pub fn find(&self, name: &str) -> Option<&PipelineReport> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PipelineReport::node_count)
            .sum::<usize>()
    }

    /// Accumulates `other` into `self`: durations and counters are summed
    /// and children are merged by name (recursively). Used by the bench
    /// harness to aggregate per-round reports.
    pub fn absorb(&mut self, other: &PipelineReport) {
        self.duration_ns += other.duration_ns;
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for child in &other.children {
            match self.children.iter_mut().find(|c| c.name == child.name) {
                Some(mine) => mine.absorb(child),
                None => self.children.push(child.clone()),
            }
        }
    }

    /// Renders the tree in a human-readable indented form, durations
    /// right-aligned, counters inline.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", true, true);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, is_last: bool, is_root: bool) {
        let (branch, child_prefix) = if is_root {
            (String::new(), String::new())
        } else if is_last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let _ = write!(
            out,
            "{branch}{} [{}]",
            self.name,
            format_ns(self.duration_ns)
        );
        if !self.counters.is_empty() {
            let items: Vec<String> = self
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = write!(out, " {}", items.join(" "));
        }
        out.push('\n');
        let n = self.children.len();
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_prefix, i + 1 == n, false);
        }
    }
}

/// Formats a nanosecond count at a human scale.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = Counters::new();
        c.add(Counter::EvalRounds, 2);
        c.add(Counter::EvalRounds, 3);
        c.add(Counter::HomSearchNodes, 7);
        assert_eq!(c.get(Counter::EvalRounds), 5);
        assert_eq!(c.get(Counter::HomSearchNodes), 7);
        assert_eq!(c.get(Counter::PlanDisjuncts), 0);
        let nz = c.nonzero();
        assert_eq!(nz.len(), 2);
        assert_eq!(nz["eval_rounds"], 5);
        c.reset();
        assert_eq!(c.get(Counter::EvalRounds), 0);
    }

    #[test]
    fn counter_names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("no_such_counter"), None);
    }

    #[test]
    fn uninstalled_count_and_span_are_noops() {
        assert!(!is_active());
        count(Counter::EvalRounds, 1); // must not panic or record anywhere
        let g = span("orphan");
        drop(g);
        assert!(!is_active());
    }

    #[test]
    fn span_tree_nests_and_attributes_counters() {
        let rec = Arc::new(PipelineRecorder::new());
        {
            let _g = install(rec.clone());
            let _outer = span("outer");
            count(Counter::InverseRulesGenerated, 3);
            {
                let _inner = span("inner");
                count(Counter::FnElimRulesEmitted, 4);
            }
            count(Counter::InverseRulesGenerated, 1);
        }
        let report = rec.report("root");
        assert_eq!(report.children.len(), 1);
        let outer = &report.children[0];
        assert_eq!(outer.name, "outer");
        // Inclusive: outer saw both its own counts and inner's.
        assert_eq!(outer.counter(Counter::InverseRulesGenerated), 4);
        assert_eq!(outer.counter(Counter::FnElimRulesEmitted), 4);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.counter(Counter::FnElimRulesEmitted), 4);
        assert_eq!(inner.counter(Counter::InverseRulesGenerated), 0);
        // Lookup helpers.
        assert!(report.find("inner").is_some());
        assert_eq!(report.node_count(), 3);
    }

    #[test]
    fn install_guard_restores_previous_recorder() {
        let a = Arc::new(PipelineRecorder::new());
        let b = Arc::new(PipelineRecorder::new());
        let _ga = install(a.clone());
        {
            let _gb = install(b.clone());
            count(Counter::EvalRounds, 1);
        }
        count(Counter::EvalRounds, 10);
        assert_eq!(b.counters().get(Counter::EvalRounds), 1);
        assert_eq!(a.counters().get(Counter::EvalRounds), 10);
    }

    #[test]
    fn absorb_merges_by_name() {
        let mut a = PipelineReport::empty("round");
        a.duration_ns = 5;
        a.counters.insert("eval_rounds".into(), 2);
        a.children.push(PipelineReport::empty("stage"));
        let mut b = PipelineReport::empty("round");
        b.duration_ns = 7;
        b.counters.insert("eval_rounds".into(), 3);
        b.children.push(PipelineReport::empty("stage"));
        b.children.push(PipelineReport::empty("other"));
        a.absorb(&b);
        assert_eq!(a.duration_ns, 12);
        assert_eq!(a.counters["eval_rounds"], 5);
        assert_eq!(a.children.len(), 2);
    }

    #[test]
    fn render_tree_is_indented() {
        let mut root = PipelineReport::empty("root");
        let mut child = PipelineReport::empty("child");
        child.counters.insert("eval_rounds".into(), 2);
        root.children.push(child);
        root.children.push(PipelineReport::empty("tail"));
        let s = root.render_tree();
        assert!(s.contains("root"));
        assert!(s.contains("├─ child"), "{s}");
        assert!(s.contains("eval_rounds=2"), "{s}");
        assert!(s.contains("└─ tail"), "{s}");
    }
}
