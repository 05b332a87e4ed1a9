//! Stats: the point-in-time [`ServeStats`] digest, its latency
//! summaries, derived [`Health`], and the [`CounterSink`] worker threads
//! fold engine counters through.

use std::sync::Arc;

use qc_obs::{Counter, Counters, Hist};

use crate::flight::fmt_ns;
use crate::ServeCore;

/// Coarse service health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Admitting and serving.
    Healthy,
    /// No longer admitting; queued work is being finished.
    Draining,
}

impl Health {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Draining => "draining",
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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

/// A point-in-time view of the service's counters.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Derived health (see [`Health`]).
    pub health: Health,
    /// Requests waiting in the admission queue (0 for a bare core).
    pub queue_len: usize,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests that ran to a verdict.
    pub completed: u64,
    /// Requests resumed from a checkpoint.
    pub resumed: u64,
    /// Worker panics recovered by supervision.
    pub worker_restarts: u64,
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
    /// Queue-wait latency distribution.
    pub queue_wait: LatencySummary,
    /// Execute latency distribution.
    pub execute: LatencySummary,
    /// End-to-end latency distribution.
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
            fmt_ns(self.p50_ns),
            fmt_ns(self.p90_ns),
            fmt_ns(self.p99_ns),
            fmt_ns(self.p999_ns),
        )
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "health: {}", self.health)?;
        writeln!(f, "queue: {} waiting", self.queue_len)?;
        writeln!(
            f,
            "requests: {} admitted, {} shed, {} completed, {} resumed; {} worker restarts",
            self.admitted, self.shed, self.completed, self.resumed, self.worker_restarts
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

impl ServeCore {
    /// Stats snapshot (queue length 0 — a bare core has no queue).
    pub fn stats(&self) -> ServeStats {
        let c = |ctr| self.counters().get(ctr);
        let hists = self.histograms();
        ServeStats {
            health: Health::Healthy,
            queue_len: 0,
            admitted: c(Counter::ServeAdmitted),
            shed: c(Counter::ServeShed),
            completed: c(Counter::ServeCompleted),
            resumed: c(Counter::ServeResumed),
            worker_restarts: c(Counter::ServeWorkerRestarts),
            coalesced_hits: c(Counter::ServeCoalescedHits),
            checkpoint_rejected: c(Counter::ServeCheckpointRejected),
            journal_appends: c(Counter::JournalAppends),
            journal_live: self.store().live(),
            generation: self.generation(),
            epoch: self.epoch(),
            epoch_bumps: c(Counter::CatalogEpochBumps),
            verdict_cache_hits: c(Counter::ServeVerdictCacheHits),
            queue_wait: LatencySummary::of(hists.get(Hist::ServeQueueWaitNs)),
            execute: LatencySummary::of(hists.get(Hist::ServeExecuteNs)),
            e2e: LatencySummary::of(hists.get(Hist::ServeE2eNs)),
        }
    }
}
