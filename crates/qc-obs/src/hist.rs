//! Latency histograms: fixed-size log2-bucketed distributions with a
//! [`Histograms`] registry mirroring the [`Counters`]
//! design.
//!
//! A [`Histogram`] has 65 buckets: bucket `i` holds every value whose bit
//! length is `i` (so bucket 0 is exactly `{0}`, bucket 1 is `{1}`, bucket 2
//! is `{2, 3}`, …, bucket 64 covers the top half of the `u64` range). All
//! state is relaxed atomics, so one bank can be recorded into from many
//! worker threads and merged with another bank without locks. Quantiles are
//! answered from the cumulative bucket walk and report the bucket's upper
//! bound — an overestimate by at most 2×, which is the usual trade for a
//! fixed-footprint mergeable histogram.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize as _;

use crate::Counters;

// ---------------------------------------------------------------------------
// Histogram vocabulary
// ---------------------------------------------------------------------------

macro_rules! hists {
    ($($(#[doc = $doc:expr])* $variant:ident => $name:literal,)+) => {
        /// The fixed vocabulary of latency histograms.
        ///
        /// Stage histograms measure one pipeline stage each (fed from the
        /// matching span or an explicit [`time`](crate::time) guard); the
        /// `Serve*` family measures the qc-serve request lifecycle per
        /// degradation-ladder tier.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum Hist {
            $($(#[doc = $doc])* $variant,)+
        }

        impl Hist {
            /// Number of histograms.
            pub const COUNT: usize = [$(Hist::$variant),+].len();

            /// Every histogram, in declaration order.
            pub const ALL: [Hist; Hist::COUNT] = [$(Hist::$variant),+];

            /// Stable snake_case name (used as the JSON key).
            pub const fn name(self) -> &'static str {
                match self {
                    $(Hist::$variant => $name,)+
                }
            }

            /// Inverse of [`Hist::name`].
            pub fn from_name(name: &str) -> Option<Hist> {
                match name {
                    $($name => Some(Hist::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

hists! {
    /// Datalog evaluation to fixpoint (per `evaluate` call).
    EvalNs => "eval_ns",
    /// Containment-mapping (homomorphism) search, per enumeration.
    HomSearchNs => "hom_search_ns",
    /// Chaudhuri–Vardi type fixpoint (datalog ⊆ UCQ), per run.
    FixpointNs => "fixpoint_ns",
    /// Constraint-set transitive-closure construction, per pass.
    ClosureNs => "closure_ns",
    /// MiniCon rewriting (MCD formation + combination), per query.
    MiniconNs => "minicon_ns",
    /// Function-term elimination, per plan.
    FnElimNs => "fn_elim_ns",
    /// Plan expansion (P ↦ P^exp), per plan.
    ExpansionNs => "expansion_ns",
    /// Final containment check (expansion vs. query), per check.
    ContainmentCheckNs => "containment_check_ns",
    /// Maximally-contained plan construction, per request.
    PlanConstructionNs => "plan_construction_ns",
    /// Queue wait before a worker picked the job up, Full tier.
    ServeQueueWaitFullNs => "serve_queue_wait_full_ns",
    /// Queue wait before a worker picked the job up, Bounded tier.
    ServeQueueWaitBoundedNs => "serve_queue_wait_bounded_ns",
    /// Queue wait before a worker picked the job up, MiniconOnly tier.
    ServeQueueWaitMiniconNs => "serve_queue_wait_minicon_ns",
    /// Engine execution time (admission to verdict), Full tier.
    ServeExecuteFullNs => "serve_execute_full_ns",
    /// Engine execution time (admission to verdict), Bounded tier.
    ServeExecuteBoundedNs => "serve_execute_bounded_ns",
    /// Engine execution time (admission to verdict), MiniconOnly tier.
    ServeExecuteMiniconNs => "serve_execute_minicon_ns",
    /// End-to-end latency (enqueue to reply), Full tier.
    ServeE2eFullNs => "serve_e2e_full_ns",
    /// End-to-end latency (enqueue to reply), Bounded tier.
    ServeE2eBoundedNs => "serve_e2e_bounded_ns",
    /// End-to-end latency (enqueue to reply), MiniconOnly tier.
    ServeE2eMiniconNs => "serve_e2e_minicon_ns",
    /// Latency of one checkpoint-journal append (serialize + write +
    /// fsync per policy).
    JournalAppendNs => "journal_append_ns",
    /// Latency of a full journal replay at store startup.
    JournalReplayNs => "journal_replay_ns",
    /// RA rule-plan compilation (magic-sets rewrite + join-order and
    /// index-choice selection), per fixpoint.
    RaCompileNs => "ra_compile_ns",
    /// RA semi-naive fixpoint execution (excluding compilation), per run.
    RaEvalNs => "ra_eval_ns",
}

impl Hist {
    /// Maps a pipeline span name to the stage histogram it times, if any.
    ///
    /// Recorders that track span durations use this to feed stage
    /// histograms without any extra instrumentation at the span sites.
    pub fn from_stage(span: &str) -> Option<Hist> {
        match span {
            "datalog_eval" => Some(Hist::EvalNs),
            "datalog_in_ucq_fixpoint" => Some(Hist::FixpointNs),
            "plan_construction" => Some(Hist::PlanConstructionNs),
            "fn_elim" => Some(Hist::FnElimNs),
            "expansion" => Some(Hist::ExpansionNs),
            "containment_check" => Some(Hist::ContainmentCheckNs),
            _ => None,
        }
    }
}

impl std::fmt::Display for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of log2 buckets: one per possible `u64` bit length (0..=64).
pub const BUCKETS: usize = 65;

/// A fixed-size log2-bucketed histogram over `u64` samples.
///
/// All fields are relaxed atomics: recording from many threads into one
/// histogram is exact (each update is an atomic RMW), and two histograms
/// merge bucket-wise without locks.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index of `v`: its bit length, so 0 → 0, 1 → 1, 2..=3 → 2,
    /// 4..=7 → 3, and so on.
    #[inline]
    pub const fn bucket_index(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The largest value that lands in bucket `i` (inclusive upper bound).
    pub const fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow, like any counter).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean of recorded samples, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q · count)`.
    ///
    /// Returns 0 when empty. Monotone in `q` by construction (the
    /// cumulative walk never moves backward).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(b.load(Ordering::Relaxed));
            if cumulative >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(BUCKETS - 1)
    }

    /// Adds every sample of `other` into `self`, bucket-wise.
    pub fn merge_from(&self, other: &Histogram) {
        let other_count = other.count.load(Ordering::Relaxed);
        if other_count == 0 {
            return;
        }
        self.count.fetch_add(other_count, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let t = theirs.load(Ordering::Relaxed);
            if t != 0 {
                mine.fetch_add(t, Ordering::Relaxed);
            }
        }
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// A serializable point-in-time copy, with the standard quantiles
    /// precomputed.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            buckets,
        }
    }

    /// Rebuilds a histogram from a snapshot ([`snapshot`](Self::snapshot)'s
    /// inverse up to the snapshot's own lossiness).
    pub fn from_snapshot(s: &HistogramSnapshot) -> Histogram {
        let h = Histogram::new();
        h.count.store(s.count, Ordering::Relaxed);
        h.sum.store(s.sum, Ordering::Relaxed);
        h.min.store(
            if s.count == 0 { u64::MAX } else { s.min },
            Ordering::Relaxed,
        );
        h.max.store(s.max, Ordering::Relaxed);
        for (i, v) in s.buckets.iter().enumerate().take(BUCKETS) {
            h.buckets[i].store(*v, Ordering::Relaxed);
        }
        h
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Nonzero buckets as `(bucket_upper, count)` pairs, for rendering.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n != 0).then_some((Self::bucket_upper(i), n))
            })
            .collect()
    }
}

/// A serializable copy of a [`Histogram`], quantiles precomputed, trailing
/// zero buckets trimmed. Round-trips through the workspace `serde_json`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// 99.9th-percentile upper bound.
    pub p999: u64,
    /// Per-bucket counts, index = bit length, trailing zeros trimmed.
    pub buckets: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Histograms registry
// ---------------------------------------------------------------------------

/// A bank of histograms, one slot per [`Hist`] — the distribution-valued
/// sibling of [`Counters`].
#[derive(Debug)]
pub struct Histograms {
    slots: [Histogram; Hist::COUNT],
}

impl Default for Histograms {
    fn default() -> Histograms {
        Histograms {
            slots: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl Histograms {
    pub fn new() -> Histograms {
        Histograms::default()
    }

    /// Records one sample into histogram `h`.
    #[inline]
    pub fn record(&self, h: Hist, v: u64) {
        self.slots[h as usize].record(v);
    }

    /// The histogram for `h`.
    pub fn get(&self, h: Hist) -> &Histogram {
        &self.slots[h as usize]
    }

    /// Merges every histogram of `other` into `self`.
    pub fn merge_from(&self, other: &Histograms) {
        for (mine, theirs) in self.slots.iter().zip(&other.slots) {
            mine.merge_from(theirs);
        }
    }

    /// A single histogram holding the union of the named slots' samples.
    pub fn merged(&self, hs: &[Hist]) -> Histogram {
        let out = Histogram::new();
        for h in hs {
            out.merge_from(self.get(*h));
        }
        out
    }

    /// Zeroes every histogram.
    pub fn reset(&self) {
        for slot in &self.slots {
            slot.reset();
        }
    }

    /// All histograms (including empty ones, so consumers can rely on the
    /// full schema) as a name → snapshot JSON object.
    pub fn to_json(&self) -> serde::Value {
        let fields = Hist::ALL
            .iter()
            .map(|h| {
                let snap = self.get(*h).snapshot();
                (h.name().to_string(), snap.to_value())
            })
            .collect();
        serde::Value::Object(fields)
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Renders a counter bank and a histogram bank in the Prometheus text
/// exposition format (metric prefix `relcont_`): every counter as a
/// `counter` metric, every histogram as a native `histogram` with
/// cumulative `_bucket{le=...}` lines, `_sum`, and `_count`.
pub fn prometheus_text(counters: &Counters, hists: &Histograms) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in crate::Counter::ALL {
        let name = format!("relcont_{}", c.name());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", counters.get(c));
    }
    for h in Hist::ALL {
        let name = format!("relcont_{}", h.name());
        let hist = hists.get(h);
        let _ = writeln!(out, "# TYPE {name} histogram");
        // Boundaries are emitted up to the last occupied bucket to keep the
        // exposition compact; the +Inf line carries the total.
        let counts: Vec<u64> = (0..BUCKETS).map(|i| hist.bucket_count(i)).collect();
        if let Some(last) = counts.iter().rposition(|&n| n != 0) {
            let mut cumulative = 0u64;
            for (i, n) in counts.iter().enumerate().take(last + 1) {
                cumulative += n;
                let upper = Histogram::bucket_upper(i);
                let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{name}_sum {}", hist.sum());
        let _ = writeln!(out, "{name}_count {}", hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(3), 7);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
        // Every value's bucket upper bound is ≥ the value.
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 40, u64::MAX] {
            assert!(Histogram::bucket_upper(Histogram::bucket_index(v)) >= v);
        }
    }

    #[test]
    fn record_and_stats() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 26);
        // p50 lands in bucket 2 (values 2 and 3): upper bound 3.
        assert_eq!(h.quantile(0.5), 3);
        // p100 lands in bucket 7 (values 64..=127): upper bound 127.
        assert_eq!(h.quantile(1.0), 127);
    }

    #[test]
    fn hist_names_round_trip() {
        for h in Hist::ALL {
            assert_eq!(Hist::from_name(h.name()), Some(h));
        }
        assert_eq!(Hist::from_name("no_such_hist"), None);
    }

    #[test]
    fn stage_mapping_covers_span_sites() {
        assert_eq!(Hist::from_stage("datalog_eval"), Some(Hist::EvalNs));
        assert_eq!(Hist::from_stage("fn_elim"), Some(Hist::FnElimNs));
        assert_eq!(Hist::from_stage("relative_containment"), None);
    }

    #[test]
    fn registry_records_and_merges() {
        let a = Histograms::new();
        let b = Histograms::new();
        a.record(Hist::EvalNs, 10);
        b.record(Hist::EvalNs, 20);
        b.record(Hist::MiniconNs, 5);
        a.merge_from(&b);
        assert_eq!(a.get(Hist::EvalNs).count(), 2);
        assert_eq!(a.get(Hist::EvalNs).sum(), 30);
        assert_eq!(a.get(Hist::MiniconNs).count(), 1);
        let union = a.merged(&[Hist::EvalNs, Hist::MiniconNs]);
        assert_eq!(union.count(), 3);
    }

    #[test]
    fn snapshot_round_trips_through_histogram() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 8, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let back = Histogram::from_snapshot(&snap);
        assert_eq!(back.snapshot(), snap);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let counters = Counters::new();
        counters.add(crate::Counter::EvalRounds, 3);
        let hists = Histograms::new();
        hists.record(Hist::EvalNs, 5);
        hists.record(Hist::EvalNs, 100);
        let text = prometheus_text(&counters, &hists);
        assert!(text.contains("# TYPE relcont_eval_rounds counter"));
        assert!(text.contains("relcont_eval_rounds 3"));
        assert!(text.contains("# TYPE relcont_eval_ns histogram"));
        assert!(text.contains("relcont_eval_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("relcont_eval_ns_sum 105"));
        assert!(text.contains("relcont_eval_ns_count 2"));
        // Cumulative buckets: the le="127" boundary covers both samples.
        assert!(
            text.contains("relcont_eval_ns_bucket{le=\"127\"} 2"),
            "{text}"
        );
    }
}
