//! The benchmark's own spans, recorded around public calls into each layer.
//!
//! A traced pass opens one `op` span per timed operation; the layer spans
//! opened inside it become its children. Calls made only to measure a layer
//! the program exposes no boundary for (for example `fn_elim`, which runs
//! inside plan construction) are *probes*: root spans outside any `op`, so
//! they never count toward an operation's time. Spans stay in memory and
//! are written out as JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the per-operation root span.
pub const OP: &str = "op";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: RefCell<u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: RefCell::new(0),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the span of operation `op`.
    pub fn op(&self, op: u64) -> SpanGuard<'_> {
        *self.op.borrow_mut() = op;
        self.open(OP, None)
    }

    /// Opens a span under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.stack.borrow().last().copied();
        self.open(name, parent)
    }

    /// Opens a probe: a root span outside any operation's time.
    pub fn probe(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None)
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> SpanGuard<'_> {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            op: *self.op.borrow(),
        });
        let idx = spans.len() - 1;
        self.stack.borrow_mut().push(idx);
        SpanGuard { tracer: self, idx }
    }

    /// Per-name totals, with self time and the time of `op` spans that no
    /// child span covers.
    pub fn summary(&self) -> Summary {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut sum = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            let row = sum.rows.entry(s.name).or_default();
            row.calls += 1;
            row.total_ns += dur;
            row.self_ns += own;
            if s.name == OP {
                sum.ops += 1;
                sum.op_ns += dur;
                sum.unattributed_ns += own;
            }
        }
        sum
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, out)
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl SpanGuard<'_> {
    /// Renames the span before it closes (e.g. a serve call that turned
    /// out to be a cache hit).
    pub fn rename(&self, name: &'static str) {
        self.tracer.spans.borrow_mut()[self.idx].name = name;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now();
        self.tracer.spans.borrow_mut()[self.idx].end_ns = now;
        let mut stack = self.tracer.stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&i| i == self.idx) {
            stack.truncate(pos);
        }
    }
}

/// Opens `name` under the innermost span when tracing, and does nothing
/// otherwise.
pub fn span<'a>(t: Option<&'a Tracer>, name: &'static str) -> Option<SpanGuard<'a>> {
    t.map(|t| t.span(name))
}

#[derive(Default, Clone, Copy)]
pub struct Row {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
pub struct Summary {
    pub rows: BTreeMap<&'static str, Row>,
    pub ops: u64,
    pub op_ns: u64,
    pub unattributed_ns: u64,
}

impl Summary {
    fn row(&self, name: &str) -> Row {
        self.rows.get(name).copied().unwrap_or_default()
    }

    /// Mean time per call of `name`, in microseconds (0 without calls).
    pub fn per_call_us(&self, name: &str) -> f64 {
        let r = self.row(name);
        if r.calls == 0 {
            0.0
        } else {
            r.total_ns as f64 / r.calls as f64 / 1e3
        }
    }

    /// Total time of `name` per operation, in microseconds.
    pub fn per_op_us(&self, name: &str) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.row(name).total_ns as f64 / self.ops as f64 / 1e3
        }
    }

    pub fn mean_op_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.op_ns as f64 / self.ops as f64
        }
    }

    pub fn unattributed_pct(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            100.0 * self.unattributed_ns as f64 / self.op_ns as f64
        }
    }

    /// The per-layer table: calls, total and self time per span name, the
    /// `unattributed` row, and the tracing overhead against an untraced
    /// pass over the same operations (mean ns per operation).
    pub fn table(&self, untraced_mean_op_ns: f64) -> String {
        let mut t = String::new();
        let _ = writeln!(
            t,
            "{:<40} {:>8} {:>12} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms", "mean_us"
        );
        for (name, r) in &self.rows {
            let _ = writeln!(
                t,
                "{:<40} {:>8} {:>12.3} {:>12.3} {:>12.2}",
                name,
                r.calls,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.total_ns as f64 / r.calls.max(1) as f64 / 1e3
            );
        }
        let _ = writeln!(
            t,
            "{:<40} {:>8} {:>12.3} {:>12} {:>11.2}%",
            "unattributed",
            "",
            self.unattributed_ns as f64 / 1e6,
            "",
            self.unattributed_pct()
        );
        let _ = writeln!(
            t,
            "tracing overhead: {:.2} us/op traced vs {:.2} us/op untraced over {} ops = {:+.2}%",
            self.mean_op_ns() / 1e3,
            untraced_mean_op_ns / 1e3,
            self.ops,
            overhead_pct(self.mean_op_ns(), untraced_mean_op_ns)
        );
        t
    }
}

pub fn overhead_pct(traced_ns: f64, untraced_ns: f64) -> f64 {
    if untraced_ns > 0.0 {
        100.0 * (traced_ns / untraced_ns - 1.0)
    } else {
        0.0
    }
}
