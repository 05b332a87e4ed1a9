//! Per-request flight recorder: a bounded in-memory ring of the last N
//! request timelines.
//!
//! Every request the service touches — answered, rejected, shed, or lost
//! to a panic — leaves a [`Timeline`] keyed by its
//! [`TraceId`], so an operator holding an error (or a `Response`) can
//! resolve the trace against the dump (`relcont serve --flight-recorder`,
//! REPL `:flight`) and see where the time went: queue wait, execution,
//! per-stage breakdown, and any guard trip.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::TraceId;

/// Aggregated wall time spent in one pipeline stage during a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTime {
    /// Stage (span) name, e.g. `containment_check`.
    pub stage: &'static str,
    /// Times the stage ran during the request.
    pub calls: u64,
    /// Total nanoseconds across those runs.
    pub total_ns: u64,
}

/// One request's recorded lifecycle.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The request's trace ID.
    pub trace: TraceId,
    /// Terminal state: `contained`, `not_contained`, `unknown`,
    /// `verdict_cache_hit`, `coalesced`, `rejected`, `shed`,
    /// `worker_lost` — or the supervision event `panic_retry`
    /// (non-terminal: the same trace gets a terminal entry afterwards).
    pub outcome: &'static str,
    /// Whether the run continued from a checkpoint.
    pub resumed: bool,
    /// Why a supplied checkpoint was refused (fingerprint or plan-shape
    /// mismatch), when one was.
    pub checkpoint_rejected: Option<String>,
    /// Time spent waiting in the admission queue.
    pub queue_wait_ns: u64,
    /// Time spent executing the decision procedure.
    pub execute_ns: u64,
    /// End-to-end time (queue wait + execution).
    pub total_ns: u64,
    /// Work units consumed.
    pub consumed: u64,
    /// Guard trip / panic / rejection provenance, when any.
    pub trip: Option<String>,
    /// Per-stage wall-time breakdown, in first-completion order.
    pub stages: Vec<StageTime>,
}

impl Timeline {
    /// A timeline for a request that never ran (shed / draining-reject).
    pub(crate) fn admission(
        trace: TraceId,
        outcome: &'static str,
        trip: Option<String>,
    ) -> Timeline {
        Timeline {
            trace,
            outcome,
            resumed: false,
            checkpoint_rejected: None,
            queue_wait_ns: 0,
            execute_ns: 0,
            total_ns: 0,
            consumed: 0,
            trip,
            stages: Vec::new(),
        }
    }

    /// A timeline for a supervision event (`panic_retry`, `worker_lost`)
    /// or a coalesced waiter whose leader failed.
    pub(crate) fn event(
        trace: TraceId,
        outcome: &'static str,
        queue_wait_ns: u64,
        trip: Option<String>,
    ) -> Timeline {
        Timeline {
            queue_wait_ns,
            total_ns: queue_wait_ns,
            ..Timeline::admission(trace, outcome, trip)
        }
    }

    /// The timeline as a JSON value (built by hand: `StageTime` rows
    /// become `{stage, calls, total_ns}` objects).
    pub fn to_json(&self) -> serde::Value {
        use serde::Value;
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("stage".into(), Value::Str(s.stage.into())),
                    ("calls".into(), Value::UInt(s.calls)),
                    ("total_ns".into(), Value::UInt(s.total_ns)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("trace".into(), Value::Str(self.trace.to_string())),
            ("outcome".into(), Value::Str(self.outcome.into())),
            ("resumed".into(), Value::Bool(self.resumed)),
            (
                "checkpoint_rejected".into(),
                match &self.checkpoint_rejected {
                    Some(r) => Value::Str(r.clone()),
                    None => Value::Null,
                },
            ),
            ("queue_wait_ns".into(), Value::UInt(self.queue_wait_ns)),
            ("execute_ns".into(), Value::UInt(self.execute_ns)),
            ("total_ns".into(), Value::UInt(self.total_ns)),
            ("consumed".into(), Value::UInt(self.consumed)),
            (
                "trip".into(),
                match &self.trip {
                    Some(t) => Value::Str(t.clone()),
                    None => Value::Null,
                },
            ),
            ("stages".into(), Value::Array(stages)),
        ])
    }
}

/// A bounded ring of the last `capacity` [`Timeline`]s. Pushes are O(1);
/// the oldest entry is evicted when full.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    entries: Mutex<VecDeque<Timeline>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` timelines (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, VecDeque<Timeline>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends a timeline, evicting the oldest when at capacity.
    pub fn push(&self, t: Timeline) {
        let mut e = self.entries();
        if e.len() == self.capacity {
            e.pop_front();
        }
        e.push_back(t);
    }

    /// Number of retained timelines.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// All retained timelines, oldest first.
    pub fn snapshot(&self) -> Vec<Timeline> {
        self.entries().iter().cloned().collect()
    }

    /// The most recent timeline for `trace`, if still retained.
    pub fn find(&self, trace: TraceId) -> Option<Timeline> {
        self.entries()
            .iter()
            .rev()
            .find(|t| t.trace == trace)
            .cloned()
    }

    /// The whole ring as a JSON array, oldest first.
    pub fn to_json(&self) -> serde::Value {
        serde::Value::Array(self.entries().iter().map(Timeline::to_json).collect())
    }

    /// Human-readable dump, one line per timeline, oldest first.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in self.entries().iter() {
            let _ = write!(
                out,
                "{} {:<13} queue={} exec={} total={} consumed={}",
                t.trace,
                t.outcome,
                fmt_ns(t.queue_wait_ns),
                fmt_ns(t.execute_ns),
                fmt_ns(t.total_ns),
                t.consumed,
            );
            if t.resumed {
                out.push_str(" resumed");
            }
            if let Some(r) = &t.checkpoint_rejected {
                let _ = write!(out, " checkpoint_rejected={r:?}");
            }
            if let Some(trip) = &t.trip {
                let _ = write!(out, " trip={trip}");
            }
            if !t.stages.is_empty() {
                let items: Vec<String> = t
                    .stages
                    .iter()
                    .map(|s| format!("{}×{}={}", s.stage, s.calls, fmt_ns(s.total_ns)))
                    .collect();
                let _ = write!(out, " [{}]", items.join(" "));
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a nanosecond count at a human scale.
pub(crate) fn fmt_ns(ns: u64) -> String {
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

    fn entry(n: u64) -> Timeline {
        Timeline::admission(TraceId(n), "shed", None)
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for n in 1..=5 {
            fr.push(entry(n));
        }
        assert_eq!(fr.len(), 3);
        let traces: Vec<u64> = fr.snapshot().iter().map(|t| t.trace.0).collect();
        assert_eq!(traces, vec![3, 4, 5]);
        assert!(fr.find(TraceId(1)).is_none(), "evicted");
        assert!(fr.find(TraceId(5)).is_some());
    }

    #[test]
    fn json_dump_has_the_schema() {
        let fr = FlightRecorder::new(4);
        let mut t = entry(7);
        t.outcome = "contained";
        t.stages.push(StageTime {
            stage: "expansion",
            calls: 2,
            total_ns: 500,
        });
        fr.push(t);
        let v = fr.to_json();
        let arr = v.as_array().expect("array dump");
        assert_eq!(arr.len(), 1);
        let e = &arr[0];
        assert!(matches!(e.get_field("trace"), serde::Value::Str(_)));
        assert!(matches!(e.get_field("outcome"), serde::Value::Str(_)));
        assert!(
            matches!(e.get_field("tier"), serde::Value::Null),
            "no tier field"
        );
        let stages = e.get_field("stages").as_array().unwrap();
        assert!(matches!(
            stages[0].get_field("calls"),
            serde::Value::UInt(2)
        ));
        let text = fr.render();
        assert!(text.contains("contained"), "{text}");
        assert!(text.contains("expansion×2"), "{text}");
    }
}
