//! qc-serve: a supervised containment service.
//!
//! The layer between the anytime decision procedures
//! ([`qc_mediator::relative`] under [`qc_guard`]) and a long-running
//! deployment: relative containment is Π₂ᵖ-hard (Thm 3.3), so any
//! per-request limit *will* trip on adversarial or merely large inputs,
//! and the service has to stay up and useful anyway. Two mechanisms:
//!
//! * **Admission control** — a bounded queue that sheds load explicitly
//!   ([`ServiceError::ShedUnderLoad`]) instead of queueing to death. Each
//!   run gets a work-unit grant that depends only on the request and the
//!   queue depth when it starts: its own budget if it has one, otherwise
//!   [`ServeConfig::pool`] split over itself and the requests queued
//!   behind it. No request's grant depends on what ran before it.
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
//!
//! ## Modules
//!
//! * `request` — the core request path: [`CatalogSnapshot`],
//!   [`Request`], [`Response`] and [`ServeCore`], whose
//!   [`ServeCore::handle_traced_at`] answers a request in seven named
//!   stages (verdict cache, resume lookup, grant, `decide`, persist,
//!   record, memoize).
//! * `service` — the queue and the workers: [`Service`] and its
//!   [`Ticket`]s, coalescing of identical in-flight requests, and panic
//!   supervision.
//! * `stats` — [`ServeStats`], [`LatencySummary`], [`Health`] and the
//!   workers' [`CounterSink`].
//! * [`checkpoint`], [`journal`], [`flight`] and [`retry`] — resume
//!   tokens, their durable store, the per-request flight recorder, and
//!   the client-side retry loop.
//!
//! The service's settings are the three fields of [`ServeConfig`]
//! (`relcont serve --workers`, `--queue`, `--pool`) and
//! [`RetryPolicy::max_attempts`] (`--retries`). Everything else is fixed:
//! identical in-flight requests always coalesce, the flight recorder
//! keeps the last 256 timelines, and every journal append is `fsync`ed.

pub mod checkpoint;
pub mod flight;
pub mod journal;
mod request;
pub mod retry;
mod service;
mod stats;

use std::time::Duration;

pub use checkpoint::{Checkpoint, CheckpointRejected, RejectReason};
pub use flight::{FlightRecorder, StageTime, Timeline};
pub use journal::{
    CheckpointStore, DirSync, EpochRecord, FileJournal, MemoryStore, RealDirSync, ReplayReport,
    SaveReceipt,
};
pub use qc_mediator::catalog::{CatalogDelta, CatalogError, CatalogOp, DeltaReport};
pub use request::{CatalogSnapshot, Request, Response, ServeCore};
pub use retry::RetryPolicy;
pub use service::{Service, Ticket};
pub use stats::{CounterSink, Health, LatencySummary, ServeStats};

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
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t-{:08x}", self.0)
    }
}

/// Why a request did not get a verdict. The taxonomy is the service's
/// contract: every admitted request ends in a [`Response`] or exactly one
/// of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Refused before running: the service is draining, the input is
    /// malformed (the input gate's error, naming the predicate, source or
    /// rule at fault), or it is outside the decidable classes (the payload
    /// says which).
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
            ServiceError::WorkerLost { trace, why } => write!(f, "worker lost [{trace}]: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The settings of [`ServeCore`] / [`Service`]: `relcont serve`'s
/// `--workers`, `--queue` and `--pool`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads ([`Service`] only).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are shed
    /// ([`Service`] only).
    pub queue_capacity: usize,
    /// The work-unit grant of a request admitted to an idle service. A
    /// request with `d` others queued behind it gets `pool / (d + 1)`,
    /// never less than 4 096 units; a request's own
    /// [`Request::budget`] overrides both.
    pub pool: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            pool: 1 << 22,
        }
    }
}

/// `d` in whole nanoseconds, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
