//! The queue and the workers: [`Service`] puts a [`ServeCore`] behind a
//! bounded admission queue, coalesces identical in-flight requests, and
//! supervises its worker threads.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qc_mediator::catalog::{CatalogDelta, CatalogError, DeltaReport};
use qc_mediator::schema::LavSetting;
use qc_obs::Counter;

use crate::flight::Timeline;
use crate::journal::{CheckpointStore, MemoryStore};
use crate::stats::{CounterSink, Health, ServeStats};
use crate::{
    nanos, CatalogSnapshot, Request, Response, ServeConfig, ServeCore, ServiceError, TraceId,
};

struct Job {
    req: Request,
    trace: TraceId,
    /// The catalog snapshot captured at admission: the run uses this even
    /// if a delta lands while the job waits in the queue.
    snap: Arc<CatalogSnapshot>,
    /// The request's fingerprint against `snap`, computed once at
    /// admission.
    fingerprint: u64,
    enqueued: Instant,
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
fn coalesce_key(req: &Request, fingerprint: u64) -> Option<u64> {
    use std::hash::{Hash, Hasher};
    if req.fault.is_some() {
        return None;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    fingerprint.hash(&mut h);
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
    /// [`crate::FileJournal`] for crash-durable checkpoints and restart
    /// recovery.
    pub fn start_with_store(
        views: LavSetting,
        cfg: ServeConfig,
        store: Arc<dyn CheckpointStore>,
    ) -> Service {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(QueueShared {
            jobs: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            paused: AtomicBool::new(false),
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

    /// The underlying core (counters, views, flight recorder).
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
        let fingerprint = req.fingerprint(&snap);
        let key = coalesce_key(&req, fingerprint);
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
                .unwrap_or_else(std::sync::PoisonError::into_inner);
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
            fingerprint,
            enqueued: Instant::now(),
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
    /// bounded queue this makes shedding deterministic for tests. No job
    /// exists before the first submit, so pausing right after
    /// [`Service::start`] holds every job in the queue.
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

    /// Derived health: draining once [`Service::begin_drain`] ran,
    /// healthy before.
    pub fn health(&self) -> Health {
        if self.shared.draining.load(Ordering::SeqCst) {
            Health::Draining
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

fn worker_loop(core: Arc<ServeCore>, shared: Arc<QueueShared>) {
    // Engine counters from this thread aggregate into the core's bank.
    let _rec = qc_obs::install(Arc::new(CounterSink(Arc::clone(core.counters()))));
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
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                jobs = guard;
            }
        };
        let waited = job.enqueued.elapsed();
        let reply = run_supervised(&core, &job, depth, waited);
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

/// The answer a coalesced waiter receives: the leader's answer under the
/// waiter's own trace ID and queue wait, with a `coalesced` timeline
/// pointing back at the leader's trace.
fn coalesced_reply(
    core: &ServeCore,
    leader: &Result<Response, ServiceError>,
    w: &Waiter,
    leader_trace: TraceId,
) -> Result<Response, ServiceError> {
    let waited_ns = nanos(w.enqueued.elapsed());
    let trip = match leader {
        Ok(_) => format!("waiter of {leader_trace}"),
        Err(e) => format!("waiter of {leader_trace}: {e}"),
    };
    core.flight().push(Timeline {
        resumed: leader.as_ref().is_ok_and(|r| r.resumed),
        ..Timeline::event(w.trace, "coalesced", waited_ns, Some(trip))
    });
    match leader.clone() {
        Ok(mut r) => {
            r.trace = w.trace;
            r.queue_wait_ns = waited_ns;
            Ok(r)
        }
        Err(e) => Err(error_with_trace(e, w.trace)),
    }
}

/// The same service error re-addressed to a coalesced waiter's trace.
fn error_with_trace(e: ServiceError, trace: TraceId) -> ServiceError {
    match e {
        ServiceError::Rejected { why, .. } => ServiceError::Rejected { trace, why },
        ServiceError::ShedUnderLoad { queue_len, .. } => {
            ServiceError::ShedUnderLoad { trace, queue_len }
        }
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
    job: &Job,
    depth: usize,
    queue_wait: Duration,
) -> Result<Response, ServiceError> {
    let queue_wait_ns = nanos(queue_wait);
    let trace = job.trace;
    let run = || {
        core.handle_traced_at(
            &job.snap,
            &job.req,
            job.fingerprint,
            depth,
            trace,
            queue_wait,
        )
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(r) => r,
        Err(p) => {
            core.counters().add(Counter::ServeWorkerRestarts, 1);
            core.flight().push(Timeline::event(
                trace,
                "panic_retry",
                queue_wait_ns,
                Some(panic_message(p.as_ref())),
            ));
            match catch_unwind(AssertUnwindSafe(run)) {
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
    use crate::request::tests::contained_request;
    use qc_guard::{FaultKind, FaultPlan};
    use qc_mediator::relative::Verdict;
    use qc_mediator::schema::example1_sources;

    /// [`contained_request`] with its own budget, large enough to decide.
    /// Requests that differ only in it never coalesce, so they fill the
    /// queue one slot each.
    fn budgeted_request(i: u64) -> Request {
        let mut req = contained_request();
        req.budget = Some(u64::MAX - i);
        req
    }

    #[test]
    fn service_sheds_deterministically_when_paused() {
        let cfg = ServeConfig {
            workers: 2,
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        svc.pause();
        let mut tickets = Vec::new();
        let mut shed = 0;
        for i in 0..5 {
            match svc.submit(budgeted_request(i)) {
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
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        svc.pause();
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
    fn run_batch_preserves_order_without_shedding() {
        let cfg = ServeConfig {
            workers: 2,
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        let reqs: Vec<Request> = (0..6).map(budgeted_request).collect();
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
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        svc.pause(); // all submits land before any runs
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
            ..ServeConfig::default()
        };
        let svc = Service::start(example1_sources(), cfg);
        svc.pause();
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
}
