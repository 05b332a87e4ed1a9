//! Telemetry v2 integration tests: every answer (and every error) the
//! service hands out carries a trace ID that resolves in the flight
//! recorder, the serve latency histograms populate as requests run,
//! the flight ring keeps its last 256 timelines, and supervision
//! events (worker panics) leave resolvable timelines behind.

use relcont::datalog::{parse_program, Program, Symbol};
use relcont::guard::{FaultKind, FaultPlan};
use relcont::mediator::relative::Verdict;
use relcont::mediator::schema::example1_sources;
use relcont::obs::{Hist, Histograms};
use relcont::serve::{Request, ServeConfig, ServeCore, Service, ServiceError, TraceId};

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
    parse_program("q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).")
        .unwrap()
}

fn contained_request() -> Request {
    Request::new(q1_prog(), sym("q1"), q2_prog(), sym("q2"))
}

/// Every response resolves in the flight recorder: same trace, matching
/// outcome/timings — and distinct requests get distinct traces.
/// The first submission runs the engine; identical resubmissions answer
/// from the verdict cache and say so in their timelines.
#[test]
fn service_responses_resolve_in_the_flight_recorder() {
    let svc = Service::start(example1_sources(), ServeConfig::default());
    let mut traces: Vec<TraceId> = Vec::new();
    for i in 0..4 {
        let resp = svc.submit(contained_request()).unwrap().wait().unwrap();
        assert_eq!(resp.verdict, Verdict::Contained);
        let t = svc
            .core()
            .flight()
            .find(resp.trace)
            .expect("response trace resolves");
        assert_eq!(t.queue_wait_ns, resp.queue_wait_ns);
        if i == 0 {
            assert_eq!(t.outcome, "contained");
            assert!(t.execute_ns > 0, "execution took measurable time");
            assert_eq!(t.total_ns, t.queue_wait_ns + t.execute_ns);
            assert!(
                t.stages.iter().any(|s| s.calls > 0),
                "per-stage breakdown recorded: {:?}",
                t.stages
            );
        } else {
            assert_eq!(t.outcome, "verdict_cache_hit");
            assert_eq!(t.execute_ns, 0, "cache hits run nothing");
        }
        traces.push(resp.trace);
    }
    assert_eq!(svc.core().stats().verdict_cache_hits, 3);
    traces.sort_by_key(|t| t.0);
    traces.dedup();
    assert_eq!(traces.len(), 4, "traces are unique");
    svc.shutdown();
}

/// Shed submissions are errors, but they still get a trace — and the
/// trace resolves to a `shed` timeline naming the queue length.
#[test]
fn shed_errors_carry_resolvable_traces() {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let svc = Service::start(example1_sources(), cfg);
    svc.pause();
    // The two submits differ only in a budget large enough to decide, so
    // the second takes a queue slot of its own instead of coalescing onto
    // the first.
    let budgeted = |units| Request {
        budget: Some(units),
        ..contained_request()
    };
    let ticket = svc.submit(budgeted(u64::MAX)).unwrap();
    let shed = match svc.submit(budgeted(u64::MAX - 1)) {
        Err(e @ ServiceError::ShedUnderLoad { .. }) => e,
        other => panic!("expected shed, got {other:?}"),
    };
    let t = svc
        .core()
        .flight()
        .find(shed.trace())
        .expect("shed trace resolves");
    assert_eq!(t.outcome, "shed");
    assert!(t.trip.as_deref().unwrap_or("").contains("queue full"));
    assert_ne!(shed.trace(), ticket.trace(), "shed and admitted differ");
    svc.unpause();
    ticket.wait().unwrap();
    svc.shutdown();
}

/// Direct core runs populate the serve latency histograms, the
/// response surfaces its queue wait, and the stats digest carries
/// non-empty quantile summaries.
#[test]
fn latency_histograms_populate() {
    let core = ServeCore::new(example1_sources(), ServeConfig::default());
    let n = 3;
    for i in 0..n {
        // Distinct answer-predicate names keep the fingerprints apart,
        // so every run executes instead of hitting the verdict cache.
        let q1 = format!(
            "p{i}(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating)."
        );
        let req = Request::new(
            parse_program(&q1).unwrap(),
            sym(&format!("p{i}")),
            q2_prog(),
            sym("q2"),
        );
        let resp = core.handle(&req, 0).unwrap();
        assert_eq!(resp.verdict, Verdict::Contained);
        assert_eq!(resp.queue_wait_ns, 0, "direct handle never queues");
    }
    let hists: &Histograms = core.histograms();
    for h in [
        Hist::ServeQueueWaitNs,
        Hist::ServeExecuteNs,
        Hist::ServeE2eNs,
    ] {
        assert_eq!(hists.get(h).count(), n, "{h} sample count");
    }
    assert!(hists.get(Hist::ServeExecuteNs).sum() > 0);
    assert!(
        hists.get(Hist::ServeE2eNs).sum() >= hists.get(Hist::ServeExecuteNs).sum(),
        "end-to-end dominates execute"
    );

    let stats = core.stats();
    assert_eq!(stats.execute.count, n);
    assert_eq!(stats.e2e.count, n);
    assert!(stats.e2e.p50_ns >= stats.execute.p50_ns / 2, "sane medians");
    let digest = stats.to_string();
    assert!(digest.contains("queue-wait:"), "{digest}");
    assert!(digest.contains("end-to-end:"), "{digest}");

    // The same bank drives the Prometheus exposition.
    let text = qc_obs::prometheus_text(core.counters(), hists);
    assert!(text.contains("# TYPE relcont_serve_execute_ns histogram"));
    assert!(text.contains("relcont_serve_execute_ns_count 3"));
    assert!(text.contains("_bucket{le=\"+Inf\"} 3"));
}

/// The flight ring keeps the last 256 timelines: the newest survive,
/// the oldest are evicted.
#[test]
fn flight_ring_keeps_the_newest_256_timelines() {
    let core = ServeCore::new(example1_sources(), ServeConfig::default());
    assert_eq!(core.flight().capacity(), 256);
    // One run, then verdict-cache hits: each answer pushes one timeline.
    let traces: Vec<TraceId> = (0..260)
        .map(|_| core.handle(&contained_request(), 0).unwrap().trace)
        .collect();
    assert_eq!(core.flight().len(), 256);
    for old in &traces[..4] {
        assert!(core.flight().find(*old).is_none(), "{old} evicted");
    }
    for recent in &traces[4..] {
        assert!(core.flight().find(*recent).is_some(), "{recent} retained");
    }
}

/// A twice-panicking request is answered with `WorkerLost`; its trace
/// resolves to a terminal `worker_lost` timeline, preceded by a
/// `panic_retry` supervision event on the same trace.
#[test]
fn worker_panics_leave_supervision_timelines() {
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let svc = Service::start(example1_sources(), cfg);
    let mut req = contained_request();
    req.fault = Some(FaultPlan {
        stage: relcont::guard::stage::HOM_SEARCH,
        at_tick: 1,
        kind: FaultKind::Panic,
    });
    let err = match svc.submit(req).unwrap().wait() {
        Err(e @ ServiceError::WorkerLost { .. }) => e,
        other => panic!("expected WorkerLost, got {other:?}"),
    };
    let timelines = svc.core().flight().snapshot();
    let terminal = svc
        .core()
        .flight()
        .find(err.trace())
        .expect("worker_lost trace resolves");
    assert_eq!(terminal.outcome, "worker_lost");
    assert!(
        timelines
            .iter()
            .any(|t| t.trace == err.trace() && t.outcome == "panic_retry"),
        "supervision retry recorded: {timelines:?}"
    );
    svc.shutdown();
}
