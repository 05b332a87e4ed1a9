//! Cross-generation durability: the guarantees that hold *across* a
//! process restart, exercised through the public API the way an embedding
//! application would — a [`FileJournal`] on disk, a fresh [`ServeCore`]
//! per "process", and nothing carried over but the file.
//!
//! The in-crate unit tests cover each mechanism in isolation (framing,
//! replay, merge-on-save, coalescing); these tests pin the end-to-end
//! differentials: a restarted core resumes to the same verdict, trace IDs
//! never collide across generations, and a resumed run provably skips the
//! disjuncts its checkpoint already proved.

use std::path::PathBuf;
use std::sync::Arc;

use qc_datalog::{parse_program, Symbol};
use qc_mediator::relative::Verdict;
use qc_mediator::schema::example1_sources;
use qc_serve::{
    Checkpoint, CheckpointStore, FileJournal, Request, ServeConfig, ServeCore, Service, Ticket,
    TraceId,
};

fn contained_request() -> Request {
    let q1 = parse_program(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    )
    .unwrap();
    let q2 = parse_program(
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
    )
    .unwrap();
    Request::new(q1, Symbol::new("q1"), q2, Symbol::new("q2"))
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("relcont-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.qcj")
}

/// Starve the core until an `Unknown` checkpoints with at least one
/// disjunct proven, returning the (budget, checkpoint) pair. Panics if no
/// budget in range trips mid-plan — that would mean the workload stopped
/// being resumable.
fn starve_to_checkpoint(core: &ServeCore, req: &Request) -> (u64, Checkpoint) {
    for budget in 1..5_000 {
        let mut starved = req.clone();
        starved.budget = Some(budget);
        let resp = core.handle(&starved, 0).unwrap();
        if let Some(cp) = resp.checkpoint {
            if !cp.proven.is_empty() {
                return (budget, cp);
            }
        }
        if !matches!(resp.verdict, Verdict::Unknown(_)) {
            panic!("workload solved at budget {budget} before ever checkpointing");
        }
    }
    panic!("no budget in 1..5000 checkpointed partial progress");
}

/// The tentpole differential: generation 1 journals partial progress and
/// "crashes" (is dropped); generation 2 opens the same file, auto-resumes
/// the arriving fingerprint from the replayed checkpoint, and reaches the
/// verdict an unstarved run reaches — then retires the entry, because the
/// progress is spent.
#[test]
fn restart_resumes_from_the_journal_and_retires_on_completion() {
    let path = scratch("restart-resume");
    let oracle = ServeCore::new(example1_sources(), ServeConfig::default())
        .handle(&contained_request(), 0)
        .unwrap()
        .verdict;
    assert_eq!(oracle, Verdict::Contained);

    // Generation 1: starve until a checkpoint is journaled, then "crash".
    let gen1_live = {
        let journal = Arc::new(FileJournal::open(&path).unwrap());
        let core = ServeCore::with_store(example1_sources(), ServeConfig::default(), journal);
        let (_, cp) = starve_to_checkpoint(&core, &contained_request());
        assert!(cp.disjuncts_total > 0);
        let stats = core.stats();
        assert!(stats.journal_appends >= 1, "checkpoint hit the file");
        assert_eq!(stats.generation, 1);
        stats.journal_live
    };
    assert!(gen1_live >= 1);

    // Generation 2: a fresh process. No client checkpoint — the journal
    // alone must carry the resume.
    let journal = Arc::new(FileJournal::open(&path).unwrap());
    assert_eq!(journal.generation(), 2, "restart advances the generation");
    assert_eq!(
        journal.live(),
        gen1_live as usize,
        "replay recovered it all"
    );
    let core = ServeCore::with_store(example1_sources(), ServeConfig::default(), journal);
    let resp = core.handle(&contained_request(), 0).unwrap();
    assert!(resp.resumed, "store-held checkpoint resumes the request");
    assert_eq!(resp.verdict, oracle, "restart changes nothing but latency");
    let stats = core.stats();
    assert!(stats.resumed >= 1);
    assert_eq!(
        stats.journal_live, 0,
        "definite verdict retires the journal entry"
    );
}

/// Trace IDs must stay unique across a kill–restart: the journal
/// generation lives in the ID's high bits, so two processes that each
/// start their sequence at 1 still never collide.
#[test]
fn trace_ids_are_unique_across_generations() {
    let path = scratch("trace-gen");
    let mut traces: Vec<TraceId> = Vec::new();
    for expected_gen in 1..=3u64 {
        let journal = Arc::new(FileJournal::open(&path).unwrap());
        let core = ServeCore::with_store(example1_sources(), ServeConfig::default(), journal);
        for _ in 0..3 {
            let resp = core.handle(&contained_request(), 0).unwrap();
            assert_eq!(resp.trace.generation(), expected_gen);
            traces.push(resp.trace);
        }
    }
    let mut sorted = traces.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        traces.len(),
        "trace IDs collided across restarts: {traces:?}"
    );
}

/// The flight recorder distinguishes the three ways a request can get its
/// answer: a fresh run, a checkpoint resume, and a coalesced wait on
/// someone else's computation.
#[test]
fn timelines_distinguish_fresh_resumed_and_coalesced() {
    // Fresh and resumed, on a direct core.
    let core = ServeCore::new(example1_sources(), ServeConfig::default());
    let fresh = core.handle(&contained_request(), 0).unwrap();
    let tl = core.flight().find(fresh.trace).unwrap();
    assert_eq!(tl.outcome, "contained");
    assert!(!tl.resumed);

    let (_, cp) = starve_to_checkpoint(&core, &contained_request());
    let mut resume = contained_request();
    resume.checkpoint = Some(cp);
    let resumed = core.handle(&resume, 0).unwrap();
    assert!(resumed.resumed);
    let tl = core.flight().find(resumed.trace).unwrap();
    assert!(tl.resumed, "resume is visible in the timeline");
    assert_eq!(tl.outcome, "contained");

    // Coalesced, through the service: identical requests submitted while
    // the queue is paused attach to one leader.
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let svc = Service::start(example1_sources(), cfg);
    svc.pause();
    let tickets: Vec<Ticket> = (0..3)
        .map(|_| svc.submit(contained_request()).unwrap())
        .collect();
    let traces: Vec<TraceId> = tickets.iter().map(Ticket::trace).collect();
    svc.unpause();
    for t in tickets {
        assert_eq!(t.wait().unwrap().verdict, Verdict::Contained);
    }
    let flight = svc.core().flight();
    let outcomes: Vec<&str> = traces
        .iter()
        .map(|t| flight.find(*t).unwrap().outcome)
        .collect();
    assert_eq!(
        outcomes.iter().filter(|o| **o == "coalesced").count(),
        2,
        "two waiters, one leader: {outcomes:?}"
    );
    assert_eq!(
        outcomes.iter().filter(|o| **o == "contained").count(),
        1,
        "{outcomes:?}"
    );
    svc.shutdown();
}

/// A retried request must never re-prove disjuncts its checkpoint already
/// settled. Pinned via the consumed counter: on the same core (equal memo
/// warmth), a resume that starts with every disjunct proven does strictly
/// less work than one that starts from nothing.
#[test]
fn resumed_runs_skip_proven_disjuncts() {
    let core = ServeCore::new(example1_sources(), ServeConfig::default());
    let (_, cp) = starve_to_checkpoint(&core, &contained_request());
    let total = cp.disjuncts_total;
    assert!(total > 0);

    let run = |proven: Vec<usize>| {
        let mut req = contained_request();
        req.checkpoint = Some(Checkpoint {
            proven,
            ..cp.clone()
        });
        core.handle(&req, 0).unwrap()
    };

    // Warm the memo once so the two measured runs see identical state.
    let _ = run(Vec::new());
    let from_nothing = run(Vec::new());
    let all_proven = run((0..total).collect());
    assert_eq!(from_nothing.verdict, Verdict::Contained);
    assert_eq!(
        all_proven.verdict,
        Verdict::Contained,
        "a fully-proven checkpoint is already a verdict"
    );
    assert!(all_proven.resumed);
    assert!(
        all_proven.consumed < from_nothing.consumed,
        "skipping every disjunct must cost less: {} vs {}",
        all_proven.consumed,
        from_nothing.consumed
    );
}

/// Restart honours the merged (monotone) journal state, not the last
/// write: a client resubmitting a stale empty checkpoint after gen-1
/// journaled real progress cannot erase it for gen 2.
#[test]
fn stale_client_checkpoints_cannot_erase_durable_progress() {
    let path = scratch("stale-client");
    let (fingerprint, total, proven) = {
        let journal = Arc::new(FileJournal::open(&path).unwrap());
        let store: Arc<dyn CheckpointStore> = Arc::clone(&journal) as _;
        let core = ServeCore::with_store(example1_sources(), ServeConfig::default(), store);
        let (budget, cp) = starve_to_checkpoint(&core, &contained_request());
        // Resubmit with an explicit *empty* checkpoint at the same budget:
        // a client that lost its state and started over.
        let mut stale = contained_request();
        stale.budget = Some(budget);
        stale.checkpoint = Some(Checkpoint {
            proven: Vec::new(),
            ..cp.clone()
        });
        let resp = core.handle(&stale, 0).unwrap();
        assert!(
            matches!(resp.verdict, Verdict::Unknown(_)),
            "starved rerun must stay partial for the overwrite to be at stake"
        );
        let live = journal
            .load(cp.fingerprint)
            .expect("fingerprint still journaled");
        for d in &cp.proven {
            assert!(
                live.proven.contains(d),
                "stale save erased proven disjunct {d}: {live:?}"
            );
        }
        (cp.fingerprint, cp.disjuncts_total, cp.proven)
    };

    // The merge survives replay too: gen 2 sees at least gen 1's progress.
    let journal = FileJournal::open(&path).unwrap();
    let live = journal.load(fingerprint).expect("replayed");
    assert_eq!(live.disjuncts_total, total);
    for d in &proven {
        assert!(live.proven.contains(d), "lost {d} across restart: {live:?}");
    }
}
