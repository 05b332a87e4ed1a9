//! Live catalog churn, end to end: epoch-versioned catalogs on the
//! public serve API (DESIGN.md §16).
//!
//! Pins the two properties the chaos suite samples statistically:
//!
//! - Request fingerprints are a function of *resolved strings*, never of
//!   interned `u32` ids — two processes that intern the same names in
//!   opposite orders must agree on every fingerprint, or journals and
//!   client checkpoints would silently stop matching across restarts.
//! - A one-view delta re-proves strictly fewer plan disjuncts than a
//!   from-scratch rebuild (the paper's E1/E4 workloads ride untouched
//!   through the epoch bump on the verdict cache, while the request that
//!   depends on the replaced view recomputes).

use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Arc;

use relcont::datalog::{parse_program, Symbol};
use relcont::mediator::relative::Verdict;
use relcont::mediator::schema::{example1_sources, LavSetting, SourceDescription};
use relcont::obs::Counter;
use relcont::serve::{
    CatalogDelta, CatalogOp, CatalogSnapshot, CounterSink, Request, ServeConfig, ServeCore,
};

/// Example 1's sources plus one auxiliary view over predicates the
/// paper's queries never mention.
fn churned_catalog() -> LavSetting {
    let mut views = LavSetting::parse(&[
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).",
        "AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.",
        "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    ])
    .unwrap();
    views
        .sources
        .push(SourceDescription::parse("W(A, B) :- wsrc(A, B).").unwrap());
    views
}

fn request(q1: &str, a1: &str, q2: &str, a2: &str) -> Request {
    Request::new(
        parse_program(q1).unwrap(),
        Symbol::new(a1),
        parse_program(q2).unwrap(),
        Symbol::new(a2),
    )
}

/// E1: the paper's running containment q1 ⊑_V q2.
fn e1_request() -> Request {
    request(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
        "q1",
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
        "q2",
    )
}

/// E4 flavor: the semi-interval query (Year < 1970 routes through
/// `AntiqueCars` and the comparison reasoning of Theorem 5.1's route).
fn e4_request() -> Request {
    request(
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
        "q3",
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
        "q2",
    )
}

/// The only workload that depends on the churned view `W`.
fn w_request() -> Request {
    request(
        "qw1(A, B) :- wsrc(A, B).",
        "qw1",
        "qw2(A, B) :- wsrc(A, B).",
        "qw2",
    )
}

/// Satellite regression: fingerprints across interner orders.
///
/// The symbol interner is process-global, so a single process cannot
/// intern the same names in two orders. Instead the test re-executes
/// itself twice as child processes, each pre-interning the workload's
/// names in a different order (forward/reversed) before computing the
/// fingerprint, and asserts both children print the same value. A
/// fingerprint that hashed interned `u32` ids instead of resolved
/// strings would differ between the two children.
#[test]
fn fingerprints_are_independent_of_interner_order() {
    const NAMES: &[&str] = &[
        "CarDesc",
        "Review",
        "RedCars",
        "AntiqueCars",
        "CarAndDriver",
        "W",
        "wsrc",
        "q1",
        "q2",
        "q3",
        "qw1",
        "qw2",
        "CarNo",
        "Model",
        "Year",
        "Color",
        "Rating",
        "red",
    ];
    if let Ok(order) = std::env::var("CHURN_FP_PREWARM") {
        // Child mode: warp the interner's id assignment, then fingerprint.
        match order.as_str() {
            "forward" => NAMES.iter().for_each(|n| {
                Symbol::new(n);
            }),
            "reverse" => NAMES.iter().rev().for_each(|n| {
                Symbol::new(n);
            }),
            other => panic!("unknown prewarm order {other:?}"),
        }
        let core = ServeCore::new(churned_catalog(), ServeConfig::default());
        let snap = core.snapshot();
        let lines: Vec<String> = [
            ("e1", e1_request()),
            ("e4", e4_request()),
            ("w", w_request()),
        ]
        .iter()
        .map(|(tag, req)| format!("fingerprint:{tag}={:032x}", req.fingerprint(&snap)))
        .collect();
        // Report through a file: libtest shares the child's stdout and
        // can interleave its own chatter mid-line.
        std::fs::write(std::env::var("CHURN_FP_OUT").unwrap(), lines.join("\n")).unwrap();
        return;
    }

    let exe = std::env::current_exe().unwrap();
    let run = |order: &str| -> Vec<String> {
        let report = std::env::temp_dir().join(format!(
            "relcont-churn-fp-{}-{order}.txt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&report);
        let out = Command::new(&exe)
            .args([
                "fingerprints_are_independent_of_interner_order",
                "--exact",
                "--nocapture",
            ])
            .env("CHURN_FP_PREWARM", order)
            .env("CHURN_FP_OUT", &report)
            .output()
            .expect("child test process runs");
        assert!(
            out.status.success(),
            "child ({order}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&report).expect("child wrote its report");
        let _ = std::fs::remove_file(&report);
        let mut fps: Vec<String> = text.lines().map(str::to_string).collect();
        fps.sort();
        fps
    };
    let forward = run("forward");
    let reverse = run("reverse");
    assert_eq!(forward.len(), 3, "child printed all three fingerprints");
    assert_eq!(
        forward, reverse,
        "fingerprints depend on interner order: they would not survive \
         a restart or match across processes"
    );
}

/// The acceptance differential: after a delta replacing only `W`, the
/// E1/E4 verdicts survive from the verdict cache (zero fresh disjunct
/// proofs), the `W`-dependent request recomputes, and the total fresh
/// proof work is strictly below a from-scratch rebuild answering the
/// same three workloads.
#[test]
fn one_view_delta_reproves_strictly_fewer_disjuncts_than_rebuild() {
    let core = ServeCore::new(churned_catalog(), ServeConfig::default());
    let _sink = qc_obs::install(Arc::new(CounterSink(Arc::clone(core.counters()))));

    let reqs = [e1_request(), e4_request(), w_request()];
    let mut verdicts = Vec::new();
    for req in &reqs {
        let resp = core.handle(req, 0).unwrap();
        assert_eq!(resp.epoch, 0);
        assert!(
            !matches!(resp.verdict, Verdict::Unknown(_)),
            "warmup must be definite: {:?}",
            resp.verdict
        );
        verdicts.push(resp.verdict);
    }
    let warmed = core.counters().get(Counter::PlanDisjunctsProved);
    assert!(warmed > 0, "the warmup proved disjuncts");

    // Replace only W (with an equivalent definition): touched preds are
    // {W, wsrc}, so E1/E4 keep their fingerprints and cached verdicts.
    let report = core
        .apply_delta(&CatalogDelta::one(CatalogOp::Replace(
            SourceDescription::parse("W(A, B) :- wsrc(A, B).").unwrap(),
        )))
        .unwrap();
    assert_eq!(report.views_recompiled, 1);
    assert_eq!(report.views_reused, 3);
    assert_eq!(core.epoch(), 1);

    for (req, verdict) in reqs.iter().zip(&verdicts) {
        let resp = core.handle(req, 0).unwrap();
        assert_eq!(resp.epoch, 1, "post-delta answers carry the new epoch");
        assert_eq!(
            &resp.verdict, verdict,
            "an equivalent replace cannot change any verdict"
        );
    }
    let delta_cost = core.counters().get(Counter::PlanDisjunctsProved) - warmed;
    assert!(
        core.stats().verdict_cache_hits >= 2,
        "E1 and E4 must ride the verdict cache through the epoch bump"
    );
    assert!(
        delta_cost > 0,
        "the W-dependent request must actually re-prove its disjuncts"
    );

    // From-scratch differential: a cold core at the same catalog answers
    // the same three workloads and pays the full proof bill.
    let rebuild = ServeCore::new(churned_catalog(), ServeConfig::default());
    let _sink = qc_obs::install(Arc::new(CounterSink(Arc::clone(rebuild.counters()))));
    for req in &reqs {
        rebuild.handle(req, 0).unwrap();
    }
    let rebuild_cost = rebuild.counters().get(Counter::PlanDisjunctsProved);
    assert!(rebuild_cost > 0);
    assert!(
        delta_cost < rebuild_cost,
        "one-view delta must re-prove strictly fewer disjuncts than a \
         rebuild: {delta_cost} vs {rebuild_cost}"
    );
}

/// Regression: a checkpoint stored before an unrelated delta must resume
/// against the same plan it was cut from.
///
/// `W`'s footprint `{W, r}` meets none of the request's predicates, so the
/// delta leaves the fingerprint alone and re-tags the stored checkpoint
/// instead of retiring it. If the plan drew on every view, `W`'s
/// existential variable would send function-term elimination down its
/// canonicalizing path and swap the plan's two disjuncts: the resumed
/// index would then name the unproven `B` disjunct, whose expansion
/// `p(X, Y)` is not contained in Q2, and the resubmission would answer
/// `Contained`.
#[test]
fn unrelated_delta_cannot_reorder_a_resumed_plan() {
    let views = LavSetting::parse(&["B(X, Y) :- p(X, Y).", "A(X, Y) :- p(X, Y), s(Y)."]).unwrap();
    let plain = request(
        "q(X, Y) :- p(X, Y).",
        "q",
        "q2(X, Y) :- p(X, Y), s(Y).",
        "q2",
    );
    // Starve a fresh core per budget until one run proves exactly one of
    // the plan's two disjuncts.
    let mut starved = None;
    for budget in 0..64 {
        let core = ServeCore::new(views.clone(), ServeConfig::default());
        let req = Request {
            budget: Some(budget),
            ..plain.clone()
        };
        if let Verdict::Unknown(p) = core.handle(&req, 0).unwrap().verdict {
            if p.disjuncts_total == 2 && p.disjuncts_proven.len() == 1 {
                starved = Some(core);
                break;
            }
        }
    }
    let core = starved.expect("some budget proves exactly one of the two disjuncts");
    let fp = plain.fingerprint(&core.snapshot());
    assert!(core.store().load(fp).is_some(), "the progress was stored");

    core.apply_delta(&CatalogDelta::one(
        CatalogOp::parse("add W(U) :- r(U, V).").unwrap(),
    ))
    .unwrap();
    assert_eq!(
        plain.fingerprint(&core.snapshot()),
        fp,
        "W is irrelevant to the request"
    );
    assert!(core.store().load(fp).is_some(), "re-tagged, not retired");

    let resp = core.handle(&plain, 0).unwrap();
    assert!(resp.resumed, "the resubmission resumed from the store");
    assert_eq!(resp.verdict, Verdict::NotContained);
}

/// Every catalog route reads only the views Q1 reaches, which the request
/// fingerprint hashes: adding a view over other predicates can change
/// neither the verdict the cache keeps nor what a fresh core with the same
/// fingerprint decides. The two questions take the recursive route and
/// Theorem 5.1's semi-interval route; each added view carries a
/// comparison that would refuse the route if the decision read it.
#[test]
fn decisions_read_only_the_views_the_fingerprint_covers() {
    let cases = [
        (
            "V(X, Y) :- edge(X, Y).",
            request(
                "t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).",
                "t",
                "s(X, Y) :- edge(X, A), edge(B, Y).",
                "s",
            ),
            "add W(X) :- other(X), X < 3.",
        ),
        (
            "A(X, Y) :- r(X, Y), Y < 5.",
            request("qa(X) :- r(X, Y), Y < 3.", "qa", "qb(X) :- r(X, Y).", "qb"),
            "add B(X, Y) :- s(X, Y), X < Y.",
        ),
    ];
    for (view, req, add) in cases {
        let core = ServeCore::new(LavSetting::parse(&[view]).unwrap(), ServeConfig::default());
        assert_eq!(core.handle(&req, 0).unwrap().verdict, Verdict::Contained);
        core.apply_delta(&CatalogDelta::one(CatalogOp::parse(add).unwrap()))
            .unwrap();
        let cached = core.handle(&req, 0).unwrap();
        assert_eq!(cached.verdict, Verdict::Contained, "{add}");
        let fresh = ServeCore::new(core.snapshot().views().clone(), ServeConfig::default());
        assert_eq!(
            req.fingerprint(&fresh.snapshot()),
            req.fingerprint(&core.snapshot()),
            "{add}"
        );
        let decided = fresh
            .handle(&req, 0)
            .expect("the added view is out of scope");
        assert_eq!(decided.verdict, cached.verdict, "{add}");
    }
}

/// The fingerprint formula journals and client checkpoints were written
/// with, recomputed from resolved strings alone: the rendered programs and
/// answer names, then `(rendered source, version)` for each view in
/// catalog order whose name or body predicates meet the predicates of
/// either program.
fn reference_fingerprint(req: &Request, snap: &CatalogSnapshot) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    req.q1.to_string().hash(&mut h);
    req.ans1.as_str().hash(&mut h);
    req.q2.to_string().hash(&mut h);
    req.ans2.as_str().hash(&mut h);
    let mut preds = BTreeSet::new();
    for prog in [&req.q1, &req.q2] {
        for rule in prog.rules() {
            preds.insert(rule.head.pred.to_string());
            for a in rule.body_atoms() {
                preds.insert(a.pred.to_string());
            }
        }
    }
    for e in snap.catalog().entries() {
        let mut view_preds = vec![e.source.name.to_string()];
        view_preds.extend(e.source.view.subgoals.iter().map(|a| a.pred.to_string()));
        if view_preds.iter().any(|p| preds.contains(p)) {
            e.source.to_string().hash(&mut h);
            e.version.hash(&mut h);
        }
    }
    h.finish()
}

/// Fingerprints are stored in journals and client checkpoints, so their
/// values must not move: every request here fingerprints exactly as the
/// reference formula says, on Example 1's catalog and on the churned
/// catalog before and after each of a run of deltas.
#[test]
fn fingerprint_values_match_the_reference_formula() {
    let e1_reverse = request(
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
        "q2",
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
        "q1",
    );
    let reqs = [e1_request(), e1_reverse, e4_request(), w_request()];
    let check = |core: &ServeCore, when: &str| {
        let snap = core.snapshot();
        for req in &reqs {
            assert_eq!(
                req.fingerprint(&snap),
                reference_fingerprint(req, &snap),
                "{when}: {} vs {}",
                req.ans1,
                req.ans2
            );
        }
    };
    check(
        &ServeCore::new(example1_sources(), ServeConfig::default()),
        "Example 1",
    );

    let core = ServeCore::new(churned_catalog(), ServeConfig::default());
    check(&core, "churned catalog at epoch 0");
    for line in [
        "replace W(A, B) :- wsrc(A, B), wsrc(B, A).",
        "add Cheap(M, R) :- Review(M, R, 1).",
        "add Z(U) :- zsrc(U, V).",
        "rm RedCars",
        "replace CarAndDriver(Model, Review) :- Review(Model, Review, 9).",
        "rm W",
    ] {
        core.apply_delta(&CatalogDelta::one(CatalogOp::parse(line).unwrap()))
            .unwrap();
        check(&core, line);
    }
}
