//! Resumable-verdict differential tests: a run continued from a
//! checkpoint must reach exactly the verdict a one-shot unlimited run
//! would, wherever the original run stopped — before the first disjunct,
//! mid-plan, or after the last disjunct — whatever ran on the service
//! before it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use relcont::datalog::{parse_program, Program, Symbol};
use relcont::mediator::reductions::{random_cnf3, thm33_reduction};
use relcont::mediator::relative::{relatively_contained_by_plans, Verdict};
use relcont::mediator::schema::{example1_sources, LavSetting};
use relcont::mediator::workloads::{query_program, random_query, random_views, Shape};
use relcont::serve::{Checkpoint, Request, ServeConfig, ServeCore};

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

/// The Example 1 request whose one-shot unlimited verdict is `Contained`.
fn contained_request() -> Request {
    Request::new(q1_prog(), sym("q1"), q2_prog(), sym("q2"))
}

/// Sweeps budgets until a starved run checkpoints with the requested
/// amount of per-disjunct progress (`want_proven`: whether at least one
/// disjunct must already be proven). Returns the checkpoint and the
/// budget that produced it.
fn starved_checkpoint(core: &ServeCore, want_proven: bool) -> (Checkpoint, u64) {
    for budget in 1..5_000 {
        let mut req = contained_request();
        req.budget = Some(budget);
        let resp = core.handle(&req, 0).expect("starved run");
        if let Verdict::Unknown(p) = &resp.verdict {
            if let Some(cp) = resp.checkpoint {
                if p.disjuncts_proven.is_empty() != want_proven {
                    return (cp, budget);
                }
            }
        }
    }
    panic!("no budget produced the requested checkpoint shape");
}

/// Checkpoint taken at disjunct 0: the budget ran out after planning but
/// before any disjunct was proven. Resuming skips nothing, yet must
/// still reach the one-shot verdict.
#[test]
fn resume_from_checkpoint_at_disjunct_zero() {
    let core = ServeCore::new(example1_sources(), ServeConfig::default());
    let (cp, _) = starved_checkpoint(&core, false);
    assert!(cp.proven.is_empty());
    assert!(cp.disjuncts_total > 0);

    let mut retry = contained_request();
    retry.checkpoint = Some(cp);
    let resp = core.handle(&retry, 0).expect("resumed run");
    assert!(resp.resumed);
    assert_eq!(resp.verdict, Verdict::Contained);
}

/// Checkpoint claiming every disjunct proven (the honest state after the
/// last disjunct of a contained pair): the resumed run skips the whole
/// loop and must report `Contained` immediately.
#[test]
fn resume_from_checkpoint_after_last_disjunct() {
    let core = ServeCore::new(example1_sources(), ServeConfig::default());
    // `starve_budget` is big enough to finish planning but too small to
    // prove even one disjunct: any verdict it reaches below must come
    // from the checkpoint, not from re-proving.
    let (cp, starve_budget) = starved_checkpoint(&core, false);

    let mut req = contained_request();
    req.checkpoint = Some(Checkpoint {
        fingerprint: req.fingerprint(&core.snapshot()),
        disjuncts_total: cp.disjuncts_total,
        proven: (0..cp.disjuncts_total).collect(),
        epoch: core.epoch(),
        preds: req.pred_names().into_iter().collect(),
    });
    req.budget = Some(starve_budget);
    let resp = core.handle(&req, 0).expect("resumed run");
    assert!(resp.resumed);
    assert_eq!(resp.verdict, Verdict::Contained);
}

/// After starved runs, escalating the budget and handing back each
/// checkpoint must still reach the one-shot verdict, `Contained`.
#[test]
fn escalation_after_starved_runs_reaches_contained() {
    let views = LavSetting::parse(&["v(X, Y) :- e(X, Y)."]).unwrap();
    let mut req = Request::new(
        parse_program("qs(X, Y) :- e(X, Y).").unwrap(),
        sym("qs"),
        parse_program("qt(X, Y) :- e(X, Y).").unwrap(),
        sym("qt"),
    );
    let core = ServeCore::new(views, ServeConfig::default());
    let mut starved = req.clone();
    starved.budget = Some(1);
    for _ in 0..6 {
        let resp = core.handle(&starved, 0).expect("starved run");
        assert!(
            matches!(resp.verdict, Verdict::Unknown(_)),
            "budget 1 trips"
        );
    }

    let mut budget = 1u64;
    let verdict = loop {
        req.budget = Some(budget);
        let resp = core.handle(&req, 0).expect("escalation run");
        match resp.verdict {
            Verdict::Unknown(p) => {
                assert!(
                    budget < 1 << 28,
                    "stalled at budget {budget}: {}",
                    p.resource
                );
                if resp.checkpoint.is_some() {
                    req.checkpoint = resp.checkpoint;
                }
                budget *= 2;
            }
            v => break v,
        }
    };
    assert_eq!(verdict, Verdict::Contained);
}

/// Ten distinct Theorem 3.3 questions (m = 4) through one core with a
/// small pool. A grant depends only on the request and the queue depth,
/// so every answer must equal a fresh core's, verdict and units consumed
/// alike: the tenth question gets the grant the first one got.
#[test]
fn distinct_questions_get_the_grant_of_a_fresh_core() {
    let cfg = || ServeConfig {
        pool: 20_000,
        ..ServeConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let instances: Vec<_> = (0..10)
        .map(|_| thm33_reduction(&random_cnf3(3, 4, 4, &mut rng)))
        .collect();
    // The views depend only on m and the clause count: every draw's are
    // the first draw's.
    let views = instances[0].views.clone();
    let core = ServeCore::new(views.clone(), cfg());
    let mut seen = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        let req = Request::new(
            inst.contained.clone(),
            inst.contained_ans,
            inst.container.clone(),
            inst.container_ans,
        );
        let fp = req.fingerprint(&core.snapshot());
        assert!(!seen.contains(&fp), "question {i} repeats an earlier one");
        seen.push(fp);
        let resp = core.handle(&req, 0).expect("shared core");
        let fresh = ServeCore::new(views.clone(), cfg())
            .handle(&req, 0)
            .expect("fresh core");
        assert!(
            !matches!(resp.verdict, Verdict::Unknown(_)),
            "question {i}: {}",
            resp.verdict
        );
        assert_eq!(resp.verdict, fresh.verdict, "question {i}");
        assert_eq!(resp.consumed, fresh.consumed, "question {i}");
    }
}

/// A checkpoint as older builds wrote it, with a `memo_resident` field
/// the checkpoint no longer has, still parses and resumes.
#[test]
fn checkpoint_json_with_memo_resident_resumes() {
    let core = ServeCore::new(example1_sources(), ServeConfig::default());
    let (cp, _) = starved_checkpoint(&core, true);
    let json = cp.to_json();
    let old = json.replacen('{', "{\"memo_resident\":3,", 1);
    assert!(old.contains("\"memo_resident\":3"), "{old}");
    let back = Checkpoint::from_json(&old).expect("older checkpoint parses");
    assert_eq!(back, cp);

    let mut retry = contained_request();
    retry.checkpoint = Some(back);
    let resp = core.handle(&retry, 0).expect("resumed run");
    assert!(resp.resumed);
    assert_eq!(resp.verdict, Verdict::Contained);
}

/// The verdict of Theorem 3.1's plan comparison, which shares no decision
/// code with the serve route, if it decides the workload.
fn oracle_verdict(req: &Request, core: &ServeCore) -> Option<Verdict> {
    match relatively_contained_by_plans(
        &req.q1,
        &req.ans1,
        &req.q2,
        &req.ans2,
        core.snapshot().views(),
    ) {
        Ok(true) => Some(Verdict::Contained),
        Ok(false) => Some(Verdict::NotContained),
        Err(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Escalate-and-resume differential on random chain workloads: start
    /// at a random tiny budget, double and resume from each checkpoint;
    /// the first definite verdict must equal the one-shot unlimited one.
    #[test]
    fn escalating_resume_reaches_the_one_shot_verdict(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = sym("q");
        let cq1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, &mut rng);
        let cq2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, &mut rng);
        let views = random_views(3, 2, &mut rng);
        let core = ServeCore::new(views, ServeConfig::default());
        let mut req = Request::new(
            query_program(&cq1), q, query_program(&cq2), q,
        );
        let Some(oracle) = oracle_verdict(&req, &core) else {
            return Ok(()); // degenerate drawing: nothing to compare against
        };

        let mut budget = 1 + rng.gen_range(0..32) as u64;
        let mut rounds = 0usize;
        let final_verdict = loop {
            rounds += 1;
            prop_assert!(rounds <= 64, "escalation failed to converge");
            req.budget = Some(budget);
            let resp = core.handle(&req, 0).expect("escalation run");
            match resp.verdict {
                Verdict::Unknown(_) => {
                    if resp.checkpoint.is_some() {
                        req.checkpoint = resp.checkpoint;
                    }
                    budget = budget.saturating_mul(2);
                }
                v => break v,
            }
        };
        prop_assert_eq!(final_verdict, oracle);
    }
}
