//! Resumable-verdict differential tests: a run continued from a
//! checkpoint must reach exactly the verdict a one-shot unlimited run
//! would, wherever the original run stopped — before the first disjunct,
//! mid-plan, after the last disjunct, or inside MiniCon planning before
//! the per-disjunct loop even starts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use relcont::datalog::{parse_program, Program, Symbol};
use relcont::guard::stage;
use relcont::mediator::relative::{relatively_contained_by_plans, Verdict};
use relcont::mediator::schema::{example1_sources, LavSetting};
use relcont::mediator::workloads::{query_program, random_query, random_views, Shape};
use relcont::serve::{Checkpoint, Request, ServeConfig, ServeCore, Tier};

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

/// A core whose ladder never degrades: these tests starve runs on
/// purpose, and a tier walk would change which procedure answers.
fn pinned_core() -> ServeCore {
    let cfg = ServeConfig {
        trip_threshold: u32::MAX,
        ..ServeConfig::default()
    };
    ServeCore::new(example1_sources(), cfg)
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
    let core = pinned_core();
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
    let core = pinned_core();
    // `starve_budget` is big enough to finish planning but too small to
    // prove even one disjunct: any verdict it reaches below must come
    // from the checkpoint, not from re-proving.
    let (cp, starve_budget) = starved_checkpoint(&core, false);

    let mut req = contained_request();
    req.checkpoint = Some(Checkpoint {
        fingerprint: req.fingerprint(&core.snapshot()),
        disjuncts_total: cp.disjuncts_total,
        proven: (0..cp.disjuncts_total).collect(),
        memo_resident: 0,
        epoch: None,
        preds: None,
    });
    req.budget = Some(starve_budget);
    let resp = core.handle(&req, 0).expect("resumed run");
    assert!(resp.resumed);
    assert_eq!(resp.verdict, Verdict::Contained);
}

/// Budget 1 at the MiniCon-only tier trips inside `minicon_rewritings`
/// before any disjunct is examined: no progress, no checkpoint — and the
/// plain retry with an adequate budget still reaches the one-shot
/// verdict (`NotContained`, which this tier may prove).
#[test]
fn trip_inside_minicon_before_any_disjunct_then_retry() {
    let views = LavSetting::parse(&["v(X, Y) :- e(X, Y)."]).unwrap();
    let far = parse_program("qf(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
    let near = parse_program("qn(X, Z) :- e(X, Z).").unwrap();
    let cfg = ServeConfig {
        trip_threshold: 1,
        recover_threshold: 100,
        ..ServeConfig::default()
    };
    let core = ServeCore::new(views, cfg);
    let req = Request::new(far, sym("qf"), near, sym("qn"));

    // Two starved runs walk the ladder to the bottom tier.
    let mut starved = req.clone();
    starved.budget = Some(1);
    for _ in 0..2 {
        core.handle(&starved, 0).expect("starved run");
    }
    assert_eq!(core.tier(), Tier::MiniconOnly);

    let resp = core.handle(&starved, 0).expect("minicon-tier starved run");
    assert_eq!(resp.tier, Tier::MiniconOnly);
    match &resp.verdict {
        Verdict::Unknown(p) => {
            assert_eq!(
                p.resource.stage,
                stage::MINICON,
                "tripped forming the first MCD"
            );
            assert!(p.disjuncts_proven.is_empty());
            assert_eq!(p.disjuncts_total, 0, "no disjunct was examined");
            assert!(resp.checkpoint.is_none(), "nothing worth resuming from");
        }
        other => panic!("budget 1 finished?! {other:?}"),
    }

    let resp = core.handle(&req, 0).expect("full-grant retry");
    assert_eq!(resp.tier, Tier::MiniconOnly);
    assert!(!resp.resumed);
    assert_eq!(
        resp.verdict,
        Verdict::NotContained,
        "retry matches the one-shot unlimited verdict"
    );
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
        let cfg = ServeConfig { trip_threshold: u32::MAX, ..ServeConfig::default() };
        let core = ServeCore::new(views, cfg);
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
            prop_assert_eq!(resp.tier, Tier::Full, "pinned ladder must not move");
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
