//! `churn_chaos` — live catalog churn against the serving layer.
//!
//! For a corpus of random chain workloads (oracle-checked, as in
//! `durability_chaos`), each trial interleaves catalog deltas — view
//! add/remove/replace — with concurrent requests, checkpoint resumes,
//! kill-mid-append restarts, and stale-checkpoint retry storms. The
//! invariants (DESIGN.md §16):
//!
//! 1. **No unsound verdicts per epoch** — every definite answer equals
//!    the unguarded oracle computed against the fixed catalog of the
//!    epoch the response reports.
//! 2. **No mixed-catalog verdicts** — a response's epoch is always one
//!    the trial actually created; snapshot-on-admission means the run saw
//!    that catalog and no other (checked through invariant 1: when the
//!    delta flips the oracle, a mixed run would match neither epoch).
//! 3. **Stale-epoch checkpoints are always rejected, as such** — a
//!    checkpoint cut before a delta resubmitted after it draws a typed
//!    [`RejectReason::StaleEpoch`], never a resume; journaled checkpoints
//!    from a different catalog are swept at restart.
//! 4. **One-view deltas re-prove only affected disjuncts** — after a
//!    delta touching only an unrelated view, re-answering an untouched
//!    request proves zero fresh plan disjuncts (counter-checked), while a
//!    from-scratch rebuild re-proves them all.
//!
//! `--inject-stale-epoch` is the negative self-test: it forges the stale
//! checkpoint's epoch tag to the current epoch before resubmitting, so
//! the core accepts the resume and the suite's rejection assertions must
//! fail — proving they would catch a real invalidation bug. CI runs it
//! negated.
//!
//! ```sh
//! cargo run --release -p qc-bench --bin churn_chaos -- --trials 300 --seed 17
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use qc_datalog::Symbol;
use qc_guard::{stage, FaultKind, FaultPlan};
use qc_mediator::relative::{decide, Question, Sources, Verdict};
use qc_mediator::schema::{LavSetting, SourceDescription};
use qc_mediator::workloads::{query_program, random_query, random_views, Shape};
use qc_obs::Counter;
use qc_serve::{
    CatalogDelta, CatalogOp, CounterSink, FileJournal, RejectReason, Request, ServeConfig,
    ServeCore, Service, Ticket,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Default)]
struct Tally {
    trials: usize,
    deltas: u64,
    kills: usize,
    stale_rejections: u64,
    cache_survivals: u64,
    sweeps: usize,
    failures: usize,
    seed: u64,
    inject_stale_epoch: bool,
}

impl Tally {
    fn fail(&mut self, trial: usize, msg: &str) {
        eprintln!("FAIL trial {trial}: {msg}");
        eprintln!(
            "  repro: cargo run --release -p qc-bench --bin churn_chaos -- \
             --trials 1 --seed {}{}",
            self.seed.wrapping_add(trial as u64),
            if self.inject_stale_epoch {
                " --inject-stale-epoch"
            } else {
                ""
            }
        );
        self.failures += 1;
    }
}

struct Case {
    views: LavSetting,
    req: Request,
    oracle: Verdict,
}

fn random_case(rng: &mut StdRng) -> Option<Case> {
    let q = Symbol::new("q");
    let cq1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
    let cq2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
    let views = random_views(3, 2, rng);
    let p1 = query_program(&cq1);
    let p2 = query_program(&cq2);
    let oracle =
        match decide(&Question::new(&p1, &q, &p2, &q), Sources::Views(&views)).map(|d| d.verdict) {
            Ok(v @ (Verdict::Contained | Verdict::NotContained)) => v,
            _ => return None,
        };
    Some(Case {
        views,
        req: Request::new(p1, q, p2, q),
        oracle,
    })
}

/// An auxiliary view over predicates no chain workload mentions: deltas
/// touching only this view must leave every workload's verdict — and its
/// cached artifacts — untouched.
fn aux_view(generation: u64) -> SourceDescription {
    SourceDescription::parse(&format!("ZzAux(X, Y) :- zzaux{generation}(X, Y)."))
        .expect("aux view parses")
}

/// `case.views` plus the generation-0 aux view: the serving catalog every
/// scenario starts from.
fn catalog0(case: &Case) -> LavSetting {
    let mut views = case.views.clone();
    views.sources.push(aux_view(0));
    views
}

/// A core whose ladder never steps down: deliberate budget starvation
/// would otherwise degrade to the MiniCon-only tier, which cannot prove
/// `Contained` at any budget.
fn pinned_core(views: &LavSetting) -> ServeCore {
    let cfg = ServeConfig {
        trip_threshold: u32::MAX,
        ..ServeConfig::default()
    };
    ServeCore::new(views.clone(), cfg)
}

fn pinned_core_with_store(views: &LavSetting, store: Arc<FileJournal>) -> ServeCore {
    let cfg = ServeConfig {
        trip_threshold: u32::MAX,
        ..ServeConfig::default()
    };
    ServeCore::with_store(views.clone(), cfg, store)
}

/// Starves `req` on `core` with a gentle budget climb until an `Unknown`
/// checkpoints partial progress. Returns `None` if the workload finishes
/// before ever checkpointing (cheap workloads do).
fn starve_to_checkpoint(core: &ServeCore, req: &Request) -> Option<(u64, qc_serve::Checkpoint)> {
    let mut budget = 4u64;
    for _ in 0..40 {
        let mut starved = req.clone();
        starved.budget = Some(budget);
        let resp = core.handle(&starved, 0).ok()?;
        match resp.verdict {
            Verdict::Unknown(_) => {
                if let Some(cp) = resp.checkpoint {
                    if !cp.proven.is_empty() {
                        return Some((budget, cp));
                    }
                }
            }
            _ => return None,
        }
        budget = budget.saturating_add(budget / 4).saturating_add(1);
    }
    None
}

/// Invariants 1 + 2: a service answering concurrent requests while the
/// catalog flips under it. Epoch 0 is the full catalog; the delta removes
/// one of the workload's own views, which may flip the verdict. Every
/// definite reply must match the oracle of the epoch it reports — a run
/// against a half-updated catalog would match neither.
fn check_epoch_flip(trial: usize, case: &Case, rng: &mut StdRng, tally: &mut Tally) {
    let cat0 = catalog0(case);
    let victim = case.views.sources[rng.gen_range(0..case.views.sources.len())]
        .name
        .to_string();
    let mut cat1 = cat0.clone();
    cat1.sources.retain(|s| s.name.as_str() != victim);
    let q = Symbol::new("q");
    let oracle1 = match decide(
        &Question::new(&case.req.q1, &q, &case.req.q2, &q),
        Sources::Views(&cat1),
    )
    .map(|d| d.verdict)
    {
        Ok(v @ (Verdict::Contained | Verdict::NotContained)) => v,
        _ => return, // epoch-1 oracle indefinite: nothing to check against
    };

    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        start_paused: true,
        trip_threshold: u32::MAX,
        ..ServeConfig::default()
    };
    let svc = Service::start(cat0, cfg);
    let mut tickets: Vec<Ticket> = Vec::new();
    for i in 0..3 {
        match svc.submit(case.req.clone()) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                tally.fail(trial, &format!("pre-delta submit {i} failed: {e}"));
                return;
            }
        }
    }
    svc.unpause();
    // The delta races the in-flight epoch-0 requests: admitted snapshots
    // must keep serving epoch 0 while the swap lands.
    if let Err(e) = svc.apply_delta(&CatalogDelta::one(CatalogOp::Remove(victim))) {
        tally.fail(trial, &format!("delta refused: {e}"));
        return;
    }
    tally.deltas += 1;
    for i in 0..3 {
        match svc.submit(case.req.clone()) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                tally.fail(trial, &format!("post-delta submit {i} failed: {e}"));
                return;
            }
        }
    }
    for (i, t) in tickets.into_iter().enumerate() {
        let resp = match t.wait() {
            Ok(r) => r,
            Err(e) => {
                tally.fail(trial, &format!("churned job {i} was lost: {e}"));
                continue;
            }
        };
        let expected = match resp.epoch {
            0 => &case.oracle,
            1 => &oracle1,
            other => {
                tally.fail(
                    trial,
                    &format!("job {i} reports epoch {other}, never created"),
                );
                continue;
            }
        };
        if let v @ (Verdict::Contained | Verdict::NotContained) = &resp.verdict {
            if v != expected {
                tally.fail(
                    trial,
                    &format!(
                        "job {i} at epoch {}: {v:?} contradicts that epoch's \
                         oracle {expected:?}",
                        resp.epoch
                    ),
                );
            }
        }
    }
    svc.shutdown();
}

/// Invariant 3 (client side), as a retry storm: a checkpoint cut at epoch
/// 0 and resubmitted repeatedly after a delta must draw a typed
/// `StaleEpoch` rejection every time — even though the delta touched only
/// the unrelated aux view, so the fingerprint still matches. The
/// recomputed verdict must still be the oracle's.
///
/// Under `--inject-stale-epoch` the checkpoint's epoch tag is forged to
/// the current epoch first; the core then accepts the resume and the
/// rejection assertions below fail, which is the self-test's job.
fn check_stale_storm(trial: usize, case: &Case, tally: &mut Tally) {
    let core = pinned_core(&catalog0(case));
    let Some((_, cp)) = starve_to_checkpoint(&core, &case.req) else {
        return;
    };
    if cp.epoch != Some(0) {
        tally.fail(
            trial,
            &format!("fresh checkpoint tagged {:?}, not epoch 0", cp.epoch),
        );
        return;
    }
    if core
        .apply_delta(&CatalogDelta::one(CatalogOp::Replace(aux_view(0))))
        .is_err()
    {
        tally.fail(trial, "aux self-replace refused");
        return;
    }
    tally.deltas += 1;
    let mut stale = cp;
    if tally.inject_stale_epoch {
        stale.epoch = Some(core.epoch());
    }
    for attempt in 0..3 {
        let mut req = case.req.clone();
        req.checkpoint = Some(stale.clone());
        let resp = match core.handle(&req, 0) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(trial, &format!("storm attempt {attempt} errored: {e}"));
                return;
            }
        };
        match &resp.checkpoint_rejected {
            Some(r) if r.kind == RejectReason::StaleEpoch => tally.stale_rejections += 1,
            Some(r) => {
                tally.fail(
                    trial,
                    &format!("attempt {attempt} rejected as {:?}, not StaleEpoch", r.kind),
                );
                return;
            }
            None => {
                tally.fail(
                    trial,
                    &format!("attempt {attempt}: stale-epoch checkpoint was accepted"),
                );
                return;
            }
        }
        if resp.resumed {
            tally.fail(
                trial,
                &format!("attempt {attempt} resumed from a stale epoch"),
            );
            return;
        }
        if resp.verdict != case.oracle {
            tally.fail(
                trial,
                &format!(
                    "post-rejection recompute {:?} contradicts oracle {:?}",
                    resp.verdict, case.oracle
                ),
            );
            return;
        }
    }
}

/// Invariant 3 (journal side) plus the kill: progress journaled under a
/// churned catalog — sometimes through a mid-append kill that tears the
/// tail — must be swept, not resumed, when the process restarts with a
/// *different* catalog; and a further restart with the *same* catalog
/// adopts the bumped epoch instead of bumping again. (A delta runs in
/// phase A first: a journal that never churned carries no epoch record,
/// and its fingerprint-matching checkpoints are honored by design — the
/// precise fingerprint already proves their relevant views unchanged.)
fn check_restart_churn(trial: usize, case: &Case, dir: &Path, rng: &mut StdRng, tally: &mut Tally) {
    let path = dir.join(format!("trial-{trial}.qcj"));
    let _ = std::fs::remove_file(&path);
    let cat0 = catalog0(case);

    // --- Phase A: journal partial progress at epoch 0, then die. ---
    {
        let journal = match FileJournal::open(&path) {
            Ok(j) => Arc::new(j),
            Err(e) => {
                tally.fail(trial, &format!("journal open failed: {e}"));
                return;
            }
        };
        let core = pinned_core_with_store(&cat0, Arc::clone(&journal));
        let Some((b_star, cp)) = starve_to_checkpoint(&core, &case.req) else {
            let _ = std::fs::remove_file(&path);
            return; // workload too cheap to checkpoint; nothing at stake
        };
        // Churn once so the journal carries an epoch record (epoch 1);
        // the aux self-replace leaves the checkpoint's relevant views —
        // and hence its fingerprint — untouched, so it survives re-tagged.
        if core
            .apply_delta(&CatalogDelta::one(CatalogOp::Replace(aux_view(0))))
            .is_err()
        {
            tally.fail(trial, "phase A aux self-replace refused");
            return;
        }
        tally.deltas += 1;
        // Sometimes die *inside* an append: rerun the budget that first
        // journaled with an explicit empty checkpoint (the store's
        // auto-resume would skip the proven disjuncts and dodge the
        // save), so a stage::JOURNAL panic fault fires between the two
        // halves of the record write and leaves a torn tail for replay
        // to heal before the catalog comparison even runs.
        if rng.gen_bool(0.4) {
            let mut replay = case.req.clone();
            replay.budget = Some(b_star);
            replay.checkpoint = Some(qc_serve::Checkpoint {
                fingerprint: cp.fingerprint,
                disjuncts_total: cp.disjuncts_total,
                proven: Vec::new(),
                memo_resident: 0,
                epoch: None,
                preds: None,
            });
            replay.fault = Some(FaultPlan {
                stage: stage::JOURNAL,
                at_tick: 1,
                kind: FaultKind::Panic,
            });
            if catch_unwind(AssertUnwindSafe(|| core.handle(&replay, 0))).is_err() {
                tally.kills += 1;
            }
        }
    }

    // --- Phase B: restart with a changed catalog (aux view redefined).
    let mut cat1 = cat0.clone();
    cat1.sources.retain(|s| s.name.as_str() != "ZzAux");
    cat1.sources.push(aux_view(1));
    let journal = match FileJournal::open(&path) {
        Ok(j) => Arc::new(j),
        Err(e) => {
            tally.fail(trial, &format!("journal reopen failed: {e}"));
            return;
        }
    };
    let core = pinned_core_with_store(&cat1, Arc::clone(&journal));
    let epoch_b = core.epoch();
    if epoch_b == 0 {
        tally.fail(trial, "changed catalog did not bump the epoch at restart");
    }
    if core.stats().journal_live != 0 {
        tally.fail(
            trial,
            &format!(
                "{} cross-epoch checkpoint(s) survived the restart sweep",
                core.stats().journal_live
            ),
        );
        return;
    }
    tally.sweeps += 1;
    // The swept journal must not feed a resume; the recompute must still
    // reach the oracle (the aux view cannot affect it).
    let mut probe = case.req.clone();
    probe.budget = Some(4);
    match core.handle(&probe, 0) {
        Ok(resp) if resp.resumed => {
            tally.fail(trial, "restart resumed from a swept cross-epoch checkpoint");
            return;
        }
        Ok(_) => {}
        Err(e) => {
            tally.fail(trial, &format!("post-sweep probe errored: {e}"));
            return;
        }
    }
    let mut budget = 8u64;
    loop {
        let mut req = case.req.clone();
        req.budget = Some(budget);
        let resp = match core.handle(&req, 0) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(trial, &format!("post-sweep escalation errored: {e}"));
                return;
            }
        };
        match resp.verdict {
            Verdict::Unknown(_) => {
                if budget > 1 << 40 {
                    tally.fail(trial, "post-sweep escalation never reached a verdict");
                    return;
                }
                budget = budget.saturating_mul(2);
            }
            v => {
                if v != case.oracle {
                    tally.fail(
                        trial,
                        &format!("post-sweep verdict {v:?} contradicts oracle"),
                    );
                }
                break;
            }
        }
    }

    // --- Phase C: restart again, same catalog: the epoch is adopted. ---
    drop(core);
    let journal = match FileJournal::open(&path) {
        Ok(j) => Arc::new(j),
        Err(e) => {
            tally.fail(trial, &format!("journal third open failed: {e}"));
            return;
        }
    };
    let core = pinned_core_with_store(&cat1, journal);
    if core.epoch() != epoch_b {
        tally.fail(
            trial,
            &format!(
                "unchanged catalog restarted at epoch {}, expected adopted {epoch_b}",
                core.epoch()
            ),
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Invariant 4: after a delta touching only the unrelated aux view, an
/// untouched request's answer survives from the verdict cache — zero
/// fresh disjunct proofs — while a from-scratch rebuild of the same
/// catalog re-proves the full plan.
fn check_precise_invalidation(trial: usize, case: &Case, tally: &mut Tally) {
    let warm = pinned_core(&catalog0(case));
    let _sink = qc_obs::install(Arc::new(CounterSink(Arc::clone(warm.counters()))));
    let resp = match warm.handle(&case.req, 0) {
        Ok(r) => r,
        Err(e) => {
            tally.fail(trial, &format!("warmup request errored: {e}"));
            return;
        }
    };
    if resp.verdict != case.oracle {
        tally.fail(trial, "warmup verdict contradicts oracle");
        return;
    }
    let before = warm.counters().get(Counter::PlanDisjunctsProved);
    if warm
        .apply_delta(&CatalogDelta::one(CatalogOp::Replace(aux_view(0))))
        .is_err()
    {
        tally.fail(trial, "aux self-replace refused");
        return;
    }
    tally.deltas += 1;
    let resp = match warm.handle(&case.req, 0) {
        Ok(r) => r,
        Err(e) => {
            tally.fail(trial, &format!("post-delta request errored: {e}"));
            return;
        }
    };
    if resp.epoch != 1 {
        tally.fail(
            trial,
            &format!("post-delta answer at epoch {}, not 1", resp.epoch),
        );
        return;
    }
    if resp.verdict != case.oracle {
        tally.fail(trial, "post-delta verdict contradicts oracle");
        return;
    }
    let re_proved = warm.counters().get(Counter::PlanDisjunctsProved) - before;
    if re_proved != 0 {
        tally.fail(
            trial,
            &format!(
                "unrelated delta re-proved {re_proved} disjunct(s) for an \
                 untouched request"
            ),
        );
        return;
    }
    if warm.stats().verdict_cache_hits == 0 {
        tally.fail(
            trial,
            "untouched request missed the verdict cache after the delta",
        );
        return;
    }
    tally.cache_survivals += 1;

    // The differential: a cold rebuild of the exact same catalog pays the
    // full proof bill the delta path just avoided.
    let mut cat1 = catalog0(case);
    cat1.sources.retain(|s| s.name.as_str() != "ZzAux");
    cat1.sources.push(aux_view(0));
    let cold = pinned_core(&cat1);
    let _sink = qc_obs::install(Arc::new(CounterSink(Arc::clone(cold.counters()))));
    if cold.handle(&case.req, 0).is_err() {
        tally.fail(trial, "cold rebuild request errored");
        return;
    }
    let rebuilt = cold.counters().get(Counter::PlanDisjunctsProved);
    if rebuilt > 0 && re_proved >= rebuilt {
        tally.fail(
            trial,
            &format!(
                "delta path proved {re_proved} disjuncts, rebuild proved \
                 {rebuilt}: no work was saved"
            ),
        );
    }
}

fn main() -> ExitCode {
    let mut trials = 300usize;
    let mut seed = 20260808u64;
    let mut inject_stale_epoch = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trials" => trials = args.next().and_then(|v| v.parse().ok()).unwrap_or(trials),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--inject-stale-epoch" => inject_stale_epoch = true,
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }

    // Injected kill panics are expected; keep backtraces out of the
    // report. Failures reproduce from the printed seed.
    std::panic::set_hook(Box::new(|_| {}));

    let dir: PathBuf =
        std::env::temp_dir().join(format!("qc-churn-chaos-{}-{seed}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create scratch dir {}: {e}", dir.display());
        return ExitCode::from(2);
    }

    let mut tally = Tally {
        seed,
        inject_stale_epoch,
        ..Tally::default()
    };
    let mut skipped = 0usize;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(trial as u64));
        let Some(case) = random_case(&mut rng) else {
            skipped += 1;
            continue;
        };
        tally.trials += 1;
        check_stale_storm(trial, &case, &mut tally);
        check_restart_churn(trial, &case, &dir, &mut rng, &mut tally);
        // Thread spin-up and cold rebuilds dominate the cheap workloads;
        // sample the service race and the counter differential.
        if trial % 5 == 0 {
            check_epoch_flip(trial, &case, &mut rng, &mut tally);
            check_precise_invalidation(trial, &case, &mut tally);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "churn_chaos: {} trials ({} skipped), {} deltas applied, {} mid-append \
         kills, {} stale-epoch rejections, {} restart sweeps, {} cache \
         survivals, {} failures",
        tally.trials,
        skipped,
        tally.deltas,
        tally.kills,
        tally.stale_rejections,
        tally.sweeps,
        tally.cache_survivals,
        tally.failures,
    );
    if tally.failures > 0 {
        eprintln!("\nchurn chaos suite found invariant violations");
        ExitCode::from(1)
    } else {
        println!(
            "\nno unsound or mixed-catalog verdicts, stale epochs always \
             rejected, invalidation precise"
        );
        ExitCode::SUCCESS
    }
}
