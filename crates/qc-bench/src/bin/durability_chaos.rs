//! `durability_chaos` — kill–restart chaos for the durable serving layer.
//!
//! For a corpus of random chain workloads and multi-disjunct plans
//! (oracle-checked, as in `service_chaos`), each trial runs a serving
//! **generation** against a
//! file-backed checkpoint journal, kills it — sometimes mid-append, via a
//! `stage::JOURNAL` panic fault that tears the record in half — sometimes
//! after corrupting the journal file directly, and then restarts against
//! the same file. The invariants (DESIGN.md §15):
//!
//! 1. **No unsound verdicts** — every definite answer, before or after
//!    the restart, equals the unguarded oracle.
//! 2. **No lost progress** — when the journal survives intact (including
//!    a torn final record, which replay truncates), the restarted
//!    generation resumes from a checkpoint at least as advanced as the
//!    last durably-acknowledged one: the proven-disjunct count never
//!    decreases across the restart.
//! 3. **Corruption is contained** — a flipped byte, a truncated file, or
//!    appended garbage recovers to a consistent *prefix* of the journaled
//!    states (possibly empty), with the damage reported in the
//!    [`ReplayReport`](qc_serve::ReplayReport), and the restarted generation still reaches the
//!    oracle verdict from whatever survived.
//! 4. **Generations are observable** — the restarted store's generation
//!    strictly increases and is folded into every trace ID, so traces
//!    stay unique across the kill.
//!
//! A coalescing differential rides along (sampled): N identical requests
//! against a paused service must produce one computation, N−1 coalesced
//! hits, and N verdicts identical to independent runs.
//!
//! `--inject-corruption` is the negative self-test, mirroring
//! `bench_snapshot --inject-slowdown`: it corrupts the journal but runs
//! the *strict* no-lost-progress assertions anyway, so the suite must
//! fail — proving those assertions would catch real durability bugs. CI
//! runs it negated.
//!
//! ```sh
//! cargo run --release -p qc-bench --bin durability_chaos -- --trials 300 --seed 13
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use qc_datalog::{parse_program, Program, Symbol};
use qc_guard::{stage, FaultKind, FaultPlan};
use qc_mediator::relative::{decide, Question, RelativeError, Sources, Verdict};
use qc_mediator::schema::LavSetting;
use qc_mediator::workloads::{query_program, random_query, random_views, Shape};
use qc_serve::{
    Checkpoint, CheckpointStore, FileJournal, Request, ServeConfig, ServeCore, Service, Ticket,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Default)]
struct Tally {
    trials: usize,
    kills: usize,
    corruptions: usize,
    /// Trials whose journal held durable proven progress when phase A
    /// ended: the ones a beheading can destroy.
    durable: usize,
    resumes: usize,
    coalesced: u64,
    failures: usize,
    seed: u64,
    inject_corruption: bool,
}

impl Tally {
    fn fail(&mut self, trial: usize, msg: &str) {
        eprintln!("FAIL trial {trial}: {msg}");
        eprintln!(
            "  repro: cargo run --release -p qc-bench --bin durability_chaos -- \
             --trials 1 --seed {}{}",
            self.seed.wrapping_add(trial as u64),
            if self.inject_corruption {
                " --inject-corruption"
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

/// A random case: one in three from [`multi_disjunct_question`], the
/// rest a random chain workload.
fn random_case(rng: &mut StdRng) -> Result<Option<Case>, String> {
    let (views, p1, a1, p2, a2) = if rng.gen_range(0..3) == 0 {
        multi_disjunct_question(rng)
    } else {
        let q = Symbol::new("q");
        let cq1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
        let cq2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, rng);
        let views = random_views(3, 2, rng);
        (views, query_program(&cq1), q, query_program(&cq2), q)
    };
    let oracle = match decide(&Question::new(&p1, &a1, &p2, &a2), Sources::Views(&views))
        .map(|d| d.verdict)
    {
        Ok(v @ (Verdict::Contained | Verdict::NotContained)) => v,
        Err(RelativeError::Input(e)) => {
            return Err(format!("the generator drew malformed input: {e}"))
        }
        _ => return Ok(None),
    };
    Ok(Some(Case {
        views,
        req: Request::new(p1, a1, p2, a2),
        oracle,
    }))
}

/// A question whose plan has `2^m` disjuncts, m = 2–3, each checked at a
/// cost of several work units, so the gentle budget climb of phase A
/// stops between disjuncts and journals proven ones (the random chain
/// workloads rarely leave such progress). Each `e{j}` of Q1 is reachable
/// only through two constant views, `w{j}_0` and `w{j}_1`. Q2 repeats Q1's
/// body 2–4 times with fresh variables, so it is equivalent to Q1 and
/// every disjunct is proven, unless (one time in four) one copy pins
/// `e{j}` to 0: then the disjuncts through `w{j}_1` refute it.
fn multi_disjunct_question(rng: &mut StdRng) -> (LavSetting, Program, Symbol, Program, Symbol) {
    let m = rng.gen_range(2..=3usize);
    let views: Vec<String> = (0..m)
        .flat_map(|j| (0..2).map(move |b| format!("w{j}_{b}() :- e{j}({b}).")))
        .collect();
    let views = LavSetting::parse(&views.iter().map(String::as_str).collect::<Vec<_>>())
        .expect("views parse");
    let body: Vec<String> = (0..m).map(|j| format!("e{j}(U{j})")).collect();
    let q1 = parse_program(&format!("a() :- {}.", body.join(", "))).expect("q1 parses");
    let pinned = rng.gen_bool(0.25).then(|| rng.gen_range(0..m));
    let copies = rng.gen_range(2..=4usize);
    let q2_body: Vec<String> = (0..copies)
        .flat_map(|c| {
            (0..m).map(move |j| match pinned {
                Some(p) if p == j && c == 0 => format!("e{j}(0)"),
                _ => format!("e{j}(Y{j}_{c})"),
            })
        })
        .collect();
    let q2 = parse_program(&format!("b() :- {}.", q2_body.join(", "))).expect("q2 parses");
    (views, q1, Symbol::new("a"), q2, Symbol::new("b"))
}

/// Ways a trial damages the journal file between generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// Cut the file mid-record (simulated torn write at the tail).
    Truncate,
    /// Flip one byte in the last third (CRC must catch it).
    FlipByte,
    /// Append unframeable bytes (crash wrote garbage at the tail).
    AppendGarbage,
    /// Cut just past the generation header, mid-first-record: everything
    /// journaled is lost. Used by the `--inject-corruption` self-test,
    /// where the loss must be guaranteed so the strict assertions fail.
    Behead,
}

fn corrupt(path: &Path, damage: Damage, rng: &mut StdRng) -> std::io::Result<bool> {
    let mut bytes = std::fs::read(path)?;
    if bytes.len() < 4 {
        return Ok(false);
    }
    match damage {
        Damage::Truncate => {
            let mut cut = bytes.len() - 1 - rng.gen_range(0..bytes.len().min(40) - 1);
            // Never cut exactly on a record boundary: that is
            // indistinguishable from the records never having been
            // written, i.e. not damage at all.
            while cut > 1 && bytes[cut - 1] == b'\n' {
                cut -= 1;
            }
            bytes.truncate(cut);
        }
        Damage::FlipByte => {
            let start = bytes.len() * 2 / 3;
            let i = start + rng.gen_range(0..bytes.len() - start);
            bytes[i] ^= 0x55;
        }
        Damage::AppendGarbage => {
            bytes.extend_from_slice(b"\x00\xffnot a journal record");
        }
        Damage::Behead => {
            let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
                return Ok(false);
            };
            if header_end + 6 >= bytes.len() {
                return Ok(false); // nothing journaled beyond the header
            }
            bytes.truncate(header_end + 6);
        }
    }
    std::fs::write(path, bytes)?;
    Ok(true)
}

/// Drives `req` on `core` with escalating budgets until a definite
/// verdict, checking soundness each round. Returns the final verdict, or
/// `None` after reporting a failure.
fn drive_to_definite(
    trial: usize,
    core: &ServeCore,
    case: &Case,
    mut budget: u64,
    tally: &mut Tally,
) -> Option<Verdict> {
    let mut req = case.req.clone();
    let mut proven_floor = 0usize;
    for round in 0..48 {
        req.budget = Some(budget);
        let resp = match core.handle(&req, 0) {
            Ok(r) => r,
            Err(e) => {
                tally.fail(trial, &format!("escalation round {round} errored: {e}"));
                return None;
            }
        };
        if resp.resumed {
            tally.resumes += 1;
        }
        match resp.verdict {
            Verdict::Unknown(_) => {
                if let Some(cp) = &resp.checkpoint {
                    if cp.proven.len() < proven_floor {
                        tally.fail(
                            trial,
                            &format!(
                                "progress went backwards within a generation: \
                                 {} proven after {}",
                                cp.proven.len(),
                                proven_floor
                            ),
                        );
                        return None;
                    }
                    proven_floor = cp.proven.len();
                }
                budget = budget.saturating_mul(2);
            }
            v => {
                if v != case.oracle {
                    tally.fail(
                        trial,
                        &format!("definite {v:?} contradicts oracle {:?}", case.oracle),
                    );
                    return None;
                }
                return Some(v);
            }
        }
    }
    tally.fail(trial, "escalation never reached a definite verdict");
    None
}

/// The kill–restart scenario. Phase A journals partial progress (and may
/// die mid-append); the file may then be damaged; phase B reopens,
/// checks the replay report, and drives the same request to the oracle
/// verdict.
fn check_kill_restart(trial: usize, case: &Case, dir: &Path, rng: &mut StdRng, tally: &mut Tally) {
    let path = dir.join(format!("trial-{trial}.qcj"));
    let fingerprint;
    let gen_a;
    let mut durable_floor = 0usize;
    let mut journaled_states: Vec<Vec<usize>> = vec![Vec::new()];

    // --- Phase A: one serving generation makes partial progress. ---
    {
        let journal = match FileJournal::open(&path) {
            Ok(j) => Arc::new(j),
            Err(e) => {
                tally.fail(trial, &format!("journal open failed: {e}"));
                return;
            }
        };
        let core =
            ServeCore::with_store(case.views.clone(), ServeConfig::default(), journal.clone());
        gen_a = core.generation();
        fingerprint = case.req.fingerprint(&core.snapshot());
        let mut req = case.req.clone();
        let mut budget = 4u64;
        let keep = 1 + rng.gen_range(0..3);
        let mut first_cp: Option<(u64, Checkpoint)> = None;
        // Escalate gently (+12.5%): tinier budgets die during plan
        // construction and journal nothing, and coarse steps jump clean
        // over the narrow window where a run trips *mid-disjunct* and
        // journals a checkpoint (planning costs a unit per unfolded
        // disjunct besides its searches; the window does not grow with
        // it). 80 steps reach about 10^5 units.
        for _ in 0..80 {
            req.budget = Some(budget);
            let resp = match core.handle(&req, 0) {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(trial, &format!("phase A request errored: {e}"));
                    return;
                }
            };
            match resp.verdict {
                Verdict::Unknown(_) => {
                    if let Some(cp) = &resp.checkpoint {
                        // fsync policy is Always: an acknowledged
                        // checkpoint is durable. Read the state back from
                        // the journal — saves *merge* proven sets, so the
                        // journaled state can exceed the response's.
                        let live = journal
                            .load(fingerprint)
                            .map(|c| c.proven)
                            .unwrap_or_default();
                        durable_floor = durable_floor.max(live.len());
                        journaled_states.push(live);
                        if first_cp.is_none() {
                            first_cp = Some((budget, cp.clone()));
                        }
                        if journaled_states.len() > keep {
                            break;
                        }
                    }
                    budget = budget.saturating_add(budget / 8).saturating_add(1);
                }
                v => {
                    if v != case.oracle {
                        tally.fail(trial, &format!("phase A verdict {v:?} vs oracle"));
                        return;
                    }
                    // A definite verdict retires the fingerprint: the
                    // journaled progress was *spent*, not lost — there is
                    // no floor to preserve across the restart.
                    durable_floor = 0;
                    break;
                }
            }
        }
        // Sometimes die *inside* an append, leaving a torn tail. The
        // engine is deterministic, so a fresh core (cold memo) replaying
        // the same budget climb — with explicit empty checkpoints to
        // disable the store's auto-resume, which would skip the proven
        // disjuncts and dodge the save — re-traces the run exactly, and
        // at `b_star` (the budget that first journaled) an armed
        // `stage::JOURNAL` panic fault fires between the two halves of
        // the record write: the mid-append kill.
        if let (Some((b_star, cp)), true) = (&first_cp, rng.gen_bool(0.5)) {
            let kill_core =
                ServeCore::with_store(case.views.clone(), ServeConfig::default(), journal.clone());
            let mut replay = case.req.clone();
            replay.checkpoint = Some(Checkpoint {
                proven: Vec::new(),
                epoch: kill_core.epoch(),
                ..cp.clone()
            });
            let mut b = 4u64;
            loop {
                replay.budget = Some(b);
                replay.fault = (b == *b_star).then_some(FaultPlan {
                    stage: stage::JOURNAL,
                    at_tick: 1,
                    kind: FaultKind::Panic,
                });
                match catch_unwind(AssertUnwindSafe(|| kill_core.handle(&replay, 0))) {
                    Err(_) => {
                        // Died mid-append. The half-written record is NOT
                        // durable: the floor covers acknowledged
                        // responses only.
                        tally.kills += 1;
                        break;
                    }
                    Ok(Ok(resp)) => {
                        if resp.checkpoint.is_some() {
                            let live = journal
                                .load(fingerprint)
                                .map(|c| c.proven)
                                .unwrap_or_default();
                            durable_floor = durable_floor.max(live.len());
                            journaled_states.push(live);
                        }
                        if let v @ (Verdict::Contained | Verdict::NotContained) = &resp.verdict {
                            if *v != case.oracle {
                                tally.fail(trial, &format!("kill replay verdict {v:?} vs oracle"));
                                return;
                            }
                            durable_floor = 0;
                            break;
                        }
                    }
                    Ok(Err(e)) => {
                        tally.fail(trial, &format!("kill replay errored: {e}"));
                        return;
                    }
                }
                if b >= *b_star {
                    break; // reached b_star without a save; give up
                }
                b = b.saturating_add(b / 8).saturating_add(1);
            }
        }
        // The generation "dies" here: the journal is dropped with no
        // drain or graceful close.
    }

    if durable_floor > 0 {
        tally.durable += 1;
    }

    // --- Optional damage between the generations. ---
    let damage = if tally.inject_corruption || rng.gen_bool(0.25) {
        let d = if tally.inject_corruption {
            // The self-test must *guarantee* the loss it injects.
            Damage::Behead
        } else {
            match rng.gen_range(0..3) {
                0 => Damage::Truncate,
                1 => Damage::FlipByte,
                _ => Damage::AppendGarbage,
            }
        };
        match corrupt(&path, d, rng) {
            Ok(true) => {
                tally.corruptions += 1;
                Some(d)
            }
            Ok(false) => None,
            Err(e) => {
                tally.fail(trial, &format!("corruption injection failed: {e}"));
                return;
            }
        }
    } else {
        None
    };

    // --- Phase B: restart against the same file. ---
    let journal = match FileJournal::open(&path) {
        Ok(j) => Arc::new(j),
        Err(e) => {
            tally.fail(trial, &format!("journal reopen failed: {e}"));
            return;
        }
    };
    let report = journal.replay_report();
    let core = ServeCore::with_store(case.views.clone(), ServeConfig::default(), journal.clone());

    // Generation advance (and with it trace-ID uniqueness) is guaranteed
    // whenever the journal's generation header survived; direct damage
    // can wipe the header itself, resetting the count.
    if damage.is_none() && core.generation() <= gen_a && report.reset.is_none() {
        tally.fail(
            trial,
            &format!(
                "generation did not advance: {} after {gen_a}",
                core.generation()
            ),
        );
    }

    let recovered = journal.load(fingerprint);
    let strict = damage.is_none() || tally.inject_corruption;
    if strict {
        // Intact journal (torn tails included — replay heals them): the
        // durably acknowledged floor must have survived.
        let got = recovered.as_ref().map_or(0, |cp| cp.proven.len());
        if got < durable_floor {
            tally.fail(
                trial,
                &format!(
                    "lost durable progress across restart: {got} proven \
                     recovered, floor was {durable_floor}"
                ),
            );
            return;
        }
    } else {
        // Damaged journal: recovery must land on a *prefix* state — one
        // of the exact checkpoint states journaled (or nothing), never an
        // invention — and the damage must be reported, not silently
        // swallowed.
        if !report.repaired() {
            tally.fail(
                trial,
                &format!("{damage:?} damage left no trace in the replay report"),
            );
        }
        if let Some(cp) = &recovered {
            if !journaled_states.contains(&cp.proven) {
                tally.fail(
                    trial,
                    &format!("recovered checkpoint {:?} was never journaled", cp.proven),
                );
                return;
            }
        }
    }

    // Either way, the restarted generation must still reach the oracle.
    let before = recovered.map_or(0, |cp| cp.proven.len());
    if drive_to_definite(trial, &core, case, 4, tally).is_some() && before > 0 {
        // The resumed escalation applied the recovered checkpoint (it
        // counts as a resume on its first round).
        if core.stats().resumed == 0 {
            tally.fail(trial, "recovered checkpoint was never applied");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The coalescing differential: N identical requests against a paused
/// service → one computation, N−1 coalesced hits, N identical verdicts,
/// all equal to an independent run's.
fn check_coalescing(trial: usize, case: &Case, tally: &mut Tally) {
    const N: usize = 4;
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: N + 2,
        ..ServeConfig::default()
    };
    let svc = Service::start(case.views.clone(), cfg);
    svc.pause();
    let tickets: Vec<Ticket> = (0..N)
        .filter_map(|i| match svc.submit(case.req.clone()) {
            Ok(t) => Some(t),
            Err(e) => {
                tally.fail(trial, &format!("coalescing submit {i} failed: {e}"));
                None
            }
        })
        .collect();
    svc.unpause();
    let mut verdicts = Vec::new();
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait() {
            Ok(r) => verdicts.push(r.verdict),
            Err(e) => tally.fail(trial, &format!("coalesced job {i} was lost: {e}")),
        }
    }
    if verdicts.len() != N {
        return;
    }
    if verdicts.iter().any(|v| *v != verdicts[0]) {
        tally.fail(trial, "coalesced waiters saw different verdicts");
    }
    if let v @ (Verdict::Contained | Verdict::NotContained) = &verdicts[0] {
        if *v != case.oracle {
            tally.fail(trial, "coalesced verdict contradicts oracle");
        }
    }
    let stats = svc.stats();
    tally.coalesced += stats.coalesced_hits;
    if stats.coalesced_hits != (N as u64 - 1) {
        tally.fail(
            trial,
            &format!(
                "expected {} coalesced hits, got {} (admitted {})",
                N - 1,
                stats.coalesced_hits,
                stats.admitted
            ),
        );
    }
    if stats.completed != 1 {
        tally.fail(
            trial,
            &format!(
                "{} computations for {N} identical requests",
                stats.completed
            ),
        );
    }
    svc.shutdown();
}

fn main() -> ExitCode {
    let mut trials = 300usize;
    let mut seed = 20260808u64;
    let mut inject_corruption = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trials" => trials = args.next().and_then(|v| v.parse().ok()).unwrap_or(trials),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--inject-corruption" => inject_corruption = true,
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
        std::env::temp_dir().join(format!("qc-durability-chaos-{}-{seed}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create scratch dir {}: {e}", dir.display());
        return ExitCode::from(2);
    }

    let mut tally = Tally {
        seed,
        inject_corruption,
        ..Tally::default()
    };
    let mut skipped = 0usize;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(trial as u64));
        let case = match random_case(&mut rng) {
            Ok(Some(case)) => case,
            Ok(None) => {
                skipped += 1;
                continue;
            }
            // A generator that drifts into input the gate rejects would
            // shrink the suite unseen if it were skipped.
            Err(msg) => {
                tally.fail(trial, &msg);
                continue;
            }
        };
        tally.trials += 1;
        check_kill_restart(trial, &case, &dir, &mut rng, &mut tally);
        // Thread spin-up dominates the cheap workloads; sample.
        if !inject_corruption && trial % 10 == 0 {
            check_coalescing(trial, &case, &mut tally);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "durability_chaos: {} trials ({} skipped), {} with durable progress at the restart, \
         {} mid-append kills, {} corruptions injected, {} resumes, {} coalesced hits, \
         {} failures",
        tally.trials,
        skipped,
        tally.durable,
        tally.kills,
        tally.corruptions,
        tally.resumes,
        tally.coalesced,
        tally.failures,
    );
    if tally.failures > 0 {
        eprintln!("\ndurability chaos suite found invariant violations");
        ExitCode::from(1)
    } else {
        println!(
            "\nno unsound verdicts, no lost durable progress, \
             corruption contained, coalescing exact"
        );
        ExitCode::SUCCESS
    }
}
