//! `relcont-repl` — an interactive session for exploring relative
//! containment.
//!
//! ```text
//! $ cargo run --bin relcont-repl
//! > view RedCars(C, M, Y) :- CarDesc(C, M, red, Y).
//! > view CarAndDriver(M, R) :- Review(M, R, 10).
//! > query q1(C, R) :- CarDesc(C, M, Col, Y), Review(M, R, S).
//! > query q2(C, R) :- CarDesc(C, M, Col, Y), Review(M, R, 10).
//! > check q1 q2
//! q1 vs q2: contained (only relative to the available sources)
//! > fact RedCars(c1, corolla, 1988).
//! > fact CarAndDriver(corolla, nice).
//! > certain q1
//! q1(c1, nice).
//! ```
//!
//! Type `help` for the command list.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

use relcont::containment::engine;
use relcont::datalog::{parse_rule, Database, Program, Symbol};
use relcont::guard::Guard;
use relcont::mediator::analysis::{is_lossless, source_coverage, unused_sources};
use relcont::mediator::binding::reachable_certain_answers;
use relcont::mediator::certain::{certain_answer_support, certain_answers};
use relcont::mediator::relative::{
    decide, explain_containment, max_contained_ucq_plan, relatively_contained_witness, Question,
    Sources, Verdict,
};
use relcont::mediator::schema::{LavSetting, SourceDescription};

const HELP: &str = "\
commands:
  view <rule>.            declare a source (LAV view definition)
  adorn <source> <bf..>   attach a binding-pattern adornment
  complete <source>       mark a source closed-world
  query <rule>.           declare a query (head predicate = its name)
  fact <atom>.            add a source tuple
  check <q1> <q2>         relative containment Q1 ⊑_V Q2 (with explanation)
  why <q1> <q2>           witness plan when Q1 ⋢_V Q2
  checkbp <q1> <q2>       same, under the binding-pattern adornments
  plan <q>                print the maximally-contained plan
  lossless <q>            can the sources answer <q> completely?
  coverage <q>            which sources <q>'s plan uses / ignores
  certain <q>             certain answers over the current facts
  support <q> <atom>.     which source facts make <atom> certain
  reachable <q>           reachable certain answers (binding patterns)
  show                    list views, queries, and facts
  :stats                  per-stage spans and engine counters so far
  :stats reset            clear the collected statistics
  :limit                  show the active resource limits
  :limit budget <units>   work-unit budget for subsequent commands
  :limit timeout <ms>     wall-clock deadline for subsequent commands
  :limit off              remove all resource limits
  :retries [N | off]      auto-retry limited `check`s: a partial (Unknown)
                          verdict hands its checkpoint straight back for up
                          to N more attempts before reporting
  :catalog show           live catalog: epoch and per-view versions
  :catalog add <rule>.    add a source to the *live* serve core (no rebuild:
                          only the new view is compiled; unrelated cached
                          verdicts and checkpoints survive the epoch bump)
  :catalog rm <name>      remove a source from the live serve core
  :catalog replace <rule>. swap a source's definition in place
  :serve-stats            service health, ladder tier, shed/resume counters,
                          and latency quantiles (limited `check`s run through
                          the qc-serve core; unknown verdicts are
                          checkpointed and resumed)
  :flight                 per-request flight recorder: one timeline per
                          serve-core request (trace, tier, stage times)
  reset                   clear everything
  help                    this text
  quit                    exit";

struct Session {
    views: LavSetting,
    queries: BTreeMap<String, Program>,
    facts: Database,
    recorder: std::sync::Arc<qc_obs::PipelineRecorder>,
    limit_budget: Option<u64>,
    limit_timeout_ms: Option<u64>,
    /// Extra attempts granted to limited `check`s (`:retries N`).
    retry_attempts: u32,
    /// Embedded serve core for limited checks; rebuilt when views change.
    serve: Option<relcont::serve::ServeCore>,
    /// Resume tokens from `Unknown` verdicts, keyed by query-name pair.
    serve_checkpoints: BTreeMap<(String, String), relcont::serve::Checkpoint>,
}

impl Session {
    fn new(recorder: std::sync::Arc<qc_obs::PipelineRecorder>) -> Session {
        Session {
            views: LavSetting::default(),
            queries: BTreeMap::new(),
            facts: Database::new(),
            recorder,
            limit_budget: None,
            limit_timeout_ms: None,
            retry_attempts: 0,
            serve: None,
            serve_checkpoints: BTreeMap::new(),
        }
    }

    /// The embedded serve core, rebuilt (with fresh ladder/counters and a
    /// cleared checkpoint cache) whenever the views changed under it.
    fn serve_core(&mut self) -> &relcont::serve::ServeCore {
        if self
            .serve
            .as_ref()
            .is_some_and(|c| c.snapshot().views() != &self.views)
        {
            self.serve = None;
            self.serve_checkpoints.clear();
        }
        self.serve.get_or_insert_with(|| {
            relcont::serve::ServeCore::new(
                self.views.clone(),
                relcont::serve::ServeConfig::default(),
            )
        })
    }

    fn limited(&self) -> bool {
        self.limit_budget.is_some() || self.limit_timeout_ms.is_some()
    }

    /// Builds a fresh guard for one command from the session's limits.
    fn guard(&self) -> Option<Guard> {
        if !self.limited() {
            return None;
        }
        let mut g = Guard::unlimited();
        if let Some(units) = self.limit_budget {
            g = g.with_budget(units);
        }
        if let Some(ms) = self.limit_timeout_ms {
            g = g.with_timeout(std::time::Duration::from_millis(ms));
        }
        Some(g)
    }

    fn query(&self, name: &str) -> Result<(&Program, Symbol), String> {
        self.queries
            .get(name)
            .map(|p| (p, Symbol::new(name)))
            .ok_or_else(|| format!("unknown query {name:?} (declare it with `query`)"))
    }

    fn handle(&mut self, line: &str) -> Result<Option<String>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            return Ok(None);
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let guard = self.guard();
        let mut body = || {
            // A trip from a stage without fallible plumbing surfaces here
            // as an "undecided" line instead of aborting the session.
            match relcont::guard::guarded(|| self.dispatch(cmd, rest)) {
                Ok(r) => r,
                Err(resource) => Ok(Some(format!("undecided: {resource}"))),
            }
        };
        match &guard {
            Some(g) => relcont::guard::with_guard(g, body),
            None => body(),
        }
    }

    fn dispatch(&mut self, cmd: &str, rest: &str) -> Result<Option<String>, String> {
        match cmd {
            "help" => Ok(Some(HELP.to_string())),
            "view" => {
                let src = SourceDescription::parse(rest).map_err(|e| e.to_string())?;
                let name = src.name;
                self.views.sources.retain(|s| s.name != name);
                self.views.sources.push(src);
                Ok(Some(format!("source {name} declared")))
            }
            "adorn" => {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(pattern)) = (parts.next(), parts.next()) else {
                    return Err("usage: adorn <source> <pattern>".into());
                };
                let idx = self
                    .views
                    .sources
                    .iter()
                    .position(|s| s.name == name)
                    .ok_or_else(|| format!("unknown source {name:?}"))?;
                if relcont::mediator::schema::Adornment::parse(pattern)
                    .is_none_or(|a| a.arity() != self.views.sources[idx].view.head.arity())
                {
                    return Err(format!(
                        "adornment must be over {{b, f}} and match {name}'s arity"
                    ));
                }
                self.views.sources[idx] = self.views.sources[idx].clone().with_adornment(pattern);
                Ok(Some(format!("{name} adorned with {pattern}")))
            }
            "complete" => {
                let idx = self
                    .views
                    .sources
                    .iter()
                    .position(|s| s.name == rest)
                    .ok_or_else(|| format!("unknown source {rest:?}"))?;
                self.views.sources[idx].complete = true;
                Ok(Some(format!("{rest} marked complete (closed-world)")))
            }
            "query" => {
                let rule = parse_rule(rest).map_err(|e| e.to_string())?;
                let name = rule.head.pred.to_string();
                let entry = self.queries.entry(name.clone()).or_default();
                entry.push(rule);
                Ok(Some(format!(
                    "query {name} now has {} rule(s)",
                    entry.rules().len()
                )))
            }
            "fact" => {
                let rule = parse_rule(rest).map_err(|e| e.to_string())?;
                if !rule.body.is_empty() || !rule.head.is_ground() {
                    return Err(
                        "facts must be ground atoms, e.g. `fact RedCars(c1, corolla, 1988).`"
                            .into(),
                    );
                }
                self.facts
                    .check_arity(&rule.head.pred, rule.head.args.len())?;
                self.facts.insert_atom(&rule.head);
                Ok(Some(format!("{} fact(s) total", self.facts.total_len())))
            }
            "check" | "checkbp" | "why" => {
                let mut parts = rest.split_whitespace();
                let (Some(n1), Some(n2)) = (parts.next(), parts.next()) else {
                    return Err(format!("usage: {cmd} <q1> <q2>"));
                };
                let (q1, a1) = self.query(n1)?;
                let (q2, a2) = self.query(n2)?;
                if cmd == "why" {
                    match relatively_contained_witness(q1, &a1, q2, &a2, &self.views)
                        .map_err(|e| e.to_string())?
                    {
                        Ok(()) => Ok(Some(format!("{n1} \u{2291} {n2}: no witness exists"))),
                        Err(w) => Ok(Some(w.to_string())),
                    }
                } else if cmd == "checkbp" {
                    let question = Question {
                        binding_patterns: true,
                        ..Question::new(q1, &a1, q2, &a2)
                    };
                    let decision = decide(&question, Sources::Views(&self.views))
                        .map_err(|e| e.to_string())?;
                    let holds = decision.holds().map_err(|e| e.to_string())?;
                    let mut out = format!(
                        "{n1} {} {n2} under the binding patterns",
                        if holds { "\u{2291}" } else { "\u{22e2}" }
                    );
                    if let Some(w) = decision.witness {
                        out.push_str(&format!("\n{w}"));
                    }
                    Ok(Some(out))
                } else if self.limited() {
                    // Anytime path, routed through the embedded serve
                    // core: the session's `:limit` values become the
                    // request's budget/timeout, unknown verdicts leave a
                    // checkpoint behind, and a retry of the same pair
                    // resumes from it instead of restarting.
                    let (q1, q2) = (q1.clone(), q2.clone());
                    let key = (n1.to_string(), n2.to_string());
                    let mut req = relcont::serve::Request::new(q1, a1, q2, a2);
                    req.budget = self.limit_budget;
                    req.timeout = self.limit_timeout_ms.map(std::time::Duration::from_millis);
                    let saved = self.serve_checkpoints.get(&key).cloned();
                    let retries = self.retry_attempts;
                    let mut attempts = 0u32;
                    let resp = {
                        let core = self.serve_core();
                        let policy =
                            relcont::serve::RetryPolicy::with_attempts(retries.saturating_add(1));
                        // First attempt resumes from the session's saved
                        // checkpoint; each retry resumes from the previous
                        // attempt's (`:retries`).
                        policy.run(|cp| {
                            attempts += 1;
                            let mut r = req.clone();
                            r.checkpoint = cp.or_else(|| saved.clone());
                            core.handle(&r, 0)
                        })
                    }
                    .map_err(|e| e.to_string())?;
                    let mut out = format!("{n1} vs {n2}: {}", resp.verdict);
                    out.push_str(&format!(
                        " [tier={}, trace={}{}{}]",
                        resp.tier,
                        resp.trace,
                        if resp.resumed { ", resumed" } else { "" },
                        if attempts > 1 {
                            format!(", {attempts} attempts")
                        } else {
                            String::new()
                        }
                    ));
                    if let Verdict::Unknown(partial) = &resp.verdict {
                        if let Some(plan) = &partial.partial_plan {
                            out.push_str("\npartial plan proven contained so far:");
                            for d in &plan.disjuncts {
                                out.push_str(&format!("\n{}", d.tidy_names().to_rule()));
                            }
                        }
                    }
                    match (&resp.verdict, resp.checkpoint) {
                        (Verdict::Unknown(_), Some(cp)) => {
                            out.push_str("\ncheckpoint saved; rerun to resume");
                            self.serve_checkpoints.insert(key, cp);
                        }
                        (Verdict::Unknown(_), None) => {}
                        _ => {
                            self.serve_checkpoints.remove(&key);
                        }
                    }
                    Ok(Some(out))
                } else {
                    let kind = explain_containment(q1, &a1, q2, &a2, &self.views)
                        .map_err(|e| e.to_string())?;
                    Ok(Some(format!("{n1} vs {n2}: {kind}")))
                }
            }
            "plan" => {
                let (q, a) = self.query(rest)?;
                let plan = max_contained_ucq_plan(q, &a, &self.views).map_err(|e| e.to_string())?;
                if plan.is_empty() {
                    Ok(Some("the maximally-contained plan is empty".into()))
                } else {
                    Ok(Some(
                        plan.disjuncts
                            .iter()
                            .map(|d| d.tidy_names().to_rule().to_string())
                            .collect::<Vec<_>>()
                            .join("\n"),
                    ))
                }
            }
            "support" => {
                let (qname, atom_src) = rest
                    .split_once(char::is_whitespace)
                    .ok_or("usage: support <q> <atom>.")?;
                let (q, a) = self.query(qname)?;
                let atom_rule = parse_rule(atom_src.trim()).map_err(|e| e.to_string())?;
                if !atom_rule.body.is_empty() || !atom_rule.head.is_ground() {
                    return Err("the answer must be a ground atom".into());
                }
                let tuple = atom_rule.head.args.clone();
                match certain_answer_support(
                    q,
                    &a,
                    &self.views,
                    &self.facts,
                    &tuple,
                    &engine::current().eval_options(),
                )
                .map_err(|e| e.to_string())?
                {
                    None => Ok(Some("not a certain answer over the current facts".into())),
                    Some(facts) => Ok(Some(
                        facts
                            .iter()
                            .map(|(p, t)| {
                                format!(
                                    "{p}({})",
                                    t.iter()
                                        .map(ToString::to_string)
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                )
                            })
                            .collect::<Vec<_>>()
                            .join("\n"),
                    )),
                }
            }
            "lossless" => {
                let (q, a) = self.query(rest)?;
                let yes = is_lossless(q, &a, &self.views).map_err(|e| e.to_string())?;
                Ok(Some(if yes {
                    format!("{rest} is answered losslessly by the available sources")
                } else {
                    format!(
                        "{rest} is only partially answerable (certain answers may miss real ones)"
                    )
                }))
            }
            "coverage" => {
                let (q, a) = self.query(rest)?;
                let used = source_coverage(q, &a, &self.views).map_err(|e| e.to_string())?;
                let unused = unused_sources(q, &a, &self.views).map_err(|e| e.to_string())?;
                Ok(Some(format!(
                    "uses:   {}\nunused: {}",
                    used.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                    unused
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                )))
            }
            "certain" | "reachable" => {
                let (q, a) = self.query(rest)?;
                let rel = if cmd == "certain" {
                    certain_answers(
                        q,
                        &a,
                        &self.views,
                        &self.facts,
                        &engine::current().eval_options(),
                    )
                } else {
                    reachable_certain_answers(
                        q,
                        &a,
                        &self.views,
                        &self.facts,
                        &engine::current().eval_options(),
                    )
                }
                .map_err(|e| e.to_string())?;
                if rel.is_empty() {
                    return Ok(Some("(no answers)".into()));
                }
                let mut rows: Vec<String> = rel
                    .tuples()
                    .iter()
                    .map(|t| {
                        format!(
                            "{rest}({}).",
                            t.iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })
                    .collect();
                rows.sort();
                Ok(Some(rows.join("\n")))
            }
            "show" => {
                let mut out = String::new();
                out.push_str("views:\n");
                for s in &self.views.sources {
                    out.push_str(&format!("  {s}\n"));
                }
                out.push_str("queries:\n");
                for (n, p) in &self.queries {
                    for r in p.rules() {
                        out.push_str(&format!("  {r}\n"));
                    }
                    let _ = n;
                }
                out.push_str(&format!("facts: {} tuple(s)\n", self.facts.total_len()));
                Ok(Some(out.trim_end().to_string()))
            }
            ":limit" | "limit" => {
                let mut parts = rest.split_whitespace();
                match (parts.next(), parts.next()) {
                    (None, _) => Ok(Some(format!(
                        "budget: {}, timeout: {}",
                        self.limit_budget
                            .map_or("unlimited".into(), |b| format!("{b} units")),
                        self.limit_timeout_ms
                            .map_or("unlimited".into(), |ms| format!("{ms} ms")),
                    ))),
                    (Some("off"), _) => {
                        self.limit_budget = None;
                        self.limit_timeout_ms = None;
                        Ok(Some("resource limits removed".into()))
                    }
                    (Some("budget"), Some(v)) => {
                        let units: u64 = v
                            .parse()
                            .map_err(|_| format!("budget expects a unit count, got {v:?}"))?;
                        self.limit_budget = Some(units);
                        Ok(Some(format!("budget set to {units} work unit(s)")))
                    }
                    (Some("timeout"), Some(v)) => {
                        let ms: u64 = v
                            .parse()
                            .map_err(|_| format!("timeout expects milliseconds, got {v:?}"))?;
                        self.limit_timeout_ms = Some(ms);
                        Ok(Some(format!("timeout set to {ms} ms")))
                    }
                    _ => Err("usage: :limit [budget <units> | timeout <ms> | off]".into()),
                }
            }
            ":retries" | "retries" => match rest {
                "" => Ok(Some(match self.retry_attempts {
                    0 => "retries: off (partial verdicts report immediately)".into(),
                    n => format!("retries: {n} extra attempt(s) per limited check"),
                })),
                "off" | "0" => {
                    self.retry_attempts = 0;
                    Ok(Some("retries disabled".into()))
                }
                v => {
                    let n: u32 = v
                        .parse()
                        .map_err(|_| format!("retries expects a count, got {v:?}"))?;
                    self.retry_attempts = n;
                    Ok(Some(format!(
                        "limited checks now retry up to {n} time(s), resuming \
                         from their checkpoints"
                    )))
                }
            },
            ":catalog" | "catalog" => {
                let (sub, arg) = match rest.split_once(char::is_whitespace) {
                    Some((s, a)) => (s, a.trim()),
                    None => (rest, ""),
                };
                match sub {
                    "" | "show" => {
                        let snap = self.serve_core().snapshot();
                        let mut out = format!("catalog epoch {}:", snap.epoch());
                        for e in snap.catalog().entries() {
                            out.push_str(&format!("\n  [v{}] {}", e.version, e.source));
                        }
                        Ok(Some(out))
                    }
                    "add" | "rm" | "remove" | "replace" => {
                        let op = relcont::serve::CatalogOp::parse(&format!("{sub} {arg}"))
                            .map_err(|e| e.to_string())?;
                        // Route through the *live* core: only the touched
                        // view recompiles, and the epoch bump invalidates
                        // exactly the dependent cached state. Mirror the
                        // new catalog into `self.views` so the lazy
                        // rebuild check doesn't tear the core down (and
                        // plain `check`/`plan` commands see it too).
                        let (epoch, report, views) = {
                            let core = self.serve_core();
                            let delta = relcont::serve::CatalogDelta::one(op);
                            let report = core.apply_delta(&delta).map_err(|e| e.to_string())?;
                            let snap = core.snapshot();
                            (snap.epoch(), report, snap.views().clone())
                        };
                        self.views = views;
                        Ok(Some(format!(
                            "epoch {epoch}: {} view(s) recompiled, {} reused \
                             (touched predicates: {})",
                            report.views_recompiled,
                            report.views_reused,
                            report
                                .touched_preds
                                .iter()
                                .cloned()
                                .collect::<Vec<_>>()
                                .join(", ")
                        )))
                    }
                    _ => Err(
                        "usage: :catalog [show | add <rule>. | rm <name> | replace <rule>.]".into(),
                    ),
                }
            }
            ":serve-stats" | "serve-stats" => match &self.serve {
                None => Ok(Some(
                    "no serve activity yet (limited `check`s run through the serve core)".into(),
                )),
                Some(core) => Ok(Some(format!(
                    "{}\ncheckpoints cached: {}",
                    core.stats(),
                    self.serve_checkpoints.len()
                ))),
            },
            ":flight" | "flight" => match &self.serve {
                None => Ok(Some(
                    "no serve activity yet (limited `check`s run through the serve core)".into(),
                )),
                Some(core) if core.flight().is_empty() => {
                    Ok(Some("flight recorder is empty".into()))
                }
                Some(core) => Ok(Some(core.flight().render().trim_end().to_string())),
            },
            ":stats" | "stats" => {
                if rest == "reset" {
                    self.recorder.reset();
                    return Ok(Some("statistics cleared".into()));
                }
                let report = self.recorder.report("session");
                Ok(Some(report.render_tree().trim_end().to_string()))
            }
            "reset" => {
                let recorder = self.recorder.clone();
                recorder.reset();
                *self = Session::new(recorder);
                Ok(Some("cleared".into()))
            }
            "quit" | "exit" => Err("__quit__".into()),
            other => Err(format!("unknown command {other:?} (try `help`)")),
        }
    }
}

fn main() {
    let stdin = io::stdin();
    let recorder = std::sync::Arc::new(qc_obs::PipelineRecorder::new());
    let _guard = qc_obs::install(recorder.clone() as std::sync::Arc<dyn qc_obs::Recorder>);
    let mut session = Session::new(recorder);
    let interactive = atty_stdin();
    if interactive {
        println!("relcont-repl — type `help` for commands");
    }
    loop {
        if interactive {
            print!("> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        match session.handle(&line) {
            Ok(None) => {}
            Ok(Some(out)) => println!("{out}"),
            Err(e) if e == "__quit__" => break,
            Err(e) => println!("error: {e}"),
        }
    }
}

/// Rough interactivity check without external crates: honor a NO_PROMPT
/// env var for scripted use, default to prompting.
fn atty_stdin() -> bool {
    std::env::var_os("NO_PROMPT").is_none()
}
