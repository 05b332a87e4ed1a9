//! `relcont` — command-line front end for relative query containment.
//!
//! ```text
//! relcont check   --views FILE --q1 FILE [--ans1 P] --q2 FILE [--ans2 P] [--bp]
//! relcont plan    --views FILE --query FILE [--ans P]
//! relcont certain --views FILE --query FILE [--ans P] --instance FILE [--bp]
//! relcont eval    --program FILE --data FILE --ans P
//! relcont serve   --views FILE --queries FILE --jobs FILE [--workers N] ...
//! ```
//!
//! Files hold datalog rules in the library's surface syntax. View files
//! additionally accept directive lines:
//!
//! ```text
//! %% adorn RedCars fbf     -- binding-pattern adornment (repeatable)
//! %% complete CarAndDriver -- closed-world source
//! ```
//!
//! When `--ans` is omitted, the head predicate of the file's first rule is
//! used. Exit code 0 = containment holds / success, 1 = does not hold,
//! 2 = usage or input error, 3 = undecided (a resource limit stopped the
//! decision before it finished).
//!
//! Every command also accepts the observability and resource flags:
//!
//! ```text
//! --trace              print the per-stage pipeline tree to stderr
//! --metrics-json PATH  write the pipeline report (spans + counters +
//!                      latency histograms + interner stats) as JSON
//! --prom PATH          write counters + histograms in Prometheus text
//!                      exposition format
//! --timeout MS         wall-clock deadline for the decision procedures
//! --budget UNITS       work-unit budget (deterministic; counter-aligned)
//! ```
//!
//! `serve` additionally accepts `--flight-recorder PATH`, dumping the
//! last N per-request timelines (trace ID, tier, stage breakdown, guard
//! trips) as JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use relcont::containment::engine;
use relcont::datalog::eval::{EvalError, EvalOptions};
use relcont::datalog::{parse_program, Database, Program, Symbol};
use relcont::guard::Guard;
use relcont::mediator::binding::reachable_certain_answers;
use relcont::mediator::certain::certain_answers;
use relcont::mediator::relative::{
    decide, explain, max_contained_ucq_plan, Question, Sources, Verdict,
};
use relcont::mediator::schema::LavSetting;

/// What a command run decided, driving the exit code.
enum Outcome {
    /// Containment holds / command succeeded (exit 0).
    True,
    /// Containment does not hold (exit 1).
    False,
    /// A resource limit stopped the decision (exit 3).
    Unknown(String),
}

fn outcome_of(holds: bool) -> Outcome {
    if holds {
        Outcome::True
    } else {
        Outcome::False
    }
}

/// The fixpoint options implied by the ambient [`engine::EngineOptions`]:
/// one configuration source decides both the containment kernels and the
/// datalog evaluation tier (tuple-at-a-time, compiled RA, or adaptive).
fn engine_eval_options() -> EvalOptions {
    engine::current().eval_options()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::True) => ExitCode::SUCCESS,
        Ok(Outcome::False) => ExitCode::from(1),
        Ok(Outcome::Unknown(reason)) => {
            eprintln!("relcont: undecided: {reason}");
            ExitCode::from(3)
        }
        Err(msg) => {
            eprintln!("relcont: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  relcont check   --views FILE --q1 FILE [--ans1 P] --q2 FILE [--ans2 P] [--bp]
                  (prints a witness plan when the containment fails)
  relcont plan    --views FILE --query FILE [--ans P]
  relcont certain --views FILE --query FILE [--ans P]
                  (--instance FILE and/or --csv pred=file[,pred=file...]) [--bp]
  relcont eval    --program FILE --data FILE --ans P
  relcont validate --views FILE [--query FILE]
  relcont serve   --views FILE --queries FILE --jobs FILE
                  [--workers N] [--queue N] [--pool UNITS]
                  [--journal PATH] [--retries N] [--churn-script PATH]
                  (jobs file: one `ANS1 ANS2` pair per line; --budget and
                   --timeout become per-request limits; exit 0 = all
                   contained, 1 = some refuted, 3 = any undecided;
                   --journal makes checkpoints durable across restarts,
                   --retries re-drives shed/partial jobs deterministically;
                   --churn-script reconfigures the catalog *while serving*:
                   `add <rule>.` / `rm <name>` / `replace <rule>.` lines
                   apply live view deltas, `run N` lines interleave the
                   next N jobs — cycling through the jobs file — against
                   the current epoch)
observability (any command):
  --trace              print the per-stage pipeline tree to stderr
  --metrics-json PATH  write the pipeline report (spans + counters +
                       latency histograms + interner stats) as JSON
  --prom PATH          write counters + histograms as Prometheus text
  --flight-recorder PATH  (serve) dump per-request timelines as JSON
resource limits (any command; exit 3 when one stops the decision):
  --timeout MS         wall-clock deadline in milliseconds
  --budget UNITS       deterministic work-unit budget";

fn run(args: &[String]) -> Result<Outcome, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let opts = parse_flags(rest)?;
    let metrics_path = opts.optional("metrics-json").map(str::to_string);
    let prom_path = opts.optional("prom").map(str::to_string);
    let recorder = if opts.trace || metrics_path.is_some() || prom_path.is_some() {
        Some(std::sync::Arc::new(qc_obs::PipelineRecorder::new()))
    } else {
        None
    };
    let _obs = recorder
        .clone()
        .map(|r| qc_obs::install(r as std::sync::Arc<dyn qc_obs::Recorder>));
    let guard = opts.guard()?;
    let result = {
        let body = || -> Result<Outcome, String> {
            // `guarded` converts trips from stages without fallible
            // plumbing into an Unknown outcome instead of an unwind.
            match relcont::guard::guarded(|| match cmd.as_str() {
                "check" => cmd_check(&opts),
                "plan" => cmd_plan(&opts),
                "certain" => cmd_certain(&opts),
                "eval" => cmd_eval(&opts),
                "validate" => cmd_validate(&opts),
                "serve" => cmd_serve(&opts),
                other => Err(format!("unknown command {other:?}")),
            }) {
                Ok(r) => r,
                Err(resource) => Ok(Outcome::Unknown(resource.to_string())),
            }
        };
        match &guard {
            Some(g) => relcont::guard::with_guard(g, body),
            None => body(),
        }
    };
    if let Some(rec) = recorder {
        let report = rec.report(format!("relcont {cmd}"));
        if opts.trace {
            eprint!("{}", report.render_tree());
        }
        if let Some(path) = metrics_path {
            let json = serde_json::to_string_pretty(&report)
                .map_err(|e| format!("metrics serialization: {e}"))?;
            let hists = serde_json::to_string_pretty(&rec.histograms().to_json())
                .map_err(|e| format!("metrics serialization: {e}"))?;
            let verdict = match &result {
                Ok(Outcome::True) => "contained",
                Ok(Outcome::False) => "not_contained",
                Ok(Outcome::Unknown(_)) => "unknown",
                Err(_) => "error",
            };
            // Interner health: table sizes plus lookup/hit/resize totals
            // for the global symbol interner and the hash-consed ground
            // value table (cf. the `interner_microbench` bin in qc-bench).
            let istats = |s: &relcont::datalog::InternerStats| {
                format!(
                    "{{ \"symbols\": {}, \"bytes\": {}, \"lookups\": {}, \
                     \"hits\": {}, \"resizes\": {} }}",
                    s.symbols, s.bytes, s.lookups, s.hits, s.resizes
                )
            };
            let sym = istats(&relcont::datalog::interner_stats());
            let val = istats(&relcont::datalog::value::value_stats());
            let wrapped = format!(
                "{{\n  \"verdict\": \"{verdict}\",\n  \"report\": {json},\n  \"histograms\": {hists},\n  \"interners\": {{ \"symbol\": {sym}, \"value\": {val} }}\n}}"
            );
            std::fs::write(&path, wrapped).map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = prom_path {
            let text = qc_obs::prometheus_text(rec.counters(), rec.histograms());
            std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    result
}

struct Flags {
    values: BTreeMap<String, String>,
    bp: bool,
    trace: bool,
}

impl Flags {
    fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn optional(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// True when a resource limit was requested: `check` then reports the
    /// anytime verdict instead of the classical-vs-relative kind.
    fn limited(&self) -> bool {
        self.optional("timeout").is_some() || self.optional("budget").is_some()
    }

    /// Builds the guard described by `--timeout` / `--budget`, if any.
    fn guard(&self) -> Result<Option<Guard>, String> {
        if !self.limited() {
            return Ok(None);
        }
        let mut g = Guard::unlimited();
        if let Some(ms) = self.optional("timeout") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("--timeout expects milliseconds, got {ms:?}"))?;
            g = g.with_timeout(std::time::Duration::from_millis(ms));
        }
        if let Some(units) = self.optional("budget") {
            let units: u64 = units
                .parse()
                .map_err(|_| format!("--budget expects a unit count, got {units:?}"))?;
            g = g.with_budget(units);
        }
        Ok(Some(g))
    }
}

fn parse_flags(rest: &[String]) -> Result<Flags, String> {
    let mut values = BTreeMap::new();
    let mut bp = false;
    let mut trace = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        if name == "bp" {
            bp = true;
            continue;
        }
        if name == "trace" {
            trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        values.insert(name.to_string(), value.clone());
    }
    Ok(Flags { values, bp, trace })
}

/// Loads a view file: rules plus `%% adorn` / `%% complete` directives.
fn load_views(path: &str) -> Result<LavSetting, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = String::new();
    let mut directives: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        if let Some(d) = line.trim().strip_prefix("%%") {
            let parts: Vec<String> = d.split_whitespace().map(str::to_string).collect();
            if let Some((head, tail)) = parts.split_first() {
                directives.push((head.clone(), tail.to_vec()));
            }
        } else {
            rules.push_str(line);
            rules.push('\n');
        }
    }
    let program = parse_program(&rules).map_err(|e| format!("{path}: {e}"))?;
    let mut views = LavSetting::default();
    for rule in program.rules() {
        let src = relcont::mediator::schema::SourceDescription::parse(&rule.to_string())
            .map_err(|e| format!("{path}: {e}"))?;
        views.sources.push(src);
    }
    for (head, tail) in directives {
        match head.as_str() {
            "adorn" => {
                let [name, pattern] = tail.as_slice() else {
                    return Err(format!("{path}: %% adorn NAME PATTERN"));
                };
                let idx = views
                    .sources
                    .iter()
                    .position(|s| s.name == name.as_str())
                    .ok_or_else(|| format!("{path}: unknown source {name}"))?;
                views.sources[idx] = views.sources[idx].clone().with_adornment(pattern);
            }
            "complete" => {
                let [name] = tail.as_slice() else {
                    return Err(format!("{path}: %% complete NAME"));
                };
                let idx = views
                    .sources
                    .iter()
                    .position(|s| s.name == name.as_str())
                    .ok_or_else(|| format!("{path}: unknown source {name}"))?;
                views.sources[idx].complete = true;
            }
            other => return Err(format!("{path}: unknown directive %% {other}")),
        }
    }
    Ok(views)
}

/// Parses a rule file. A predicate used at two arities is an input error:
/// evaluation keeps one relation, of one arity, per predicate.
fn parse_rules(label: &str, text: &str) -> Result<Program, String> {
    let program = parse_program(text).map_err(|e| format!("{label}: {e}"))?;
    if let Err(preds) = program.arities() {
        return Err(format!(
            "{label}: predicate {} is used with more than one arity",
            preds[0]
        ));
    }
    Ok(program)
}

fn load_query(path: &str, ans: Option<&str>) -> Result<(Program, Symbol), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = parse_rules(path, &text)?;
    let ans = match ans {
        Some(a) => Symbol::new(a),
        None => program
            .rules()
            .first()
            .map(|r| r.head.pred)
            .ok_or_else(|| format!("{path}: empty program"))?,
    };
    Ok((program, ans))
}

fn cmd_check(flags: &Flags) -> Result<Outcome, String> {
    let views = load_views(flags.required("views")?)?;
    let (q1, ans1) = load_query(flags.required("q1")?, flags.optional("ans1"))?;
    let (q2, ans2) = load_query(flags.required("q2")?, flags.optional("ans2"))?;
    let question = Question {
        binding_patterns: flags.bp,
        ..Question::new(&q1, &ans1, &q2, &ans2)
    };
    let n = views.sources.len();
    let decision = if flags.bp || flags.limited() {
        decide(&question, Sources::Views(&views)).map_err(|e| e.to_string())?
    } else {
        let (kind, decision) =
            explain(&question, Sources::Views(&views)).map_err(|e| e.to_string())?;
        println!("{ans1} vs {ans2} relative to {n} source(s): {kind}");
        match decision {
            Some(decision) => decision,
            None => return Ok(Outcome::True), // classically contained
        }
    };
    let verdict = &decision.verdict;
    match verdict {
        Verdict::Unknown(_) if flags.bp => {}
        _ if flags.bp => println!(
            "{ans1} {} {ans2} relative to {n} adorned source(s)",
            if *verdict == Verdict::Contained {
                "\u{2291}"
            } else {
                "\u{22e2}"
            }
        ),
        // Under a resource limit, report how far the decision got instead
        // of failing with a bare resource error.
        _ if flags.limited() => println!("{ans1} vs {ans2} relative to {n} source(s): {verdict}"),
        _ => {}
    }
    if let Verdict::Unknown(partial) = verdict {
        if let Some(plan) = &partial.partial_plan {
            println!("% partial plan proven contained so far:");
            for d in &plan.disjuncts {
                println!("{}", d.tidy_names().to_rule());
            }
        }
        return Ok(Outcome::Unknown(partial.resource.to_string()));
    }
    if let Some(w) = &decision.witness {
        println!("{w}");
    }
    Ok(outcome_of(*verdict == Verdict::Contained))
}

fn cmd_plan(flags: &Flags) -> Result<Outcome, String> {
    let views = load_views(flags.required("views")?)?;
    let (q, ans) = load_query(flags.required("query")?, flags.optional("ans"))?;
    let plan = match max_contained_ucq_plan(&q, &ans, &views) {
        Ok(plan) => plan,
        Err(e) => {
            if let Some(r) = e.resource() {
                return Ok(Outcome::Unknown(r.to_string()));
            }
            return Err(e.to_string());
        }
    };
    if plan.is_empty() {
        println!("% the maximally-contained plan is empty (no certain answers ever)");
    } else {
        for d in &plan.disjuncts {
            println!("{}", d.tidy_names().to_rule());
        }
    }
    Ok(Outcome::True)
}

fn cmd_certain(flags: &Flags) -> Result<Outcome, String> {
    let views = load_views(flags.required("views")?)?;
    let (q, ans) = load_query(flags.required("query")?, flags.optional("ans"))?;
    let mut db = Database::new();
    if let Some(path) = flags.optional("instance") {
        let data = std::fs::read_to_string(path).map_err(|e| format!("instance: {e}"))?;
        db.merge(&Database::parse(&data).map_err(|e| format!("instance: {e}"))?);
    }
    if let Some(specs) = flags.optional("csv") {
        load_csv_specs(&mut db, specs)?;
    }
    if flags.optional("instance").is_none() && flags.optional("csv").is_none() {
        return Err("certain needs --instance and/or --csv".into());
    }
    let rel = match if flags.bp {
        reachable_certain_answers(&q, &ans, &views, &db, &engine_eval_options())
    } else {
        certain_answers(&q, &ans, &views, &db, &engine_eval_options())
    } {
        Ok(rel) => rel,
        Err(e) => {
            if let Some(r) = e.resource() {
                return Ok(Outcome::Unknown(r.to_string()));
            }
            return Err(e.to_string());
        }
    };
    let mut rows: Vec<String> = rel
        .tuples()
        .iter()
        .map(|t| {
            let mut line = String::new();
            // Writing into a String cannot fail.
            let _ = write!(line, "{ans}(");
            for (i, v) in t.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                let _ = write!(line, "{v}");
            }
            line.push_str(").");
            line
        })
        .collect();
    rows.sort();
    for r in rows {
        println!("{r}");
    }
    Ok(Outcome::True)
}

fn cmd_validate(flags: &Flags) -> Result<Outcome, String> {
    let views = load_views(flags.required("views")?)?;
    let schema = relcont::mediator::schema::MediatedSchema::infer(&views);
    schema
        .validate_views(&views)
        .map_err(|e| format!("views: {e}"))?;
    println!(
        "{} source(s) over a mediated schema of {} relation(s): consistent",
        views.sources.len(),
        views
            .sources
            .iter()
            .flat_map(|s| s.view.subgoals.iter().map(|a| a.pred))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    if let Some(qpath) = flags.optional("query") {
        let (q, ans) = load_query(qpath, flags.optional("ans"))?;
        schema
            .validate_query(&q)
            .map_err(|e| format!("query: {e}"))?;
        for rule in q.rules() {
            relcont::datalog::validate_rule(rule).map_err(|e| format!("query: {e}"))?;
        }
        println!("query {ans}: safe and consistent with the schema");
    }
    Ok(Outcome::True)
}

/// Batch/daemon serving: runs a jobs file of containment questions
/// through the supervised `qc-serve` service. All jobs share one query
/// file (each `ANS1 ANS2` pair selects answer predicates from it) and the
/// `--views` setting; `--budget`/`--timeout` become per-request limits
/// instead of a process guard, and admission/capacity are governed by
/// `--workers`, `--queue`, and `--pool`.
fn cmd_serve(flags: &Flags) -> Result<Outcome, String> {
    let views = load_views(flags.required("views")?)?;
    let qpath = flags.required("queries")?;
    let qtext = std::fs::read_to_string(qpath).map_err(|e| format!("{qpath}: {e}"))?;
    let program = parse_rules(qpath, &qtext)?;
    let jpath = flags.required("jobs")?;
    let jtext = std::fs::read_to_string(jpath).map_err(|e| format!("{jpath}: {e}"))?;

    let mut cfg = relcont::serve::ServeConfig::default();
    if let Some(w) = flags.optional("workers") {
        cfg.workers = w
            .parse()
            .map_err(|_| format!("--workers expects a count, got {w:?}"))?;
    }
    if let Some(q) = flags.optional("queue") {
        cfg.queue_capacity = q
            .parse()
            .map_err(|_| format!("--queue expects a capacity, got {q:?}"))?;
    }
    if let Some(p) = flags.optional("pool") {
        cfg.pool = p
            .parse()
            .map_err(|_| format!("--pool expects a unit count, got {p:?}"))?;
    }
    let budget: Option<u64> = match flags.optional("budget") {
        Some(b) => Some(
            b.parse()
                .map_err(|_| format!("--budget expects a unit count, got {b:?}"))?,
        ),
        None => None,
    };
    let timeout = match flags.optional("timeout") {
        Some(ms) => Some(std::time::Duration::from_millis(
            ms.parse()
                .map_err(|_| format!("--timeout expects milliseconds, got {ms:?}"))?,
        )),
        None => None,
    };
    let retries: u32 = match flags.optional("retries") {
        Some(n) => n
            .parse()
            .map_err(|_| format!("--retries expects a count, got {n:?}"))?,
        None => 0,
    };

    let mut pairs: Vec<(String, String)> = Vec::new();
    for (lineno, line) in jtext.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => pairs.push((a.to_string(), b.to_string())),
            _ => return Err(format!("{jpath}:{}: expected `ANS1 ANS2`", lineno + 1)),
        }
    }
    if pairs.is_empty() {
        return Err(format!("{jpath}: no jobs"));
    }
    for (a, b) in &pairs {
        for name in [a, b] {
            if !program.rules().iter().any(|r| r.head.pred.as_str() == name) {
                return Err(format!("{jpath}: no rules for query {name} in {qpath}"));
            }
        }
    }

    let svc = match flags.optional("journal") {
        Some(path) => {
            // Durable checkpoints: unknown verdicts are journaled to the
            // file and survive process restarts; a rerun against the same
            // journal resumes instead of recomputing.
            use relcont::serve::CheckpointStore as _;
            let journal = relcont::serve::FileJournal::open(path)
                .map_err(|e| format!("--journal {path}: {e}"))?;
            let report = journal.replay_report();
            eprintln!(
                "journal: {path} generation {}, {} record(s) replayed, {} live{}",
                journal.generation(),
                report.records_replayed,
                journal.live(),
                if report.repaired() {
                    " (repaired: torn/corrupt tail truncated)"
                } else {
                    ""
                }
            );
            relcont::serve::Service::start_with_store(views, cfg, std::sync::Arc::new(journal))
        }
        None => relcont::serve::Service::start(views, cfg),
    };
    let reqs: Vec<relcont::serve::Request> = pairs
        .iter()
        .map(|(a, b)| {
            let mut req = relcont::serve::Request::new(
                program.clone(),
                Symbol::new(a),
                program.clone(),
                Symbol::new(b),
            );
            req.budget = budget;
            req.timeout = timeout;
            req
        })
        .collect();
    let (ran, replies) = match flags.optional("churn-script") {
        Some(spath) => {
            // Live reconfiguration: catalog deltas apply between (and
            // concurrently with) request batches, against the running
            // service. Jobs are consumed cyclically by `run N` lines.
            let stext = std::fs::read_to_string(spath).map_err(|e| format!("{spath}: {e}"))?;
            let mut ran: Vec<(String, String)> = Vec::new();
            let mut replies = Vec::new();
            let mut cursor = 0usize;
            for (lineno, line) in stext.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                    continue;
                }
                if let Some(n) = line.strip_prefix("run ") {
                    let n: usize = n
                        .trim()
                        .parse()
                        .map_err(|_| format!("{spath}:{}: run expects a count", lineno + 1))?;
                    let batch: Vec<relcont::serve::Request> = (0..n)
                        .map(|i| reqs[(cursor + i) % reqs.len()].clone())
                        .collect();
                    ran.extend((0..n).map(|i| pairs[(cursor + i) % pairs.len()].clone()));
                    cursor += n;
                    replies.extend(svc.run_batch(batch));
                } else {
                    let op = relcont::serve::CatalogOp::parse(line)
                        .map_err(|e| format!("{spath}:{}: {e}", lineno + 1))?;
                    let report = svc
                        .apply_delta(&relcont::serve::CatalogDelta::one(op))
                        .map_err(|e| format!("{spath}:{}: {e}", lineno + 1))?;
                    eprintln!(
                        "churn: epoch {} ({} recompiled, {} reused; touched: {})",
                        svc.core().epoch(),
                        report.views_recompiled,
                        report.views_reused,
                        report
                            .touched_preds
                            .iter()
                            .cloned()
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
            }
            (ran, replies)
        }
        None => {
            let replies = svc.run_batch(reqs.clone());
            // `--retries N` grants each job N extra attempts through the
            // deterministic retry policy: shed/timeout errors back off and
            // resubmit, resumable Unknowns hand their checkpoint straight
            // back.
            let replies: Vec<_> = if retries == 0 {
                replies
            } else {
                let policy = relcont::serve::RetryPolicy::with_attempts(retries.saturating_add(1));
                reqs.iter()
                    .zip(replies)
                    .map(|(req, first)| {
                        let mut first = Some(first);
                        policy.run(|cp| match first.take() {
                            Some(r) => r,
                            None => {
                                let mut retry = req.clone();
                                retry.checkpoint = cp;
                                svc.submit(retry).and_then(|t| t.wait())
                            }
                        })
                    })
                    .collect()
            };
            (pairs.clone(), replies)
        }
    };

    let (mut undecided, mut refuted) = (0usize, 0usize);
    for ((a, b), reply) in ran.iter().zip(replies) {
        match reply {
            Ok(resp) => {
                let mut note = format!(
                    "tier={}, trace={}, epoch={}",
                    resp.tier, resp.trace, resp.epoch
                );
                if resp.resumed {
                    note.push_str(", resumed");
                }
                println!("{a} vs {b}: {} [{note}]", resp.verdict);
                match resp.verdict {
                    Verdict::Contained => {}
                    Verdict::NotContained => refuted += 1,
                    Verdict::Unknown(_) => undecided += 1,
                }
            }
            Err(e) => {
                println!("{a} vs {b}: error: {e}");
                undecided += 1;
            }
        }
    }
    let stats = svc.stats();
    eprintln!(
        "serve: {} job(s); health {}; tier {}; {} completed, {} shed, {} resumed, {} worker restart(s)",
        ran.len(),
        stats.health,
        stats.tier,
        stats.completed,
        stats.shed,
        stats.resumed,
        stats.worker_restarts
    );
    eprintln!(
        "serve durability: generation {}; {} journal append(s), {} live checkpoint(s); \
         {} coalesced, {} checkpoint(s) rejected",
        stats.generation,
        stats.journal_appends,
        stats.journal_live,
        stats.coalesced_hits,
        stats.checkpoint_rejected
    );
    eprintln!(
        "serve latency: queue-wait {}; execute {}; end-to-end {}",
        stats.queue_wait, stats.execute, stats.e2e
    );
    if let Some(path) = flags.optional("flight-recorder") {
        let json = serde_json::to_string_pretty(&svc.core().flight().to_json())
            .map_err(|e| format!("flight recorder serialization: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }
    // Fold the service's aggregated counters and histograms into the
    // thread recorder so --trace / --metrics-json / --prom report them
    // like any other command.
    for (name, n) in svc.core().counters().nonzero() {
        if let Some(c) = qc_obs::Counter::from_name(&name) {
            qc_obs::count(c, n);
        }
    }
    if let Some(rec) = qc_obs::current() {
        rec.absorb_hists(svc.core().histograms());
    }
    svc.shutdown();
    Ok(if undecided > 0 {
        Outcome::Unknown(format!("{undecided} job(s) undecided"))
    } else if refuted > 0 {
        Outcome::False
    } else {
        Outcome::True
    })
}

/// Loads `--csv pred=file[,pred=file…]` specs into a database.
fn load_csv_specs(db: &mut Database, specs: &str) -> Result<(), String> {
    for spec in specs.split(',') {
        let Some((pred, path)) = spec.split_once('=') else {
            return Err(format!("--csv expects pred=file, got {spec:?}"));
        };
        let text = std::fs::read_to_string(path.trim()).map_err(|e| format!("{path}: {e}"))?;
        db.load_csv(pred.trim(), &text)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn cmd_eval(flags: &Flags) -> Result<Outcome, String> {
    let text =
        std::fs::read_to_string(flags.required("program")?).map_err(|e| format!("program: {e}"))?;
    let program = parse_rules("program", &text)?;
    let data =
        std::fs::read_to_string(flags.required("data")?).map_err(|e| format!("data: {e}"))?;
    let db = Database::parse(&data).map_err(|e| format!("data: {e}"))?;
    let ans = Symbol::new(flags.required("ans")?);
    let rel = match relcont::datalog::eval::answers(&program, &db, &ans, &engine_eval_options()) {
        Ok(rel) => rel,
        Err(EvalError::Resource(r)) => return Ok(Outcome::Unknown(r.to_string())),
        Err(e) => return Err(e.to_string()),
    };
    let mut rows: Vec<String> = rel
        .tuples()
        .iter()
        .map(|t| {
            format!(
                "{:?}",
                t.iter().map(ToString::to_string).collect::<Vec<_>>()
            )
        })
        .collect();
    rows.sort();
    for r in rows {
        println!("{r}");
    }
    Ok(Outcome::True)
}
