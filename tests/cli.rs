//! End-to-end tests of the `relcont` CLI and `relcont-repl` binaries.

use std::io::Write;
use std::process::{Command, Stdio};

fn write_tmp(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).expect("write temp file");
    p
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("relcont-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

#[test]
fn cli_check_and_plan_and_certain() {
    let dir = tmpdir("basic");
    let views = write_tmp(
        &dir,
        "views.dl",
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).
         AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.
         CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    );
    let q1 = write_tmp(
        &dir,
        "q1.dl",
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    );
    let q2 = write_tmp(
        &dir,
        "q2.dl",
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
    );
    let data = write_tmp(
        &dir,
        "data.dl",
        "RedCars(c1, corolla, 1988). CarAndDriver(corolla, nice).",
    );
    let bin = env!("CARGO_BIN_EXE_relcont");

    // Only-relative containment: exit 0 and explanatory output.
    let out = Command::new(bin)
        .args(["check", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q1)
        .args(["--q2"])
        .arg(&q2)
        .output()
        .expect("run relcont");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("only relative"), "{stdout}");

    // The classical direction reports "classically".
    let out = Command::new(bin)
        .args(["check", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q2)
        .args(["--q2"])
        .arg(&q1)
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("classically"));

    // Plan printing.
    let out = Command::new(bin)
        .args(["plan", "--views"])
        .arg(&views)
        .args(["--query"])
        .arg(&q1)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RedCars"), "{stdout}");
    assert!(stdout.contains("AntiqueCars"), "{stdout}");

    // Certain answers.
    let out = Command::new(bin)
        .args(["certain", "--views"])
        .arg(&views)
        .args(["--query"])
        .arg(&q1)
        .args(["--instance"])
        .arg(&data)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("q1(c1, nice)."), "{stdout}");
}

/// A NotContained `check` builds Q1's plan once: the classical check, then
/// one decision whose refuted disjunct is the printed witness.
#[test]
fn cli_check_builds_the_plan_once() {
    let dir = tmpdir("plan-once");
    let views = write_tmp(
        &dir,
        "views.dl",
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).
         AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.
         CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    );
    let q1 = write_tmp(
        &dir,
        "q1.dl",
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    );
    let q3 = write_tmp(
        &dir,
        "q3.dl",
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    );
    let metrics = dir.join("metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_relcont"))
        .args(["check", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q1)
        .args(["--q2"])
        .arg(&q3)
        .args(["--metrics-json"])
        .arg(&metrics)
        .output()
        .expect("run relcont");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("not contained"), "{stdout}");
    assert!(
        stdout.contains("witness plan:      q1(A, B) :- RedCars("),
        "{stdout}"
    );
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    assert_eq!(
        json.matches("\"name\": \"plan_construction\"").count(),
        1,
        "{json}"
    );
    // The root report's counters come first.
    let root = json
        .split("\"plan_disjuncts\": ")
        .nth(1)
        .expect("plan_disjuncts");
    assert!(root.starts_with("2\n") || root.starts_with("2,"), "{json}");
}

#[test]
fn cli_binding_patterns_via_directives() {
    let dir = tmpdir("bp");
    let views = write_tmp(
        &dir,
        "views.dl",
        "Catalog(Author, Isbn) :- authored(Isbn, Author).
         PriceOf(Isbn, Price) :- price(Isbn, Price).
         %% adorn Catalog bf
         %% adorn PriceOf bf",
    );
    let q_eco = write_tmp(&dir, "qe.dl", "qe(P) :- authored(I, eco), price(I, P).");
    let q_all = write_tmp(&dir, "qa.dl", "qa(P) :- price(I, P).");
    let data = write_tmp(
        &dir,
        "data.dl",
        "Catalog(eco, i1). PriceOf(i1, 30). PriceOf(i9, 99).",
    );
    let bin = env!("CARGO_BIN_EXE_relcont");

    // BP containment: the broad query has no reachable answers.
    let out = Command::new(bin)
        .args(["check", "--bp", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q_all)
        .args(["--q2"])
        .arg(&q_eco)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // A failing BP containment prints the counterexample expansion.
    let q_strong = write_tmp(
        &dir,
        "qs.dl",
        "qs(P) :- authored(I, eco), price(I, P), cites(I, I).",
    );
    let out = Command::new(bin)
        .args(["check", "--bp", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q_eco)
        .args(["--q2"])
        .arg(&q_strong)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("qe \u{22e2} qs"), "{stdout}");
    assert!(stdout.contains("witness expansion: "), "{stdout}");
    // A budget that trips the type fixpoint leaves it undecided (exit 3).
    let out = Command::new(bin)
        .args(["check", "--bp", "--budget", "1", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q_eco)
        .args(["--q2"])
        .arg(&q_strong)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("undecided"));

    // Reachable certain answers exclude the unreachable price.
    let out = Command::new(bin)
        .args(["certain", "--bp", "--views"])
        .arg(&views)
        .args(["--query"])
        .arg(&q_eco)
        .args(["--instance"])
        .arg(&data)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("qe(30)."), "{stdout}");
    assert!(!stdout.contains("99"), "{stdout}");
}

#[test]
fn cli_resource_limits_yield_exit_3_and_tagged_metrics() {
    let dir = tmpdir("limits");
    let views = write_tmp(
        &dir,
        "views.dl",
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).
         CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    );
    let q1 = write_tmp(
        &dir,
        "q1.dl",
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    );
    let q2 = write_tmp(
        &dir,
        "q2.dl",
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
    );
    let metrics = dir.join("metrics.json");
    let bin = env!("CARGO_BIN_EXE_relcont");

    // A one-unit budget stops the decision: exit 3, "undecided" on stderr,
    // and the metrics JSON tagged with the unknown verdict.
    let out = Command::new(bin)
        .args(["check", "--budget", "1", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q1)
        .args(["--q2"])
        .arg(&q2)
        .args(["--metrics-json"])
        .arg(&metrics)
        .output()
        .expect("run relcont");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("undecided"));
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(json.contains("\"verdict\": \"unknown\""), "{json}");

    // A generous budget (and timeout) lets the same check finish: exit 0 and
    // a "contained" verdict tag.
    let out = Command::new(bin)
        .args([
            "check",
            "--budget",
            "1000000",
            "--timeout",
            "60000",
            "--views",
        ])
        .arg(&views)
        .args(["--q1"])
        .arg(&q1)
        .args(["--q2"])
        .arg(&q2)
        .args(["--metrics-json"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"verdict\": \"contained\""), "{json}");

    // A malformed limit is a usage error, not a crash.
    let out = Command::new(bin)
        .args(["check", "--budget", "lots", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q1)
        .args(["--q2"])
        .arg(&q2)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn cli_eval_metrics_expose_ra_engine_counters() {
    // A recursive program over a non-trivial EDB routes to the compiled
    // RA engine under the default adaptive tiering, and the metrics JSON
    // must surface the compile/eval instrumentation: rule count, magic
    // pruning, tier counter, and both timing histograms.
    let dir = tmpdir("ra-metrics");
    let prog = write_tmp(
        &dir,
        "prog.dl",
        "t(X, Y) :- e(X, Y).
         t(X, Z) :- t(X, Y), e(Y, Z).
         q(Y) :- t(c0, Y).",
    );
    // Two disconnected chains: only the c-chain is reachable from the
    // seed, so the magic-sets rewrite has something to prune.
    let mut edges = String::new();
    for i in 0..20 {
        edges.push_str(&format!("e(c{i}, c{}).\ne(d{i}, d{}).\n", i + 1, i + 1));
    }
    let data = write_tmp(&dir, "data.dl", &edges);
    let metrics = dir.join("metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_relcont"))
        .args(["eval", "--program"])
        .arg(&prog)
        .args(["--data"])
        .arg(&data)
        .args(["--ans", "q", "--metrics-json"])
        .arg(&metrics)
        .output()
        .expect("run relcont");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[\"c1\"]"), "{stdout}");
    assert!(stdout.contains("[\"c20\"]"), "{stdout}");
    assert!(!stdout.contains("d1"), "{stdout}");
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    for key in [
        "\"ra_rules_compiled\"",
        "\"ra_magic_pruned_tuples\"",
        "\"eval_tier_ra\"",
        "\"ra_compile_ns\"",
        "\"ra_eval_ns\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn repl_stats_reports_eval_tier() {
    // The REPL's `:stats` tree carries the engine-tier counters, so a
    // session can tell which kernel served its certain-answer runs
    // (conjunctive plans stay on the tuple kernel under adaptive tiering).
    let bin = env!("CARGO_BIN_EXE_relcont-repl");
    let mut child = Command::new(bin)
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let script = "view v0(A, B) :- e(A, B).
query q(X, Y) :- e(X, Y).
fact v0(1, 2).
certain q
:stats
quit
";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("q(1, 2)"), "{stdout}");
    assert!(stdout.contains("eval_tier_tuple=1"), "{stdout}");
}

#[test]
fn repl_limit_command() {
    let bin = env!("CARGO_BIN_EXE_relcont-repl");
    let mut child = Command::new(bin)
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let script = "view V(A, B) :- p(A, B).
query qa(X) :- p(X, Y).
query qb(X) :- p(X, X).
:limit budget 1
check qb qa
:limit
:limit off
check qb qa
quit
";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("qb vs qa: unknown"), "{stdout}");
    assert!(stdout.contains("budget exhausted"), "{stdout}");
    assert!(stdout.contains("budget: 1 units"), "{stdout}");
    assert!(stdout.contains("resource limits removed"), "{stdout}");
    assert!(
        stdout.contains("qb vs qa: contained (classically)"),
        "{stdout}"
    );
}

#[test]
fn cli_reports_usage_errors() {
    let bin = env!("CARGO_BIN_EXE_relcont");
    let out = Command::new(bin).arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = Command::new(bin).args(["check"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    // An input error is one `relcont: …` line, without the usage text.
    let dir = tmpdir("usage");
    let views = write_tmp(&dir, "views.dl", "V(X, Y) :- e(X, Y).");
    let query = write_tmp(&dir, "q.dl", "q(X, Y) :- e(X, Z).");
    let out = Command::new(bin)
        .args(["plan", "--views"])
        .arg(&views)
        .arg("--query")
        .arg(&query)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr.contains("unsafe rule"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// A `%% adorn` line that is not one `b` or `f` per head position is an
/// input error for every command that reads the views file, not a panic.
#[test]
fn cli_rejects_a_bad_adornment_without_panicking() {
    let dir = tmpdir("adorn");
    // The commands below name these files relative to `dir`.
    write_tmp(&dir, "q.dl", "q(X) :- e(X, Y).");
    write_tmp(&dir, "facts.dl", "V(1, 2).");
    write_tmp(&dir, "jobs.txt", "q q");
    let bin = env!("CARGO_BIN_EXE_relcont");
    for pattern in ["fff", "xz"] {
        let views = write_tmp(
            &dir,
            &format!("views_{pattern}.dl"),
            &format!("V(X, Y) :- e(X, Y).\n%% adorn V {pattern}\n"),
        );
        let commands: [&[&str]; 5] = [
            &["check", "--q1", "q.dl", "--q2", "q.dl"],
            &["plan", "--query", "q.dl"],
            &["certain", "--query", "q.dl", "--instance", "facts.dl"],
            &["validate"],
            &["serve", "--queries", "q.dl", "--jobs", "jobs.txt"],
        ];
        for args in commands {
            let out = Command::new(bin)
                .current_dir(&dir)
                .args(args)
                .arg("--views")
                .arg(&views)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} {pattern}: {out:?}");
            assert!(!stderr.contains("panicked"), "{args:?} {pattern}: {stderr}");
            assert!(stderr.contains("source V"), "{args:?} {pattern}: {stderr}");
            assert!(out.stdout.is_empty(), "{args:?} {pattern}: {out:?}");
        }
    }
}

#[test]
fn cli_rejects_facts_of_two_arities() {
    let dir = tmpdir("arity");
    let views = write_tmp(&dir, "views.dl", "v(X, Y) :- p(X, Y).");
    let query = write_tmp(&dir, "q.dl", "q(X) :- p(X, Y).");
    let program = write_tmp(&dir, "prog.dl", "r(Y) :- p(3, Y).");
    let bin = env!("CARGO_BIN_EXE_relcont");
    let expect_usage_error = |out: std::process::Output, what: &str| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: {out:?}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(stderr.contains("arity"), "{what}: {stderr}");
        assert!(out.stdout.is_empty(), "{what}: {out:?}");
    };
    for (i, facts) in ["v(1). v(1, 2).", "v(1, 2). v(3).", "v(1, 2). v(3). v(4)."]
        .into_iter()
        .enumerate()
    {
        let data = write_tmp(&dir, &format!("inst{i}.dl"), facts);
        let out = Command::new(bin)
            .args(["certain", "--views"])
            .arg(&views)
            .arg("--query")
            .arg(&query)
            .arg("--instance")
            .arg(&data)
            .output()
            .unwrap();
        expect_usage_error(out, &format!("certain --instance {facts}"));
        let data = write_tmp(&dir, &format!("data{i}.dl"), &facts.replace('v', "p"));
        let out = Command::new(bin)
            .arg("eval")
            .arg("--program")
            .arg(&program)
            .arg("--data")
            .arg(&data)
            .args(["--ans", "r"])
            .output()
            .unwrap();
        expect_usage_error(out, &format!("eval --data {facts}"));
    }
    // A program or query that uses one predicate at two arities.
    let two = write_tmp(&dir, "two.dl", "p(X) :- e(X). p(X, Y) :- f(X, Y).");
    let data = write_tmp(&dir, "two_data.dl", "e(1). f(1, 2).");
    let out = Command::new(bin)
        .args(["eval", "--program"])
        .arg(&two)
        .arg("--data")
        .arg(&data)
        .args(["--ans", "p"])
        .output()
        .unwrap();
    expect_usage_error(out, "eval --program with p at two arities");
    let views1 = write_tmp(&dir, "views1.dl", "V(X) :- e(X).");
    let query2 = write_tmp(&dir, "q2.dl", "q(X) :- e(X). q(X, Y) :- e(X), e(Y).");
    let inst = write_tmp(&dir, "inst_v.dl", "V(1).");
    let out = Command::new(bin)
        .args(["certain", "--views"])
        .arg(&views1)
        .arg("--query")
        .arg(&query2)
        .arg("--instance")
        .arg(&inst)
        .output()
        .unwrap();
    expect_usage_error(out, "certain --query with q at two arities");
    // Views that use one mediated predicate at two arities: their inverse
    // rules define `edge` twice, which the evaluator refuses.
    let views2 = write_tmp(
        &dir,
        "views2.dl",
        "V(X, Y) :- edge(X, Y).\nW(X) :- edge(X).",
    );
    let query1 = write_tmp(&dir, "q_edge.dl", "q(X) :- edge(X).");
    let inst = write_tmp(&dir, "inst_vw.dl", "V(1, 2). W(3).");
    let out = Command::new(bin)
        .args(["certain", "--views"])
        .arg(&views2)
        .arg("--query")
        .arg(&query1)
        .arg("--instance")
        .arg(&inst)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    expect_usage_error(out, "certain over views with edge at two arities");
    assert!(stderr.contains("predicate edge"), "{stderr}");
    let jobs = write_tmp(&dir, "jobs.txt", "q q");
    let out = Command::new(bin)
        .args(["serve", "--views"])
        .arg(&views1)
        .arg("--queries")
        .arg(&query2)
        .arg("--jobs")
        .arg(&jobs)
        .output()
        .unwrap();
    expect_usage_error(out, "serve --queries with q at two arities");
    // An instance and a CSV file that disagree on one source's arity.
    let data = write_tmp(&dir, "inst.dl", "v(1, 2).");
    let csv = write_tmp(&dir, "v.csv", "3\n4\n");
    let out = Command::new(bin)
        .args(["certain", "--views"])
        .arg(&views)
        .arg("--query")
        .arg(&query)
        .arg("--instance")
        .arg(&data)
        .args(["--csv", &format!("v={}", csv.display())])
        .output()
        .unwrap();
    expect_usage_error(out, "certain --instance --csv");

    // The REPL reports the clash and keeps going.
    let mut child = Command::new(env!("CARGO_BIN_EXE_relcont-repl"))
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"fact V(a, b).\nfact V(c).\nfact V(c, d).\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("has arity 2"), "{stdout}");
    assert!(stdout.contains("2 fact(s) total"), "{stdout}");

    // A query defined at two arities: `certain` reports it on the error
    // line, like any failed command, and the session carries on. The
    // input gate refuses it before any evaluation.
    let mut child = Command::new(env!("CARGO_BIN_EXE_relcont-repl"))
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"view V(X, Y) :- edge(X, Y).
query t(X, Y) :- edge(X, Y).
query t(X, Z) :- t(X, Y), edge(Y, Z).
query t(X) :- edge(X, X).
fact V(1, 1).
certain t
fact V(2, 2).
quit
",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout.contains("error: predicate t is used with arity 2 and with arity 1"),
        "{stdout}"
    );
    assert!(stdout.contains("2 fact(s) total"), "{stdout}");
}

/// Theorem 5.1's plan for a semi-interval chain under a deadline: the
/// n = 28 chain has one plan disjunct, found within the deadline.
#[test]
fn cli_semi_interval_chain_respects_its_deadline() {
    let dir = tmpdir("semi-interval-chain");
    let n = 28;
    let body = (0..n)
        .map(|i| format!("r(X{i}, X{})", i + 1))
        .collect::<Vec<_>>()
        .join(", ");
    let views = write_tmp(&dir, "views.dl", "v(A, B) :- r(A, B).");
    let q1 = write_tmp(&dir, "q1.dl", &format!("q(X0, X{n}) :- {body}, X0 < 3."));
    let q2 = write_tmp(&dir, "q2.dl", &format!("q(X0, X{n}) :- {body}, X0 < 2."));
    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_relcont"))
        .args(["check", "--timeout", "50", "--views"])
        .arg(&views)
        .args(["--q1"])
        .arg(&q1)
        .args(["--q2"])
        .arg(&q2)
        .output()
        .expect("run relcont");
    let elapsed = started.elapsed();
    assert!(
        matches!(out.status.code(), Some(1 | 3)),
        "answers or reports undecided: {out:?}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "took {elapsed:?} under a 50 ms deadline"
    );
}

/// A plan whose unfolding is exponential stops at the deadline while it
/// is being unfolded. Q1 is a chain of 9 `r` atoms over four copies of
/// `v(A, B) :- r(A, B)`, so its plan has 4^9 disjuncts; Q2 adds `s(X0)`.
/// Both the comparison-free question and its semi-interval variant (the
/// Theorem 5.1 route) must answer "undecided" well within a second.
#[test]
fn cli_unfolding_respects_its_deadline() {
    let dir = tmpdir("unfold-deadline");
    let n = 9;
    let body = (0..n)
        .map(|i| format!("r(X{i}, X{})", i + 1))
        .collect::<Vec<_>>()
        .join(", ");
    let views = write_tmp(
        &dir,
        "views.dl",
        "v1(A, B) :- r(A, B).
         v2(A, B) :- r(A, B).
         v3(A, B) :- r(A, B).
         v4(A, B) :- r(A, B).
         w(A) :- s(A).",
    );
    for (tag, c1, c2) in [("plain", "", ""), ("semi", ", X0 < 3", ", X0 < 2")] {
        let q1 = write_tmp(
            &dir,
            &format!("{tag}_q1.dl"),
            &format!("q(X0, X{n}) :- {body}{c1}."),
        );
        let q2 = write_tmp(
            &dir,
            &format!("{tag}_q2.dl"),
            &format!("q(X0, X{n}) :- {body}, s(X0){c2}."),
        );
        let started = std::time::Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_relcont"))
            .args(["check", "--timeout", "100", "--views"])
            .arg(&views)
            .args(["--q1"])
            .arg(&q1)
            .args(["--q2"])
            .arg(&q2)
            .output()
            .expect("run relcont");
        let elapsed = started.elapsed();
        assert_eq!(out.status.code(), Some(3), "{tag}: {out:?}");
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{tag}: took {elapsed:?} under a 100 ms deadline"
        );
    }
}

#[test]
fn repl_scripted_session() {
    let bin = env!("CARGO_BIN_EXE_relcont-repl");
    let mut child = Command::new(bin)
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn repl");
    let script = "view V(A, B) :- p(A, B).
query qa(X) :- p(X, Y).
query qb(X) :- p(X, X).
check qb qa
check qa qb
fact V(a, a).
certain qa
plan qb
boguscmd
quit
";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("qb vs qa: contained (classically)"),
        "{stdout}"
    );
    assert!(stdout.contains("qa vs qb: not contained"), "{stdout}");
    assert!(stdout.contains("qa(a)."), "{stdout}");
    assert!(stdout.contains("error: unknown command"), "{stdout}");
}

#[test]
fn cli_csv_and_validate() {
    let dir = tmpdir("csv");
    let views = write_tmp(
        &dir,
        "views.dl",
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).
         CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    );
    let q1 = write_tmp(
        &dir,
        "q1.dl",
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    );
    let cars = write_tmp(
        &dir,
        "cars.csv",
        "c1, corolla, 1988\n# comment\nc2, beetle, 1971\n",
    );
    let reviews = write_tmp(&dir, "reviews.csv", "corolla, nice\nbeetle, meh\n");
    let bin = env!("CARGO_BIN_EXE_relcont");

    let out = Command::new(bin)
        .args(["certain", "--views"])
        .arg(&views)
        .args(["--query"])
        .arg(&q1)
        .args([
            "--csv",
            &format!(
                "RedCars={},CarAndDriver={}",
                cars.display(),
                reviews.display()
            ),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("q1(c1, nice)."), "{stdout}");
    assert!(stdout.contains("q1(c2, meh)."), "{stdout}");

    // validate: consistent setup passes; a typo'd query fails with exit 2.
    let out = Command::new(bin)
        .args(["validate", "--views"])
        .arg(&views)
        .args(["--query"])
        .arg(&q1)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let bad = write_tmp(&dir, "bad.dl", "q(X) :- CarDesc(X, M).");
    let out = Command::new(bin)
        .args(["validate", "--views"])
        .arg(&views)
        .args(["--query"])
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("arity"));
}

#[test]
fn repl_analysis_commands() {
    let bin = env!("CARGO_BIN_EXE_relcont-repl");
    let mut child = Command::new(bin)
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let script = "view V(A) :- p(A, B).
view W(C, D) :- r(C, D).
query q(X) :- p(X, Y).
lossless q
coverage q
why q q
quit
";
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("losslessly"), "{stdout}");
    assert!(stdout.contains("uses:   V"), "{stdout}");
    assert!(stdout.contains("unused: W"), "{stdout}");
    assert!(stdout.contains("no witness exists"), "{stdout}");
}

#[test]
fn cli_serve_batch_exit_codes_and_stats() {
    let dir = tmpdir("serve");
    let views = write_tmp(
        &dir,
        "views.dl",
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).
         AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.
         CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    );
    let queries = write_tmp(
        &dir,
        "queries.dl",
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).
         q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).
         q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    );
    let bin = env!("CARGO_BIN_EXE_relcont");

    // All pairs contained: exit 0, every line tagged with a trace ID and
    // the catalog epoch, and the stderr summary accounts for every job
    // (none lost, none shed) with a latency digest. The flight-recorder
    // dump keeps a timeline per request.
    let jobs = write_tmp(&dir, "ok.txt", "% contained pairs\nq1 q2\nq2 q1\n");
    let flight = dir.join("flight.json");
    let out = Command::new(bin)
        .args(["serve", "--views"])
        .arg(&views)
        .args(["--queries"])
        .arg(&queries)
        .args(["--jobs"])
        .arg(&jobs)
        .args(["--flight-recorder"])
        .arg(&flight)
        .output()
        .expect("run relcont serve");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("q1 vs q2: contained [trace=t-"), "{stdout}");
    assert!(stdout.contains("q2 vs q1: contained [trace=t-"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("serve: 2 job(s)"), "{stderr}");
    assert!(stderr.contains("2 completed, 0 shed"), "{stderr}");
    assert!(stderr.contains("serve latency: queue-wait"), "{stderr}");
    let dump = std::fs::read_to_string(&flight).expect("flight dump written");
    assert!(dump.matches("\"trace\"").count() >= 2, "{dump}");
    assert!(dump.contains("\"outcome\": \"contained\""), "{dump}");

    // A refuted pair (and no undecided ones): exit 1.
    let jobs = write_tmp(&dir, "refuted.txt", "q1 q2\nq2 q3\n");
    let out = Command::new(bin)
        .args(["serve", "--views"])
        .arg(&views)
        .args(["--queries"])
        .arg(&queries)
        .args(["--jobs"])
        .arg(&jobs)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("q2 vs q3: not contained"),
        "{out:?}"
    );

    // A starved per-request budget leaves jobs undecided: exit 3, with
    // resource provenance in the verdict line.
    let jobs = write_tmp(&dir, "starved.txt", "q1 q2\n");
    let out = Command::new(bin)
        .args(["serve", "--views"])
        .arg(&views)
        .args(["--queries"])
        .arg(&queries)
        .args(["--jobs"])
        .arg(&jobs)
        .args(["--budget", "1", "--workers", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("budget exhausted"),
        "{out:?}"
    );

    // Usage errors: missing --jobs, and a job naming an unknown query.
    let out = Command::new(bin)
        .args(["serve", "--views"])
        .arg(&views)
        .args(["--queries"])
        .arg(&queries)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let jobs = write_tmp(&dir, "unknown.txt", "q1 nosuch\n");
    let out = Command::new(bin)
        .args(["serve", "--views"])
        .arg(&views)
        .args(["--queries"])
        .arg(&queries)
        .args(["--jobs"])
        .arg(&jobs)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no rules for query nosuch"),
        "{out:?}"
    );
}

/// Pipes `script` into `relcont-repl` and returns its stdout.
fn repl(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_relcont-repl"))
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const TC: &str = "t(X, Y) :- edge(X, Y).\nt(X, Z) :- t(X, Y), edge(Y, Z).\n";
const ENDS_TOUCH_EDGES: &str = "s(X, Y) :- edge(X, A), edge(B, Y).\n";
const THREE_HOPS: &str = "w(X, W) :- edge(X, Y), edge(Y, Z), edge(Z, W).\n";

#[test]
fn cli_check_answers_theorem_3_2_questions_without_limits() {
    // A recursive Q1 against a nonrecursive Q2, and the reverse: the
    // classical check runs the procedure for the question's class (the
    // type fixpoint; Q2 over Q1's canonical databases) instead of
    // unfolding a recursive query.
    let dir = tmpdir("thm32");
    let views = write_tmp(&dir, "views.dl", "V(X, Y) :- edge(X, Y).");
    let tc = write_tmp(&dir, "tc.dl", TC);
    let s = write_tmp(&dir, "s.dl", ENDS_TOUCH_EDGES);
    let w = write_tmp(&dir, "w.dl", THREE_HOPS);
    let bin = env!("CARGO_BIN_EXE_relcont");
    for (q1, q2, want) in [
        (
            &tc,
            &s,
            "t vs s relative to 1 source(s): contained (classically)",
        ),
        (
            &w,
            &tc,
            "w vs t relative to 1 source(s): contained (classically)",
        ),
    ] {
        let out = Command::new(bin)
            .args(["check", "--views"])
            .arg(&views)
            .arg("--q1")
            .arg(q1)
            .arg("--q2")
            .arg(q2)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(want),
            "{out:?}"
        );
    }

    let stdout = repl(
        "view V(X, Y) :- edge(X, Y).
query t(X, Y) :- edge(X, Y).
query t(X, Z) :- t(X, Y), edge(Y, Z).
query s(X, Y) :- edge(X, A), edge(B, Y).
query w(X, W) :- edge(X, Y), edge(Y, Z), edge(Z, W).
check t s
check w t
quit
",
    );
    assert!(
        stdout.contains("t vs s: contained (classically)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("w vs t: contained (classically)"),
        "{stdout}"
    );
    assert!(!stdout.contains("error"), "{stdout}");
}

#[test]
fn cli_check_and_serve_read_the_same_views() {
    // `W` meets none of Q1's predicates, so it can never enter Q1's plan;
    // its comparison must not push `check` off the recursive route while
    // `serve` (which plans from Q1's footprint) answers.
    let dir = tmpdir("scope");
    let views = write_tmp(
        &dir,
        "views.dl",
        "V(X, Y) :- edge(X, Y).\nW(X) :- other(X), X < 3.\n",
    );
    let tc = write_tmp(&dir, "tc.dl", TC);
    let s = write_tmp(&dir, "s.dl", ENDS_TOUCH_EDGES);
    let queries = write_tmp(&dir, "queries.dl", &format!("{TC}{ENDS_TOUCH_EDGES}"));
    let jobs = write_tmp(&dir, "jobs.txt", "t s\n");
    let bin = env!("CARGO_BIN_EXE_relcont");
    let check = Command::new(bin)
        .args(["check", "--budget", "100000000", "--views"])
        .arg(&views)
        .arg("--q1")
        .arg(&tc)
        .arg("--q2")
        .arg(&s)
        .output()
        .unwrap();
    assert_eq!(check.status.code(), Some(0), "{check:?}");
    let check_out = String::from_utf8_lossy(&check.stdout);
    assert!(
        check_out.contains("t vs s relative to 2 source(s): contained"),
        "{check_out}"
    );
    let serve = Command::new(bin)
        .args(["serve", "--views"])
        .arg(&views)
        .arg("--queries")
        .arg(&queries)
        .arg("--jobs")
        .arg(&jobs)
        .output()
        .unwrap();
    assert_eq!(serve.status.code(), Some(0), "{serve:?}");
    assert!(
        String::from_utf8_lossy(&serve.stdout).contains("t vs s: contained"),
        "{serve:?}"
    );
}

#[test]
fn repl_plan_and_why_report_a_guard_stop_as_undecided() {
    // As `relcont plan --budget 1` exits 3 with `undecided`, the REPL
    // answers `undecided: …` rather than `error: …`.
    let stdout = repl(
        ":limit budget 1
view ve(X) :- e(X, Y).
query q(X, Z) :- e(X, Y), e(Y, Z).
query p(X, Z) :- e(X, Y), e(Y, Z).
plan q
why q p
quit
",
    );
    assert_eq!(
        stdout.matches("undecided: budget exhausted").count(),
        2,
        "{stdout}"
    );
    assert!(!stdout.contains("error"), "{stdout}");
}
