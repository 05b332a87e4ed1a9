//! The input gate on every surface: each malformed input is refused by the
//! library call, `relcont`, `relcont-repl` and `ServeCore::handle` alike,
//! with the same error class naming the same predicate or rule, and
//! well-formed inputs pass it.

use std::io::Write;
use std::process::{Command, Stdio};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relcont::datalog::eval::EvalOptions;
use relcont::datalog::{parse_program, Atom, Database, Program, Symbol, Term};
use relcont::mediator::certain::{certain_answers, CertainError};
use relcont::mediator::relative::{
    decide, explain, max_contained_ucq_plan, Question, RelativeError, Sources,
};
use relcont::mediator::schema::{
    check_input, Adornment, InputError, LavSetting, SourceDescription,
};
use relcont::mediator::workloads::Shape;
use relcont::mediator::workloads::{query_program, random_instance, random_query, random_views};
use relcont::serve::{Request, ServeConfig, ServeCore, ServiceError};

/// What a row asks.
enum Ask {
    /// `check` of `q1` (answer `ans1`, default its head) against `q2`.
    Check {
        q1: &'static str,
        ans1: Option<&'static str>,
        q2: &'static str,
        bp: bool,
    },
    /// `plan` of a query.
    Plan(&'static str),
    /// `certain` of a query over an instance.
    Certain(&'static str, &'static str),
}

/// One malformed input and what every surface must say about it.
struct Row {
    name: &'static str,
    views: &'static [&'static str],
    /// An `adorn SOURCE PATTERN` directive, applied after the views.
    adorn: Option<(&'static str, &'static str)>,
    ask: Ask,
    /// The error class, as the library reports it.
    class: fn(&InputError) -> bool,
    /// Text of that class every surface prints.
    phrase: &'static str,
    /// The predicate, source or rule every surface names.
    names: &'static str,
    /// The REPL keeps one source per name and one query per head
    /// predicate, so some inputs cannot be written there.
    repl: bool,
}

const V: &[&str] = &["V(X, Y) :- e(X, Y)."];

fn rows() -> Vec<Row> {
    let check = |q1, q2| Ask::Check {
        q1,
        ans1: None,
        q2,
        bp: false,
    };
    let arity: fn(&InputError) -> bool = |e| matches!(e, InputError::Arity { .. });
    let adornment: fn(&InputError) -> bool = |e| matches!(e, InputError::Adornment { .. });
    let answers: fn(&InputError) -> bool = |e| matches!(e, InputError::AnswerArity { .. });
    let rule: fn(&InputError) -> bool = |e| matches!(e, InputError::Rule(_));
    let duplicate: fn(&InputError) -> bool = |e| matches!(e, InputError::DuplicateSource(_));
    let no_rules: fn(&InputError) -> bool = |e| matches!(e, InputError::NoRules(_));
    let instance: fn(&InputError) -> bool = |e| matches!(e, InputError::InstanceArity { .. });
    let two_edges: &[&str] = &["V(X, Y) :- edge(X, Y).", "W(X) :- edge(X)."];
    let two_vs: &[&str] = &["V(X, Y) :- e(X, Y).", "V(X, Y) :- f(X, Y)."];
    let tc = "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).";
    let row = |name, views, ask, class, phrase, names| Row {
        name,
        views,
        adorn: None,
        ask,
        class,
        phrase,
        names,
        repl: true,
    };
    vec![
        row(
            "1 check",
            two_edges,
            check("q(X) :- edge(X).", "r(X) :- edge(X, Y)."),
            arity,
            "is used with arity",
            "predicate edge",
        ),
        row(
            "1 plan",
            two_edges,
            Ask::Plan("q(X) :- edge(X)."),
            arity,
            "is used with arity",
            "predicate edge",
        ),
        Row {
            adorn: Some(("V", "fff")),
            ..row(
                "2 fff",
                V,
                check("q(X) :- e(X, Y).", "r(X) :- e(X, Y)."),
                adornment,
                "adornment \"fff\"",
                "source V",
            )
        },
        Row {
            adorn: Some(("V", "xz")),
            ..row(
                "2 xz",
                V,
                check("q(X) :- e(X, Y).", "r(X) :- e(X, Y)."),
                adornment,
                "adornment \"xz\"",
                "source V",
            )
        },
        row(
            "3",
            V,
            check("u(X, Y) :- e(X, Y).", "r(X) :- e(X, Y)."),
            answers,
            "differ in arity",
            "u and r",
        ),
        row(
            "3 --bp",
            V,
            Ask::Check {
                q1: "u(X, Y) :- e(X, Y).",
                ans1: None,
                q2: "r(X) :- e(X, Y).",
                bp: true,
            },
            answers,
            "differ in arity",
            "u and r",
        ),
        row(
            "4",
            V,
            check("q(X, Y) :- e(X, Z).", "p(X, Y) :- e(X, Y)."),
            rule,
            "unsafe rule",
            "q(X, Y) :- e(X, Z).",
        ),
        Row {
            repl: false,
            ..row(
                "5 check",
                two_vs,
                check("q(X) :- e(X, Z).", "r(X) :- f(X, Z)."),
                duplicate,
                "is defined twice",
                "source V",
            )
        },
        Row {
            repl: false,
            ..row(
                "5 certain",
                two_vs,
                Ask::Certain("q(X) :- e(X, Z).", "V(1, 2)."),
                duplicate,
                "is defined twice",
                "source V",
            )
        },
        row(
            "6 check",
            V,
            check("q(X) :- e(X, Z), W < 3.", "r(X) :- f(X, Z)."),
            rule,
            "does not appear in an ordinary subgoal",
            "q(X) :- e(X, Z), W < 3.",
        ),
        row(
            "6 certain",
            V,
            Ask::Certain("q(X) :- e(X, Z), W < 3.", "V(1, 2)."),
            rule,
            "does not appear in an ordinary subgoal",
            "q(X) :- e(X, Z), W < 3.",
        ),
        row(
            "7",
            V,
            Ask::Certain("q(X) :- e(X, Z).", "V(1)."),
            instance,
            "instance relation V has arity 1",
            "source V",
        ),
        Row {
            repl: false,
            ..row(
                "8",
                V,
                Ask::Check {
                    q1: tc,
                    ans1: Some("zzz"),
                    q2: "u(X, Y) :- e(X, Y).",
                    bp: false,
                },
                no_rules,
                "no rules for query",
                "zzz",
            )
        },
        Row {
            repl: false,
            ..row(
                "8 --bp",
                V,
                Ask::Check {
                    q1: tc,
                    ans1: Some("zzz"),
                    q2: "u(X, Y) :- e(X, Y).",
                    bp: true,
                },
                no_rules,
                "no rules for query",
                "zzz",
            )
        },
    ]
}

fn prog(s: &str) -> Program {
    parse_program(s).unwrap()
}

fn head(p: &Program) -> Symbol {
    p.rules()[0].head.pred
}

/// The library call a surface makes for `row`: the error it returns.
fn library(row: &Row) -> InputError {
    let views = LavSetting::parse(row.views).unwrap();
    if let Some((_, pattern)) = row.adorn {
        return views.sources[0]
            .clone()
            .with_adornment(pattern)
            .unwrap_err();
    }
    let relative = |r: Result<(), RelativeError>| match r {
        Err(RelativeError::Input(e)) => e,
        other => panic!("{}: {other:?}", row.name),
    };
    match &row.ask {
        Ask::Check { q1, ans1, q2, bp } => {
            let (q1, q2) = (prog(q1), prog(q2));
            let a1 = ans1.map_or_else(|| head(&q1), Symbol::new);
            let question = Question {
                binding_patterns: *bp,
                ..Question::new(&q1, &a1, &q2, &head(&q2))
            };
            let sources = Sources::Views(&views);
            relative(if *bp {
                decide(&question, sources).map(drop)
            } else {
                explain(&question, sources).map(drop)
            })
        }
        Ask::Plan(q) => {
            let q = prog(q);
            relative(max_contained_ucq_plan(&q, &head(&q), &views).map(drop))
        }
        Ask::Certain(q, facts) => {
            let q = prog(q);
            let db = Database::parse(facts).unwrap();
            match certain_answers(&q, &head(&q), &views, &db, &EvalOptions::default()) {
                Err(CertainError::Input(e)) => e,
                other => panic!("{}: {other:?}", row.name),
            }
        }
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("relcont-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `relcont`'s stderr for `row`, after checking the exit code and that
/// nothing else was printed.
fn cli(row: &Row, dir: &std::path::Path) -> String {
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    };
    let mut views = row.views.join("\n");
    if let Some((source, pattern)) = row.adorn {
        views.push_str(&format!("\n%% adorn {source} {pattern}\n"));
    }
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_relcont"));
    match &row.ask {
        Ask::Check { q1, ans1, q2, bp } => {
            cmd.arg("check").arg("--q1").arg(write("q1.dl", q1));
            cmd.arg("--q2").arg(write("q2.dl", q2));
            if let Some(a) = ans1 {
                cmd.args(["--ans1", a]);
            }
            if *bp {
                cmd.arg("--bp");
            }
        }
        Ask::Plan(q) => {
            cmd.arg("plan").arg("--query").arg(write("q.dl", q));
        }
        Ask::Certain(q, facts) => {
            cmd.arg("certain").arg("--query").arg(write("q.dl", q));
            cmd.arg("--instance").arg(write("facts.dl", facts));
        }
    }
    let out = cmd
        .arg("--views")
        .arg(write("v.dl", &views))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{}: {out:?}", row.name);
    assert!(out.stdout.is_empty(), "{}: {out:?}", row.name);
    assert!(!stderr.contains("panicked"), "{}: {stderr}", row.name);
    assert!(!stderr.contains("usage:"), "{}: {stderr}", row.name);
    stderr
}

/// The REPL's `error: …` line for `row`, after checking that the session
/// carried on.
fn repl(row: &Row) -> String {
    let mut script = String::new();
    for v in row.views {
        script.push_str(&format!("view {v}\n"));
    }
    if let Some((source, pattern)) = row.adorn {
        script.push_str(&format!("adorn {source} {pattern}\n"));
    }
    let queries = |script: &mut String, text: &str| {
        for rule in prog(text).rules() {
            script.push_str(&format!("query {rule}\n"));
        }
    };
    match &row.ask {
        Ask::Check { q1, q2, bp, .. } => {
            queries(&mut script, q1);
            queries(&mut script, q2);
            let cmd = if *bp { "checkbp" } else { "check" };
            script.push_str(&format!("{cmd} {} {}\n", head(&prog(q1)), head(&prog(q2))));
        }
        Ask::Plan(q) => {
            queries(&mut script, q);
            script.push_str(&format!("plan {}\n", head(&prog(q))));
        }
        Ask::Certain(q, facts) => {
            queries(&mut script, q);
            for fact in Database::parse(facts).unwrap().facts() {
                script.push_str(&format!("fact {fact}.\n"));
            }
            script.push_str(&format!("certain {}\n", head(&prog(q))));
        }
    }
    script.push_str("show\nquit\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_relcont-repl"))
        .env("NO_PROMPT", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "{}: {out:?}", row.name);
    assert!(stdout.contains("\nviews:"), "{}: {stdout}", row.name);
    stdout
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("{}: no error line in {stdout}", row.name))
        .to_string()
}

/// `ServeCore::handle`'s rejection for a `check` row.
fn serve(row: &Row) -> Option<String> {
    let Ask::Check {
        q1,
        ans1,
        q2,
        bp: false,
    } = &row.ask
    else {
        return None;
    };
    let mut views = LavSetting::parse(row.views).unwrap();
    if let Some((_, pattern)) = row.adorn {
        // The core takes its views as they are; an adornment that
        // `Adornment` cannot hold has no such form.
        views.sources[0].adornments.push(Adornment::parse(pattern)?);
    }
    let (q1, q2) = (prog(q1), prog(q2));
    let a1 = ans1.map_or_else(|| head(&q1), Symbol::new);
    let a2 = head(&q2);
    let core = ServeCore::new(views, ServeConfig::default());
    match core.handle(&Request::new(q1, a1, q2, a2), 0) {
        Err(ServiceError::Rejected { why, .. }) => Some(why),
        other => panic!("{}: {other:?}", row.name),
    }
}

#[test]
fn every_surface_rejects_each_malformed_input_alike() {
    let dir = tmpdir("rows");
    for row in rows() {
        let err = library(&row);
        assert!((row.class)(&err), "{}: {err:?}", row.name);
        let mut said = vec![("library", err.to_string()), ("relcont", cli(&row, &dir))];
        if row.repl {
            said.push(("relcont-repl", repl(&row)));
        }
        if let Some(why) = serve(&row) {
            said.push(("ServeCore::handle", why));
        }
        for (surface, text) in said {
            assert!(
                text.contains(row.phrase) && text.contains(row.names),
                "{} on {surface}: {text:?} should say {:?} and name {:?}",
                row.name,
                row.phrase,
                row.names
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The REPL keeps one source per name: a second `view V` replaces the
/// first instead of making the two-`V` input of row 5.
#[test]
fn the_repl_replaces_a_view_of_the_same_name() {
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
        .write_all(b"view V(X, Y) :- e(X, Y).\nview V(X, Y) :- f(X, Y).\nshow\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("error"), "{stdout}");
    assert!(stdout.contains("V(X, Y) :- f(X, Y)."), "{stdout}");
    assert!(!stdout.contains("V(X, Y) :- e(X, Y)."), "{stdout}");
}

/// A random well-formed question: chain queries over `p0`, `p1` and
/// three random views, as the chaos suites draw them.
fn question(seed: u64) -> (Program, Program, LavSetting, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let q1 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, &mut rng);
    let q2 = random_query(Shape::Chain, 1 + rng.gen_range(0..2), 2, &mut rng);
    let views = random_views(3, 2, &mut rng);
    (query_program(&q1), query_program(&q2), views, rng)
}

/// Appends `literal` to the body of `p`'s only rule.
fn with_literal(p: &Program, literal: &str) -> Program {
    let rule = p.rules()[0].to_string();
    prog(&format!("{}, {literal}.", rule.strip_suffix('.').unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_gate_rejects_one_mutation_per_rule(seed in any::<u64>()) {
        let (q1, q2, views, mut rng) = question(seed);
        let q = Symbol::new("q");
        let instance = random_instance(&views, 2, 3, &mut rng);
        let opts = EvalOptions::default();
        // Unmutated, the question passes the gate on every surface.
        prop_assert_eq!(check_input(&[(&q1, &q), (&q2, &q)], &views.sources, Some(&instance)), Ok(()));
        prop_assert!(decide(&Question::new(&q1, &q, &q2, &q), Sources::Views(&views)).is_ok());
        prop_assert!(certain_answers(&q1, &q, &views, &instance, &opts).is_ok());
        let core = ServeCore::new(views.clone(), ServeConfig::default());
        prop_assert!(core.handle(&Request::new(q1.clone(), q, q2.clone(), q), 0).is_ok());

        // One mutation per rule, each of Q1 (its answer predicate), the
        // views or the instance.
        let first = q1.rules()[0].body_atoms().next().unwrap().pred;
        let source = views.sources[rng.gen_range(0..views.sources.len())].view.head.clone();
        let mut adorned = views.clone();
        let extra = SourceDescription::parse(&format!("A(X) :- {first}(X, Y).")).unwrap();
        adorned.sources.push(SourceDescription {
            adornments: vec![Adornment::parse("bf").unwrap()],
            ..extra
        });
        let source_call = Atom::new(source.pred.as_str(), vec![Term::var("X0"); source.arity()]);
        let mutants: Vec<(&str, Program, Symbol, LavSetting)> = vec![
            ("1", with_literal(&q1, "W < 3"), q, views.clone()),
            ("2", with_literal(&q1, &format!("{first}(X0)")), q, views.clone()),
            ("3", with_literal(&q1, &source_call.to_string()), q, views.clone()),
            ("4", q1.clone(), Symbol::new("zzz"), views.clone()),
            ("5", q1.clone(), q, adorned),
        ];
        for (rule, m1, a1, v) in mutants {
            let decided = decide(&Question::new(&m1, &a1, &q2, &q), Sources::Views(&v));
            prop_assert!(matches!(decided, Err(RelativeError::Input(_))), "rule {}: {:?}", rule, decided);
            let certain = certain_answers(&m1, &a1, &v, &instance, &opts);
            prop_assert!(matches!(certain, Err(CertainError::Input(_))), "rule {}: {:?}", rule, certain);
            let core = ServeCore::new(v, ServeConfig::default());
            let served = core.handle(&Request::new(m1, a1, q2.clone(), q), 0);
            prop_assert!(matches!(served, Err(ServiceError::Rejected { .. })), "rule {}: {:?}", rule, served);
        }
        // Rule 6 reads an instance, which only certain answers take.
        let source = &views.sources[rng.gen_range(0..views.sources.len())];
        let mut wrong = Database::new();
        wrong.insert(source.name.as_str(), vec![Term::int(1); source.view.head.arity() + 1]);
        let certain = certain_answers(&q1, &q, &views, &wrong, &opts);
        prop_assert!(matches!(certain, Err(CertainError::Input(InputError::InstanceArity { .. }))), "rule 6: {:?}", certain);
    }
}
