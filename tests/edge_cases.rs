//! Edge cases and failure-path coverage across the workspace: parser
//! errors, validation errors, evaluation limits, decision-procedure
//! budgets, and degenerate inputs.

use relcont::containment::datalog_ucq::{
    datalog_contained_in_ucq, DatalogUcqError, FixpointBudget,
};
use relcont::containment::{cq_contained, ucq_contained};
use relcont::datalog::eval::{answers, evaluate, EvalError, EvalOptions};
use relcont::datalog::{
    parse_program, parse_query, parse_rule, validate_rule, Database, Program, Symbol, Term, Ucq,
    ValidationError,
};
use relcont::mediator::relative::{relatively_contained, RelativeError};
use relcont::mediator::schema::{check_input, InputError, LavSetting};

#[test]
fn parser_error_paths() {
    // Missing dot.
    assert!(parse_rule("q(X) :- r(X)").is_err());
    // Bad operator.
    assert!(parse_rule("q(X) :- r(X), X ~ 3.").is_err());
    // Unterminated quote.
    assert!(parse_rule("q(X) :- r(X, 'oops.").is_err());
    // Dangling comma.
    assert!(parse_rule("q(X) :- r(X),.").is_err());
    // Empty program parses to zero rules.
    assert_eq!(
        parse_program("  % just a comment\n").unwrap().rules().len(),
        0
    );
    // Trailing garbage after a complete rule.
    assert!(parse_rule("q(X) :- r(X). extra").is_err());
    // Error positions are 1-based and plausible.
    let e = parse_rule("q(X) :-\n  r(X) !").unwrap_err();
    assert_eq!(e.line, 2);
}

#[test]
fn parser_tolerates_formatting() {
    let variants = [
        "q(X):-r(X,Y),Y<1970.",
        "q( X ) :- r( X , Y ) , Y < 1970 .",
        "q(X) :-\n\tr(X, Y),\n\tY < 1970.",
        "% leading comment\nq(X) :- r(X, Y), Y < 1970. % trailing",
    ];
    let expected = parse_rule("q(X) :- r(X, Y), Y < 1970.").unwrap();
    for v in variants {
        assert_eq!(parse_rule(v).unwrap(), expected, "{v}");
    }
}

#[test]
fn validation_error_variants() {
    let unsafe_rule = parse_rule("q(X, Z) :- r(X).").unwrap();
    assert!(matches!(
        validate_rule(&unsafe_rule),
        Err(ValidationError::UnsafeHeadVar { .. })
    ));
    let unrestricted = parse_rule("q(X) :- r(X), W < 3.").unwrap();
    assert!(matches!(
        validate_rule(&unrestricted),
        Err(ValidationError::UnrestrictedComparisonVar { .. })
    ));
    let illtyped = parse_rule("q(X) :- r(X), X < red.").unwrap();
    assert!(matches!(
        validate_rule(&illtyped),
        Err(ValidationError::IllTypedComparison { .. })
    ));
    // Arity consistency is the input gate's rule, across every rule it
    // reads.
    let mixed = parse_program("q(X) :- r(X). p(X) :- r(X, X).").unwrap();
    assert!(matches!(
        check_input(&[(&mixed, &Symbol::new("q"))], [], None),
        Err(InputError::Arity { pred, first: 1, other: 2 }) if pred == Symbol::new("r")
    ));
    // Errors render human-readably.
    let msg = validate_rule(&unsafe_rule).unwrap_err().to_string();
    assert!(msg.contains("unsafe"), "{msg}");
}

#[test]
fn evaluation_limits_and_errors() {
    // Iteration limit.
    let p = parse_program("n(0). n(f(X)) :- n(X).").unwrap();
    let tight = EvalOptions {
        max_term_depth: 3,
        ..EvalOptions::default()
    };
    assert!(matches!(
        evaluate(&p, &Database::new(), &tight),
        Err(EvalError::TermDepthLimit(3))
    ));

    // Unbound comparison (unsafe rule slips past the caller).
    let p2 = parse_program("q(X) :- r(X), Z < 3.").unwrap();
    let db = Database::parse("r(1).").unwrap();
    assert!(matches!(
        evaluate(&p2, &db, &EvalOptions::default()),
        Err(EvalError::UnboundComparison(_))
    ));

    // Non-ground head.
    let p3 = parse_program("q(X, W) :- r(X).").unwrap();
    assert!(matches!(
        evaluate(&p3, &db, &EvalOptions::default()),
        Err(EvalError::NonGroundHead(_))
    ));

    // Errors render.
    let e = evaluate(&p2, &db, &EvalOptions::default()).unwrap_err();
    assert!(e.to_string().contains("comparison"), "{e}");
}

#[test]
fn empty_database_and_empty_program() {
    let p = parse_program("q(X) :- r(X).").unwrap();
    let rel = answers(
        &p,
        &Database::new(),
        &Symbol::new("q"),
        &EvalOptions::default(),
    )
    .unwrap();
    assert!(rel.is_empty());
    let empty = Program::default();
    let out = evaluate(
        &empty,
        &Database::parse("r(1).").unwrap(),
        &EvalOptions::default(),
    )
    .unwrap();
    assert_eq!(out.total_len(), 0);
}

#[test]
fn datalog_ucq_budget_and_input_errors() {
    // Budget: a tiny budget fails loudly instead of hanging.
    let p = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
    let q = Ucq::single(parse_query("t(A, B) :- e(A, B).").unwrap());
    let tiny = FixpointBudget {
        max_type_entries: 1,
        ..FixpointBudget::default()
    };
    let err = datalog_contained_in_ucq(&p, &Symbol::new("t"), &q, &tiny).unwrap_err();
    match err {
        DatalogUcqError::Resource(e) => {
            let (stage, consumed, limit) = (e.stage, e.consumed, e.limit);
            assert_eq!(stage, "fixpoint/type_entries");
            assert_eq!(e.kind, relcont::guard::ResourceKind::Budget);
            assert_eq!(limit, 1);
            assert!(
                consumed > limit,
                "consumed {consumed} should exceed limit {limit}"
            );
            let msg = e.to_string();
            assert!(
                msg.contains("fixpoint/type_entries") && msg.contains("of 1 units"),
                "{msg}"
            );
        }
        other => panic!("expected budget error, got {other:?}"),
    }

    // Arity mismatch.
    let q1 = Ucq::single(parse_query("t(A) :- e(A, B).").unwrap());
    assert!(matches!(
        datalog_contained_in_ucq(&p, &Symbol::new("t"), &q1, &FixpointBudget::default()),
        Err(DatalogUcqError::ArityMismatch)
    ));

    // Undefined answer predicate: vacuously contained.
    assert!(
        datalog_contained_in_ucq(&p, &Symbol::new("zz"), &q, &FixpointBudget::default()).unwrap()
    );
}

#[test]
fn relative_unsupported_cases_are_reported() {
    let views = LavSetting::parse(&["V(X, Y) :- p(X, Y)."]).unwrap();
    // Arbitrary (variable-variable) comparisons in the contained query.
    let q1 = parse_program("q1(X) :- p(X, Y), p(Y, Z), Y < Z.").unwrap();
    let q2 = parse_program("q2(X) :- p(X, Y).").unwrap();
    let err =
        relatively_contained(&q1, &Symbol::new("q1"), &q2, &Symbol::new("q2"), &views).unwrap_err();
    assert!(matches!(err, RelativeError::Unsupported(_)));
    assert!(err.to_string().contains("open problem"), "{err}");

    // Recursive query against views with comparisons (a binary Q2, so the
    // two answer predicates share an arity).
    let views_cmp = LavSetting::parse(&["W(X, Y) :- p(X, Y), X < 3."]).unwrap();
    let rec = parse_program("t(X, Y) :- p(X, Y). t(X, Z) :- t(X, Y), p(Y, Z).").unwrap();
    let pairs = parse_program("r(X, Y) :- p(X, Y).").unwrap();
    let err = relatively_contained(
        &rec,
        &Symbol::new("t"),
        &pairs,
        &Symbol::new("r"),
        &views_cmp,
    )
    .unwrap_err();
    assert!(matches!(err, RelativeError::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("recursive"), "{err}");
}

#[test]
fn zero_ary_queries_and_boolean_containment() {
    let views = LavSetting::parse(&["V() :- p(X, X)."]).unwrap();
    let q1 = parse_program("q1() :- p(X, X).").unwrap();
    let q2 = parse_program("q2() :- p(X, Y).").unwrap();
    // q1 ⊆ q2 classically.
    assert!(
        relatively_contained(&q1, &Symbol::new("q1"), &q2, &Symbol::new("q2"), &views).unwrap()
    );
    // q2's only plan is through V, whose expansion is diagonal: also
    // contained relative to the sources.
    assert!(
        relatively_contained(&q2, &Symbol::new("q2"), &q1, &Symbol::new("q1"), &views).unwrap()
    );
}

#[test]
fn self_join_views_and_repeated_columns() {
    let views = LavSetting::parse(&["Diag(X) :- p(X, X)."]).unwrap();
    let q_diag = parse_program("qd(X) :- p(X, X).").unwrap();
    let q_pair = parse_program("qp(X) :- p(X, Y).").unwrap();
    assert!(relatively_contained(
        &q_pair,
        &Symbol::new("qp"),
        &q_diag,
        &Symbol::new("qd"),
        &views
    )
    .unwrap());
}

#[test]
fn ucq_containment_with_empty_sides() {
    let a = Ucq::empty("q", 1);
    let b = Ucq::single(parse_query("q(X) :- r(X).").unwrap());
    assert!(ucq_contained(&a, &a));
    assert!(ucq_contained(&a, &b));
    assert!(!ucq_contained(&b, &a));
}

#[test]
fn containment_with_quoted_and_negative_constants() {
    let q1 = parse_query("q(X) :- r(X, 'de luxe', -3).").unwrap();
    let q2 = parse_query("q(X) :- r(X, Y, Z).").unwrap();
    assert!(cq_contained(&q1, &q2));
    assert!(!cq_contained(&q2, &q1));
    let q3 = parse_query("q(X) :- r(X, 'de luxe', Z), Z < 0.").unwrap();
    assert!(cq_contained(&q1, &q3));
}

#[test]
fn function_terms_round_trip_through_database() {
    // Skolem values can be stored, printed, re-parsed, and joined on.
    let p = parse_program("s(f(X, g(Y))) :- e(X, Y).").unwrap();
    let db = Database::parse("e(1, 2).").unwrap();
    let idb = evaluate(&p, &db, &EvalOptions::default()).unwrap();
    let printed = idb.to_string();
    let db2 = Database::parse(&printed).unwrap();
    assert_eq!(db2.facts(), idb.facts());
    assert_eq!(
        db2.facts()[0].args[0],
        Term::app("f", vec![Term::int(1), Term::app("g", vec![Term::int(2)])])
    );
}

#[test]
fn serde_round_trips() {
    // Programs, queries, and LAV settings serialize to JSON and back.
    let prog = parse_program(
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    )
    .unwrap();
    let json = serde_json::to_string(&prog).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(prog, back);

    let mut views = LavSetting::parse(&[
        "RedCars(C, M, Y) :- CarDesc(C, M, red, Y).",
        "PriceOf(I, P) :- price(I, P).",
    ])
    .unwrap();
    views.sources[1] = views.sources[1]
        .clone()
        .with_adornment("bf")
        .unwrap()
        .complete();
    let json = serde_json::to_string_pretty(&views).unwrap();
    let back: LavSetting = serde_json::from_str(&json).unwrap();
    assert_eq!(views, back);

    // Function terms and rationals survive too.
    let skolem = parse_program("p(f(X, 2.5)) :- v(X).").unwrap();
    let json = serde_json::to_string(&skolem).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(skolem, back);
}

#[test]
fn csv_loading_edge_cases() {
    let mut db = Database::new();
    // Mixed numeric and symbolic values, comments, blank lines.
    let n = db.load_csv("m", "a, 1\n\n# comment\nb, -2\n").unwrap();
    assert_eq!(n, 2);
    assert!(db.contains_atom(&relcont::datalog::Atom::new(
        "m",
        vec![Term::sym("a"), Term::int(1)]
    )));
    // Ragged rows are rejected with a line number.
    let err = db.load_csv("m", "x, 1\ny\n").unwrap_err();
    assert_eq!(err.line, 2);
}

#[test]
fn provenance_through_plans() {
    use relcont::mediator::certain::certain_answer_support;
    use relcont::mediator::schema::LavSetting;
    let views = LavSetting::parse(&[
        "RedCars(C, M, Y) :- CarDesc(C, M, red, Y).",
        "CarAndDriver(M, R) :- Review(M, R, 10).",
    ])
    .unwrap();
    let q = parse_program("q(C, R) :- CarDesc(C, M, Col, Y), Review(M, R, S).").unwrap();
    let db = Database::parse(
        "RedCars(c1, corolla, 1988). RedCars(c9, beetle, 1970). CarAndDriver(corolla, nice).",
    )
    .unwrap();
    let support = certain_answer_support(
        &q,
        &Symbol::new("q"),
        &views,
        &db,
        &vec![Term::sym("c1"), Term::sym("nice")],
        &EvalOptions::default(),
    )
    .unwrap()
    .expect("certain");
    // Exactly the two contributing source facts; the beetle row is not
    // involved.
    assert_eq!(support.len(), 2, "{support:?}");
    assert!(support
        .iter()
        .any(|(p, t)| p == &Symbol::new("RedCars") && t[0] == Term::sym("c1")));
    assert!(support.iter().all(|(_, t)| t[0] != Term::sym("c9")));
    // A non-answer yields None.
    assert!(certain_answer_support(
        &q,
        &Symbol::new("q"),
        &views,
        &db,
        &vec![Term::sym("c9"), Term::sym("nice")],
        &EvalOptions::default(),
    )
    .unwrap()
    .is_none());
}
