//! A larger end-to-end scenario: enterprise data integration across six
//! heterogeneous sources — exercising the whole public API surface in one
//! realistic setting (the paper's §1 motivation: "querying multiple
//! databases within an enterprise").
//!
//! Mediated schema:
//!   employee(Id, Dept)            — HR master
//!   salary(Id, Amount)            — payroll
//!   project(Proj, Dept)           — project registry
//!   assigned(Id, Proj)            — staffing
//!   review(Id, Score)             — performance reviews

use relcont::datalog::eval::EvalOptions;
use relcont::datalog::{parse_program, Database, Program, Symbol, Term};
use relcont::mediator::binding::reachable_certain_answers;
use relcont::mediator::certain::certain_answers;
use relcont::mediator::relative::{
    explain_containment, max_contained_ucq_plan, relatively_contained,
    relatively_contained_witness, ContainmentKind,
};
use relcont::mediator::schema::{check_input, InputError, LavSetting};

fn s(n: &str) -> Symbol {
    Symbol::new(n)
}

fn sources() -> LavSetting {
    LavSetting::parse(&[
        // The HR export: employees with departments.
        "HrDirectory(Id, Dept) :- employee(Id, Dept).",
        // Payroll only exports salaries of employees it knows the
        // department of (a join), and only high earners.
        "HighEarners(Id, Amount) :- employee(Id, Dept), salary(Id, Amount), Amount > 100000.",
        // The engineering staffing tool: who works on which engineering
        // project.
        "EngStaffing(Id, Proj) :- assigned(Id, Proj), project(Proj, eng).",
        // The project registry.
        "Projects(Proj, Dept) :- project(Proj, Dept).",
        // Top performance reviews only.
        "TopReviews(Id) :- review(Id, Score), Score >= 9.",
        // Full review export, score included.
        "AllReviews(Id, Score) :- review(Id, Score).",
    ])
    .unwrap()
}

#[test]
fn schema_validates_everything() {
    // The six views use the five mediated relations at one arity each,
    // and a payroll query over two of them passes the gate beside them.
    let v = sources();
    check_input(&[], &v.sources, None).expect("views are well formed");
    let q = parse_program("q(Id) :- employee(Id, Dept), salary(Id, A).").unwrap();
    check_input(&[(&q, &s("q"))], &v.sources, None).expect("query is well formed");
    // A query that reads `salary` at another arity, or a source as if it
    // were a mediated relation, does not.
    let wrong = parse_program("w(Id) :- salary(Id).").unwrap();
    assert_eq!(
        check_input(&[(&wrong, &s("w"))], &v.sources, None),
        Err(InputError::Arity {
            pred: s("salary"),
            first: 1,
            other: 2
        })
    );
    let source = parse_program("h(Id) :- HrDirectory(Id, D).").unwrap();
    assert!(matches!(
        check_input(&[(&source, &s("h"))], &v.sources, None),
        Err(InputError::SourceNameUsed { source, .. }) if source == s("HrDirectory")
    ));
}

#[test]
fn plan_shapes_reflect_source_coverage() {
    let v = sources();
    // Who earns over 100k? Only the HighEarners source helps; the plan
    // has one disjunct.
    let rich = parse_program("rich(Id) :- salary(Id, A), A > 100000.").unwrap();
    let plan = max_contained_ucq_plan(&rich, &s("rich"), &v).unwrap();
    assert_eq!(plan.disjuncts.len(), 1, "{plan}");
    assert!(plan.disjuncts[0]
        .subgoals
        .iter()
        .any(|a| a.pred == "HighEarners"));

    // Who works on an engineering project? Two routes: the staffing tool
    // directly, or assigned ⋈ Projects... but no source exports plain
    // `assigned`, so only EngStaffing survives.
    let eng = parse_program("eng(Id) :- assigned(Id, P), project(P, eng).").unwrap();
    let plan = max_contained_ucq_plan(&eng, &s("eng"), &v).unwrap();
    assert_eq!(plan.disjuncts.len(), 1, "{plan}");
    assert!(plan.disjuncts[0]
        .subgoals
        .iter()
        .any(|a| a.pred == "EngStaffing"));

    // Department listing: only via HrDirectory.
    let depts = parse_program("d(Id, Dept) :- employee(Id, Dept).").unwrap();
    let plan = max_contained_ucq_plan(&depts, &s("d"), &v).unwrap();
    assert_eq!(plan.disjuncts.len(), 1);
}

#[test]
fn relative_containments_over_the_enterprise() {
    let v = sources();
    // "Reviewed employees" vs "employees reviewed with score >= 9":
    // classically incomparable-ish, but TopReviews only returns >= 9...
    // AllReviews returns everything, so the unrestricted query is NOT
    // contained in the top one.
    let reviewed = parse_program("qa(Id) :- review(Id, S).").unwrap();
    let top = parse_program("qt(Id) :- review(Id, S), S >= 9.").unwrap();
    assert!(!relatively_contained(&reviewed, &s("qa"), &top, &s("qt"), &v).unwrap());
    // Drop the full export and it flips: everything retrievable is top.
    let narrowed = v.without("AllReviews");
    assert_eq!(
        explain_containment(&reviewed, &s("qa"), &top, &s("qt"), &narrowed).unwrap(),
        ContainmentKind::OnlyRelative
    );

    // High earner salaries are always > 50000 relative to the sources.
    let fifty = parse_program("q5(Id) :- salary(Id, A), A > 50000.").unwrap();
    let any_salary = parse_program("qs(Id) :- salary(Id, A).").unwrap();
    assert!(relatively_contained(&any_salary, &s("qs"), &fifty, &s("q5"), &v).unwrap());

    // The witness machinery explains a failure: reviewed ⋢ top because
    // of the AllReviews route.
    let w = relatively_contained_witness(&reviewed, &s("qa"), &top, &s("qt"), &v)
        .unwrap()
        .expect_err("not contained");
    assert!(
        w.plan.subgoals.iter().any(|a| a.pred == "AllReviews"),
        "{w}"
    );
}

#[test]
fn certain_answers_across_sources() {
    let v = sources();
    let db = Database::parse(
        "HrDirectory(e1, eng). HrDirectory(e2, sales).
         HighEarners(e1, 150000).
         EngStaffing(e1, apollo).
         Projects(apollo, eng). Projects(crm, sales).
         TopReviews(e2). AllReviews(e1, 7). AllReviews(e2, 10).",
    )
    .unwrap();
    let opts = EvalOptions::default();

    // Rich engineers: join across HR, payroll, and staffing.
    let q =
        parse_program("q(Id) :- employee(Id, eng), salary(Id, A), A > 100000, assigned(Id, P).")
            .unwrap();
    let ans = certain_answers(&q, &s("q"), &v, &db, &opts).unwrap();
    assert_eq!(ans.len(), 1);
    assert!(ans.contains(&vec![Term::sym("e1")]));

    // Reviewed with known score: AllReviews gives both; TopReviews alone
    // would give none (score projected away).
    let q2 = parse_program("q2(Id, S) :- review(Id, S).").unwrap();
    let ans = certain_answers(&q2, &s("q2"), &v, &db, &opts).unwrap();
    assert_eq!(ans.len(), 2);

    // "Has a top review" is answerable from TopReviews even without the
    // score: e2 via both routes.
    let q3 = parse_program("q3(Id) :- review(Id, S), S >= 9.").unwrap();
    let ans = certain_answers(&q3, &s("q3"), &v, &db, &opts).unwrap();
    assert!(ans.contains(&vec![Term::sym("e2")]));
}

#[test]
fn access_restricted_payroll() {
    // Payroll requires an employee id as input; HR is free-access.
    let mut v = sources();
    let idx = v
        .sources
        .iter()
        .position(|x| x.name == "HighEarners")
        .unwrap();
    v.sources[idx] = v.sources[idx].clone().with_adornment("bf").unwrap();

    let db = Database::parse(
        "HrDirectory(e1, eng). HrDirectory(e3, eng).
         HighEarners(e1, 150000). HighEarners(e9, 200000).",
    )
    .unwrap();
    // Salaries of engineers: ids flow from HrDirectory into the payroll
    // lookup; e9 is unreachable (not in HR).
    let q = parse_program("q(A) :- employee(Id, eng), salary(Id, A).").unwrap();
    let got = reachable_certain_answers(&q, &s("q"), &v, &db, &EvalOptions::default()).unwrap();
    assert_eq!(got.len(), 1);
    assert!(got.contains(&vec![Term::int(150000)]));
}

#[test]
fn multi_rule_union_queries() {
    let v = sources();
    // "People of interest": high earners or top-reviewed.
    let poi: Program = parse_program(
        "poi(Id) :- salary(Id, A), A > 100000.
         poi(Id) :- review(Id, S), S >= 9.",
    )
    .unwrap();
    let plan = max_contained_ucq_plan(&poi, &s("poi"), &v).unwrap();
    // HighEarners + TopReviews + AllReviews-with-constraint.
    assert!(plan.disjuncts.len() >= 2, "{plan}");
    let anyone = parse_program("everyone(Id) :- employee(Id, D).").unwrap();
    // poi ⋢ everyone: review-based POIs need no employee row.
    assert!(!relatively_contained(&poi, &s("poi"), &anyone, &s("everyone"), &v).unwrap());
    // But the salary branch alone is contained in it (HighEarners joins
    // employee).
    let rich = parse_program("rich(Id) :- salary(Id, A), A > 100000.").unwrap();
    assert!(relatively_contained(&rich, &s("rich"), &anyone, &s("everyone"), &v).unwrap());
}
