//! Binding-pattern limitations (§4 of the paper).
//!
//! Sources with access-pattern restrictions (an `Amazon`-style source
//! returns a price only given an ISBN) are modelled by adornments.
//! Definition 4.1 defines *executable* plans; Definition 4.2 restricts to
//! *sound* plans (no invented constants); Definition 4.3 defines
//! *reachable certain answers*.
//!
//! The maximally-contained executable plan (Duschka–Levy, \[15\]) is a
//! recursive datalog program even for conjunctive queries: a `dom`
//! predicate accumulates every obtainable constant, inverse rules are
//! guarded by `dom` atoms on bound positions, and free source outputs feed
//! `dom` back — recursion through `dom` is what Theorem 4.2 nonetheless
//! proves decidable.

use std::collections::BTreeSet;

use qc_datalog::eval::{answers, EvalOptions};
use qc_datalog::{Atom, Const, Literal, Program, Relation, Rule, Symbol, Term};

use crate::certain::CertainError;
use crate::fn_elim::eliminate_function_terms;
use crate::inverse_rules::inverse_rules;
use crate::schema::{check_input, LavSetting};

/// The reserved domain-predicate name.
pub const DOM: &str = "dom";

/// Whether a rule is executable (Definition 4.1): in each body atom whose
/// predicate carries an adornment, every bound position holds a constant
/// or a variable that occurs earlier (to the left) in the body.
pub fn is_executable_rule(rule: &Rule, views: &LavSetting) -> bool {
    let mut seen: BTreeSet<qc_datalog::Var> = BTreeSet::new();
    for lit in &rule.body {
        match lit {
            Literal::Atom(a) => {
                if let Some(source) = views.source(a.pred) {
                    // With several access paths, *some* adornment must be
                    // satisfied at this position in the body.
                    let satisfied = source.effective_adornments().iter().any(|adornment| {
                        adornment.bound_positions().all(|i| match &a.args[i] {
                            Term::Const(_) => true,
                            Term::Var(v) => seen.contains(v),
                            Term::App(..) => false,
                        })
                    });
                    if !satisfied {
                        return false;
                    }
                }
                a.collect_vars(&mut seen);
            }
            Literal::Comp(_) => {}
        }
    }
    true
}

/// Whether every rule of a program is executable.
pub fn is_executable_program(program: &Program, views: &LavSetting) -> bool {
    program.rules().iter().all(|r| is_executable_rule(r, views))
}

/// Builds the maximally-contained **executable** plan for `query` over
/// adorned sources (\[15\], §4.2 of the paper):
///
/// * `dom(c).` facts for every constant of the query and the views
///   (sound plans may only use those constants, Definition 4.2);
/// * for each source and each free output position, a `dom` rule
///   harvesting new constants (guarded by `dom` on the bound inputs);
/// * inverse rules guarded by `dom` atoms on bound positions;
/// * the query's own rules unchanged.
///
/// The result is recursive in general — recursion flows through `dom`.
///
/// ```
/// use qc_datalog::parse_program;
/// use qc_mediator::binding::executable_plan;
/// use qc_mediator::schema::LavSetting;
///
/// let mut views = LavSetting::parse(&["V(A, B) :- p(A, B)."]).unwrap();
/// views.sources[0] = views.sources[0].clone().with_adornment("bf").unwrap();
/// let q = parse_program("q(X) :- p(c0, X).").unwrap();
/// let plan = executable_plan(&q, &views);
/// // Recursion through dom, seeded by the query constant.
/// assert!(plan.is_recursive());
/// assert!(plan.rules().iter().any(|r| r.to_string() == "dom(c0)."));
/// ```
pub fn executable_plan(query: &Program, views: &LavSetting) -> Program {
    let mut plan = query.clone();

    // dom facts for the constants of Q ∪ V.
    let mut consts: BTreeSet<Const> = query.consts();
    consts.extend(views.consts());
    for c in consts {
        plan.push(Rule::new(Atom::new(DOM, vec![Term::Const(c)]), vec![]));
    }

    for source in &views.sources {
        let head_args = source.view.head.args.clone();
        let call = Atom {
            pred: source.name,
            args: head_args.clone(),
        };
        for adornment in source.effective_adornments() {
            // Guards: dom on bound positions (variables only; constants
            // are trivially available).
            let guards: Vec<Literal> = adornment
                .bound_positions()
                .filter_map(|i| match &head_args[i] {
                    Term::Var(_) => Some(Literal::Atom(Atom::new(DOM, vec![head_args[i].clone()]))),
                    _ => None,
                })
                .collect();
            // dom harvest rules: one per free output position.
            for i in adornment.free_positions() {
                if let Term::Var(_) = &head_args[i] {
                    let mut body = guards.clone();
                    body.push(Literal::Atom(call.clone()));
                    plan.push(Rule::new(Atom::new(DOM, vec![head_args[i].clone()]), body));
                }
            }
        }
    }

    // Guarded inverse rules, one per access path.
    for rule in inverse_rules(views).rules() {
        let Literal::Atom(call) = &rule.body[0] else {
            unreachable!("inverse rules have a single source atom")
        };
        let source = views
            .source(call.pred)
            .expect("inverse rule calls a source");
        for adornment in source.effective_adornments() {
            let mut body: Vec<Literal> = adornment
                .bound_positions()
                .filter_map(|i| match &call.args[i] {
                    Term::Var(_) => Some(Literal::Atom(Atom::new(DOM, vec![call.args[i].clone()]))),
                    _ => None,
                })
                .collect();
            body.push(Literal::Atom(call.clone()));
            plan.push(Rule::new(rule.head.clone(), body));
        }
    }
    plan
}

/// Computes the *reachable certain answers* (Definition 4.3): evaluates
/// the function-term-eliminated executable plan over the source instance.
///
/// Evaluation of an executable plan only ever issues source accesses whose
/// bound arguments come from `dom`, so it models the access restrictions
/// faithfully; an in-memory instance stands in for the remote sources.
pub fn reachable_certain_answers(
    query: &Program,
    answer: &Symbol,
    views: &LavSetting,
    instance: &qc_datalog::Database,
    opts: &EvalOptions,
) -> Result<Relation, CertainError> {
    check_input(&[(query, answer)], &views.sources, Some(instance))?;
    let plan = eliminate_function_terms(&executable_plan(query, views))?;
    // Restrict the instance to what the adornments allow: a source tuple
    // is *accessible* only if its bound arguments are in dom. The guarded
    // inverse rules enforce exactly this during evaluation, so we can
    // evaluate directly.
    Ok(answers(&plan, instance, answer, opts)?.without_nulls())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_datalog::{parse_program, parse_rule, Database};

    fn amazon_views() -> LavSetting {
        // Price lookup needs the ISBN; the catalog lists ISBNs by author.
        // (Two mediated relations keyed by ISBN — a single wide `book`
        // relation would not make the join certain, since incomplete
        // sources never force two view tuples onto the same row.)
        let mut v = LavSetting::parse(&[
            "PriceOf(Isbn, Price) :- price(Isbn, Price).",
            "ByAuthor(Author, Isbn) :- authored(Isbn, Author).",
        ])
        .unwrap();
        v.sources[0] = v.sources[0].clone().with_adornment("bf").unwrap();
        v.sources[1] = v.sources[1].clone().with_adornment("bf").unwrap();
        v
    }

    #[test]
    fn executability_definition() {
        let v = amazon_views();
        // Bound argument appears earlier: executable.
        let ok = parse_rule("q(P) :- ByAuthor(eco, I), PriceOf(I, P).").unwrap();
        assert!(is_executable_rule(&ok, &v));
        // Bound argument never bound: not executable.
        let bad = parse_rule("q(P) :- PriceOf(I, P).").unwrap();
        assert!(!is_executable_rule(&bad, &v));
        // Order matters (left-to-right).
        let reordered = parse_rule("q(P) :- PriceOf(I, P), ByAuthor(eco, I).").unwrap();
        assert!(!is_executable_rule(&reordered, &v));
        // Constants satisfy bound positions.
        let konst = parse_rule("q(P) :- PriceOf(isbn1, P).").unwrap();
        assert!(is_executable_rule(&konst, &v));
    }

    #[test]
    fn executable_plan_is_recursive_and_executable() {
        let v = amazon_views();
        let q = parse_program("q(P) :- authored(I, eco), price(I, P).").unwrap();
        let plan = executable_plan(&q, &v);
        assert!(plan.is_recursive(), "recursion through dom is expected");
        assert!(is_executable_program(&plan, &v));
        // dom facts for the query constant.
        assert!(plan.rules().iter().any(|r| r.to_string() == "dom(eco)."));
    }

    #[test]
    fn reachable_certain_answers_chain() {
        // Knowing the author 'eco' lets us reach ISBNs, then prices.
        let v = amazon_views();
        let q = parse_program("q(P) :- authored(I, eco), price(I, P).").unwrap();
        let db = Database::parse(
            "ByAuthor(eco, i1). PriceOf(i1, 30). ByAuthor(eco, i2). PriceOf(i2, 45).
             PriceOf(i9, 99).",
        )
        .unwrap();
        let got =
            reachable_certain_answers(&q, &Symbol::new("q"), &v, &db, &EvalOptions::default())
                .unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&vec![Term::int(30)]));
        assert!(got.contains(&vec![Term::int(45)]));
    }

    #[test]
    fn unreachable_constants_do_not_leak() {
        // The price of i9 exists in the source but no query constant can
        // reach it: the reachable certain answers must exclude it.
        let v = amazon_views();
        let q = parse_program("q(P) :- authored(I, A), price(I, P).").unwrap();
        let db = Database::parse("PriceOf(i9, 99). ByAuthor(kafka, i9).").unwrap();
        // No constants in Q or V at all: dom starts empty, nothing is
        // callable.
        let got =
            reachable_certain_answers(&q, &Symbol::new("q"), &v, &db, &EvalOptions::default())
                .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn recursion_discovers_transitively() {
        // Classic Kwok–Weld example shape: citations reachable only
        // through repeated lookups.
        let mut v = LavSetting::parse(&["Cites(P1, P2) :- cites(P1, P2)."]).unwrap();
        v.sources[0] = v.sources[0].clone().with_adornment("bf").unwrap();
        let q = parse_program("q(P) :- cites(p0, P). q(P) :- q(P1), cites(P1, P).").unwrap();
        let db =
            Database::parse("Cites(p0, p1). Cites(p1, p2). Cites(p2, p3). Cites(p9, p8).").unwrap();
        let got =
            reachable_certain_answers(&q, &Symbol::new("q"), &v, &db, &EvalOptions::default())
                .unwrap();
        assert_eq!(got.len(), 3);
        assert!(got.contains(&vec![Term::sym("p3")]));
        assert!(!got.contains(&vec![Term::sym("p8")]));
    }

    #[test]
    fn free_sources_need_no_dom_guard() {
        let v = LavSetting::parse(&["V(X, Y) :- p(X, Y)."]).unwrap();
        let q = parse_program("q(X) :- p(X, Y).").unwrap();
        let plan = executable_plan(&q, &v);
        assert!(is_executable_program(&plan, &v));
        let db = Database::parse("V(a, b).").unwrap();
        let got =
            reachable_certain_answers(&q, &Symbol::new("q"), &v, &db, &EvalOptions::default())
                .unwrap();
        assert!(got.contains(&vec![Term::sym("a")]));
    }

    #[test]
    fn paper_cheating_plan_excluded() {
        // §4.1: a plan may not invent 'corolla' to call RedCars^fbf. With
        // no constants in Q ∪ V, the reachable certain answers are empty
        // even though the source holds a red corolla.
        let mut v =
            LavSetting::parse(&["RedCars(C, M, Y) :- CarDescription(C, M, red, Y)."]).unwrap();
        // NOTE: 'red' IS a constant of V, but it can only feed the Model
        // position via dom — which is the sound-plan semantics.
        v.sources[0] = v.sources[0].clone().with_adornment("fbf").unwrap();
        let q = parse_program("q(C, Y) :- CarDescription(C, M, red, Y).").unwrap();
        let db = Database::parse("RedCars(c1, corolla, 1988).").unwrap();
        let got =
            reachable_certain_answers(&q, &Symbol::new("q"), &v, &db, &EvalOptions::default())
                .unwrap();
        // dom = {red}; calling RedCars with Model=red finds nothing.
        assert!(got.is_empty());
    }
}
