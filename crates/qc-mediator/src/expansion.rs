//! Plan expansion `P ↦ P^exp` (§2.3 of the paper).
//!
//! The expansion replaces every source-relation atom in a plan with the
//! body of the corresponding view definition, using fresh variables for
//! the view's existential variables. Expansions are what the paper's
//! reduction theorems compare against queries: `Q1 ⊑_V Q2 ⟺ P1^exp ⊆ Q2`
//! (Theorems 4.1 and 5.2). Note that view *comparison* subgoals are kept
//! by the expansion — they matter for containment even though the
//! inverse rules drop them.

use qc_datalog::{unify_atoms, ConjunctiveQuery, Literal, Program, Rule, Ucq, VarGen};

use crate::schema::LavSetting;

/// Expands a plan program: every source atom in a rule body is replaced by
/// the view's (renamed-apart) body, unified with the atom's arguments.
/// Rules whose source atoms cannot unify with the view head are dropped
/// (they can never produce answers).
pub fn expand_program(plan: &Program, views: &LavSetting) -> Program {
    let mut gen = VarGen::new();
    let mut out = Program::default();
    'rules: for rule in plan.rules() {
        // Expand atoms left to right, accumulating a substitution.
        let mut work = rule.clone();
        loop {
            let found = work.body.iter().enumerate().find_map(|(i, l)| match l {
                Literal::Atom(a) => views.source(a.pred).map(|s| (i, s)),
                _ => None,
            });
            let Some((i, source)) = found else { break };
            let Literal::Atom(call) = work.body[i].clone() else {
                unreachable!()
            };
            let fresh_view = source.view.rename_apart(&mut gen);
            // Orientation matters: unify the *view* head against the call
            // so that the view's fresh variables bind to the plan's terms
            // and the plan's variable names survive the expansion (the
            // constraint pull-back in `minicon` depends on this).
            let Some(mgu) = unify_atoms(&fresh_view.head, &call) else {
                continue 'rules; // this rule can never fire
            };
            let mut body = work.body.clone();
            let replacement: Vec<Literal> = fresh_view
                .subgoals
                .iter()
                .cloned()
                .map(Literal::from)
                .chain(fresh_view.comparisons.iter().cloned().map(Literal::from))
                .collect();
            body.splice(i..=i, replacement);
            work = Rule::new(work.head.clone(), body).substitute(&mgu);
        }
        out.push(work);
    }
    qc_obs::count(qc_obs::Counter::ExpansionRules, out.rules().len() as u64);
    out
}

/// Expands a UCQ plan disjunct-wise.
pub fn expand_ucq(plan: &Ucq, views: &LavSetting) -> Ucq {
    let rules: Vec<Rule> = plan.to_rules();
    let expanded = expand_program(&Program::new(rules), views);
    let disjuncts: Vec<ConjunctiveQuery> = expanded
        .rules()
        .iter()
        .map(ConjunctiveQuery::from_rule)
        .collect();
    if disjuncts.is_empty() {
        Ucq::empty(plan.pred.as_str(), plan.arity)
    } else {
        Ucq::new(disjuncts).expect("expansion preserves heads")
    }
}

/// Expands a single conjunctive plan into a conjunctive query over the
/// mediated schema.
pub fn expand_cq(plan: &ConjunctiveQuery, views: &LavSetting) -> Option<ConjunctiveQuery> {
    let expanded = expand_program(&Program::new(vec![plan.to_rule()]), views);
    expanded.rules().first().map(ConjunctiveQuery::from_rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::example1_sources;
    use qc_datalog::{parse_query, parse_rule};

    #[test]
    fn expansion_replaces_sources_and_keeps_comparisons() {
        let views = example1_sources();
        let plan = parse_query(
            "p1(CarNo, Review) :- AntiqueCars(CarNo, Model, Year), CarAndDriver(Model, Review).",
        )
        .unwrap();
        let exp = expand_cq(&plan, &views).unwrap();
        // CarDesc + Review subgoals, plus the view's Year < 1970.
        assert_eq!(exp.subgoals.len(), 2);
        assert_eq!(exp.comparisons.len(), 1);
        let preds: Vec<&str> = exp.subgoals.iter().map(|a| a.pred.as_str()).collect();
        assert!(preds.contains(&"CarDesc"));
        assert!(preds.contains(&"Review"));
        // The Review subgoal carries the constant 10 from the view.
        let review = exp.subgoals.iter().find(|a| a.pred == "Review").unwrap();
        assert_eq!(review.args[2], qc_datalog::Term::int(10));
    }

    #[test]
    fn existentials_are_fresh_per_occurrence() {
        let views = LavSetting::parse(&["V(X) :- p(X, Y)."]).unwrap();
        let plan = parse_query("q(A, B) :- V(A), V(B).").unwrap();
        let exp = expand_cq(&plan, &views).unwrap();
        assert_eq!(exp.subgoals.len(), 2);
        // The two p-atoms must not share their existential second column.
        assert_ne!(exp.subgoals[0].args[1], exp.subgoals[1].args[1]);
    }

    #[test]
    fn non_unifying_call_drops_rule() {
        let views = LavSetting::parse(&["V(10) :- p(10)."]).unwrap();
        let plan = Program::new(vec![parse_rule("q(X) :- V(20), r(X).").unwrap()]);
        let exp = expand_program(&plan, &views);
        assert!(exp.rules().is_empty());
    }

    #[test]
    fn call_constants_propagate() {
        let views = LavSetting::parse(&["V(X, Y) :- p(X, Y)."]).unwrap();
        let plan = parse_query("q(A) :- V(A, 10).").unwrap();
        let exp = expand_cq(&plan, &views).unwrap();
        assert_eq!(exp.subgoals[0].args[1], qc_datalog::Term::int(10));
    }

    #[test]
    fn non_source_atoms_untouched() {
        let views = example1_sources();
        let plan = Program::new(vec![
            parse_rule("q(X) :- helper(X).").unwrap(),
            parse_rule("helper(X) :- RedCars(X, M, Y).").unwrap(),
        ]);
        let exp = expand_program(&plan, &views);
        assert_eq!(exp.rules()[0].to_string(), "q(X) :- helper(X).");
        assert!(exp.rules()[1].to_string().contains("CarDesc"));
    }

    #[test]
    fn expand_ucq_shape() {
        let views = example1_sources();
        let plan = Ucq::new(vec![
            parse_query("p1(C, R) :- RedCars(C, M, Y), CarAndDriver(M, R).").unwrap(),
            parse_query("p1(C, R) :- AntiqueCars(C, M, Y), CarAndDriver(M, R).").unwrap(),
        ])
        .unwrap();
        let exp = expand_ucq(&plan, &views);
        assert_eq!(exp.disjuncts.len(), 2);
        assert!(exp.disjuncts[1].comparisons.len() == 1);
    }
}
