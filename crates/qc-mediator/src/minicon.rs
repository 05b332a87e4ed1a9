//! A MiniCon-style rewriting algorithm (Pottinger–Halevy): the reference
//! construction of maximally-contained plans, with no production caller.
//!
//! MiniCon builds *MiniCon descriptions* (MCDs): a view, a mapping of a
//! minimal set of query subgoals into it, closed under the rule that a
//! query variable mapped to a view *existential* drags every subgoal it
//! occurs in into the same MCD. Combinations of MCDs with disjoint
//! coverage yield the conjunctive rewritings whose union is the
//! maximally-contained plan.
//!
//! Every plan the program builds comes from the inverse rules
//! ([`crate::relative::max_contained_ucq_plan`]); MiniCon builds plans by
//! another algorithm, so the differential tests, the `differential` and
//! `fault_injection` bins and experiment E9 use it as the independent
//! construction the inverse-rule plans must agree with — for
//! semi-interval queries too, through [`semi_interval_skeletons`]. Every
//! emitted rewriting is verified sound (`expansion ⊆ query`) before
//! inclusion, so over-generation is harmless.

use std::collections::{BTreeMap, BTreeSet};

use qc_containment::{cq_contained_memo, engine, minimize};
use qc_datalog::{Atom, ConjunctiveQuery, Subst, Term, Ucq, Var, VarGen};

use crate::expansion::expand_cq;
use crate::schema::{LavSetting, SourceDescription};

/// One MiniCon description.
#[derive(Debug, Clone)]
struct Mcd {
    /// Covered query-subgoal indexes.
    covered: BTreeSet<usize>,
    /// The rewriting atom over query variables / fresh variables /
    /// constants.
    atom: Atom,
    /// Query-variable identifications and constant bindings induced by
    /// the mapping (applied to the final rewriting).
    rho: Subst,
}

/// Builds the MiniCon rewritings of a comparison-free conjunctive query
/// over comparison-free view skeletons, verified sound against `query`.
/// The union of the results is the maximally-contained plan.
///
/// ```
/// use qc_datalog::parse_query;
/// use qc_mediator::minicon::minicon_rewritings;
/// use qc_mediator::schema::LavSetting;
///
/// let views = LavSetting::parse(&["V(A, C) :- p(A, B), r(B, C)."]).unwrap();
/// let q = parse_query("q(X, Z) :- p(X, Y), r(Y, Z).").unwrap();
/// let plan = minicon_rewritings(&q, &views);
/// assert_eq!(plan.disjuncts.len(), 1);
/// assert_eq!(plan.disjuncts[0].subgoals[0].pred, "V");
/// ```
pub fn minicon_rewritings(query: &ConjunctiveQuery, views: &LavSetting) -> Ucq {
    let mut gen = VarGen::new();
    let mut mcds: Vec<Mcd> = Vec::new();
    for (i, _) in query.subgoals.iter().enumerate() {
        for source in &views.sources {
            mcds.extend(form_mcds(query, source, i, &mut gen));
        }
    }
    qc_obs::count(qc_obs::Counter::MiniconMcdsFormed, mcds.len() as u64);
    // Combine MCDs with disjoint coverage into full covers, in the
    // lexicographic order of their MCD indexes.
    let mut covers: Vec<Vec<usize>> = Vec::new();
    combine(
        &mcds,
        &mut vec![false; query.subgoals.len()],
        &mut Vec::new(),
        &mut covers,
    );
    covers.sort_unstable();
    let rewritings: Vec<ConjunctiveQuery> = covers
        .iter()
        .filter_map(|cover| rewriting(query, &mcds, cover))
        .collect();
    // Soundness check + minimization + dedup. The per-candidate checks
    // are independent: each expansion's containment in the query goes
    // through the canonical memo and the batch fans out across worker
    // threads when the engine's parallelism allows. Verdicts come back in
    // candidate order, so dedup (and hence the output) is identical for
    // any parallelism.
    let verdicts = engine::parallel_map(&rewritings, |rw| {
        expand_cq(rw, views).is_some_and(|exp| cq_contained_memo(&exp, query))
    });
    let mut sound: Vec<ConjunctiveQuery> = Vec::new();
    for (rw, ok) in rewritings.iter().zip(verdicts) {
        if ok {
            let min = minimize(rw);
            if !sound.iter().any(|s| s == &min) {
                sound.push(min);
            }
        }
    }
    if sound.is_empty() {
        Ucq::empty(query.head.pred.as_str(), query.head.arity())
    } else {
        Ucq::new(sound).expect("rewritings share the query head")
    }
}

/// Forms every MCD seeded by mapping query subgoal `seed` into some
/// subgoal of `source`'s view.
fn form_mcds(
    query: &ConjunctiveQuery,
    source: &SourceDescription,
    seed: usize,
    gen: &mut VarGen,
) -> Vec<Mcd> {
    let view = source.view.rename_apart(gen);
    let head_vars: BTreeSet<Var> = view.head.vars();
    let existential: BTreeSet<Var> = view
        .subgoals
        .iter()
        .flat_map(|a| a.vars())
        .filter(|v| !head_vars.contains(v))
        .collect();
    let mut out = Vec::new();
    for (si, _) in view.subgoals.iter().enumerate() {
        let mut state = MapState {
            phi: BTreeMap::new(),
            theta: Subst::new(),
            covered: BTreeSet::new(),
        };
        if map_subgoal(query, &view, &existential, seed, si, &mut state) {
            // Closure: existential-mapped variables drag their subgoals in.
            // Every way of closing yields a (potentially different) MCD.
            for closed in close_all(query, &view, &existential, state) {
                if let Some(mcd) = finalize(query, source, &view, &existential, &closed) {
                    // One work unit per MCD formed (the `MiniconMcdsFormed`
                    // granularity); `trip` unwinds to the nearest
                    // `qc_guard::guarded` boundary because rewriting
                    // construction has no fallible plumbing.
                    qc_guard::trip(qc_guard::stage::MINICON, 1);
                    out.push(mcd);
                }
            }
        }
    }
    out
}

struct MapState {
    /// Query var -> view term (resolved through theta lazily).
    phi: BTreeMap<Var, Term>,
    /// Head homomorphism / constant bindings on view variables.
    theta: Subst,
    covered: BTreeSet<usize>,
}

/// Maps query subgoal `qi` onto view subgoal `si`, extending the state.
fn map_subgoal(
    query: &ConjunctiveQuery,
    view: &ConjunctiveQuery,
    existential: &BTreeSet<Var>,
    qi: usize,
    si: usize,
    st: &mut MapState,
) -> bool {
    let g = &query.subgoals[qi];
    let s = &view.subgoals[si];
    if g.pred != s.pred || g.args.len() != s.args.len() {
        return false;
    }
    for (qt, vt_raw) in g.args.iter().zip(&s.args) {
        let vt = st.theta.apply_term(vt_raw);
        match qt {
            Term::Var(x) => {
                let current = st.phi.get(x).map(|t| st.theta.apply_term(t));
                match current {
                    None => {
                        st.phi.insert(*x, vt);
                    }
                    Some(prev) if prev == vt => {}
                    Some(prev) => {
                        // Equate prev and vt: only between distinguished
                        // view variables / constants (a head homomorphism).
                        if !equate(&prev, &vt, existential, &mut st.theta) {
                            return false;
                        }
                    }
                }
            }
            Term::Const(_) => match &vt {
                Term::Const(_) => {
                    if &vt != qt {
                        return false;
                    }
                }
                Term::Var(y) => {
                    if existential.contains(y) {
                        return false; // view does not guarantee the value
                    }
                    if !st.theta.bind(*y, qt.clone()) {
                        return false;
                    }
                }
                Term::App(..) => return false,
            },
            Term::App(..) => return false,
        }
    }
    st.covered.insert(qi);
    true
}

/// Equates two view terms via the head homomorphism; fails if an
/// existential variable would be constrained.
fn equate(a: &Term, b: &Term, existential: &BTreeSet<Var>, theta: &mut Subst) -> bool {
    match (a, b) {
        (Term::Var(x), _) if !existential.contains(x) => match b {
            Term::Var(y) if existential.contains(y) => false,
            _ => theta.bind(*x, b.clone()),
        },
        (_, Term::Var(y)) if !existential.contains(y) => theta.bind(*y, a.clone()),
        (Term::Const(c), Term::Const(d)) => c == d,
        _ => false,
    }
}

/// Closes the MCD under the existential condition, exploring *every*
/// choice of target subgoal — different closures are different MCDs, and
/// completeness of the rewriting union needs them all.
fn close_all(
    query: &ConjunctiveQuery,
    view: &ConjunctiveQuery,
    existential: &BTreeSet<Var>,
    st: MapState,
) -> Vec<MapState> {
    // Find an uncovered query subgoal that MUST be covered: it mentions a
    // variable mapped to a view existential.
    let must: Option<usize> = (0..query.subgoals.len()).find(|qi| {
        !st.covered.contains(qi)
            && query.subgoals[*qi].vars().iter().any(|x| {
                st.phi
                    .get(x)
                    .map(|t| st.theta.apply_term(t))
                    .is_some_and(|t| matches!(&t, Term::Var(y) if existential.contains(y)))
            })
    });
    let Some(qi) = must else { return vec![st] };
    let mut out = Vec::new();
    for si in 0..view.subgoals.len() {
        let mut attempt = MapState {
            phi: st.phi.clone(),
            theta: st.theta.clone(),
            covered: st.covered.clone(),
        };
        if map_subgoal(query, view, existential, qi, si, &mut attempt) {
            out.extend(close_all(query, view, existential, attempt));
        }
    }
    out
}

/// Builds the rewriting atom and query-variable substitution.
fn finalize(
    query: &ConjunctiveQuery,
    source: &SourceDescription,
    view: &ConjunctiveQuery,
    existential: &BTreeSet<Var>,
    st: &MapState,
) -> Option<Mcd> {
    let head_distinguished: BTreeSet<Var> = query.head.vars();
    // Distinguished query variables must be retrievable.
    for (x, t) in &st.phi {
        let t = st.theta.apply_term(t);
        if head_distinguished.contains(x) {
            match &t {
                Term::Const(_) => {}
                Term::Var(y) if !existential.contains(y) => {}
                _ => return None,
            }
        }
    }
    // Rewriting atom: the view head under theta, with positions named by
    // the query variables that map there.
    let head_args = view
        .head
        .args
        .iter()
        .map(|t| st.theta.apply_term(t))
        .collect::<Vec<Term>>();
    let mut rho = Subst::new();
    let mut atom_args: Vec<Term> = Vec::new();
    for t in &head_args {
        match t {
            Term::Const(_) => atom_args.push(t.clone()),
            _ => {
                // Query variables mapping to this head term.
                let owners: Vec<&Var> = st
                    .phi
                    .iter()
                    .filter(|(_, ot)| &st.theta.apply_term(ot) == t)
                    .map(|(x, _)| x)
                    .collect();
                match owners.split_first() {
                    None => atom_args.push(t.clone()), // unused head position
                    Some((rep, rest)) => {
                        atom_args.push(Term::Var(*(*rep)));
                        for other in rest {
                            if !rho.bind(*(*other), Term::Var(*(*rep))) {
                                return None;
                            }
                        }
                    }
                }
            }
        }
    }
    // Query variables mapped to constants get substituted.
    for (x, t) in &st.phi {
        if let Term::Const(_) = st.theta.apply_term(t) {
            if !rho.bind(*x, st.theta.apply_term(t)) {
                return None;
            }
        }
    }
    Some(Mcd {
        covered: st.covered.clone(),
        atom: Atom {
            pred: source.name,
            args: atom_args,
        },
        rho,
    })
}

/// Collects into `covers` every set of pairwise-disjoint MCDs that covers
/// every query subgoal (`covered` marks those already covered), each set
/// once, as sorted MCD indexes. Every cover holds exactly one MCD
/// covering the lowest subgoal `covered` leaves open, so the search
/// branches only on those MCDs and never walks partial sets that cannot
/// grow into a cover. One work unit per search node: the number of
/// covers can grow exponentially with the query, and without the charge
/// a deadline would not stop the search.
fn combine(
    mcds: &[Mcd],
    covered: &mut [bool],
    picked: &mut Vec<usize>,
    covers: &mut Vec<Vec<usize>>,
) {
    qc_guard::trip(qc_guard::stage::MINICON, 1);
    let Some(open) = covered.iter().position(|c| !c) else {
        let mut cover = picked.clone();
        cover.sort_unstable();
        covers.push(cover);
        return;
    };
    for (i, mcd) in mcds.iter().enumerate() {
        if mcd.covered.contains(&open) && mcd.covered.iter().all(|&g| !covered[g]) {
            for &g in &mcd.covered {
                covered[g] = true;
            }
            picked.push(i);
            combine(mcds, covered, picked, covers);
            picked.pop();
            for &g in &mcd.covered {
                covered[g] = false;
            }
        }
    }
}

/// The rewriting a cover stands for: its MCDs' atoms, under the merge of
/// their query-variable substitutions. `None` when two MCDs bind one
/// query variable to distinct constants.
fn rewriting(query: &ConjunctiveQuery, mcds: &[Mcd], cover: &[usize]) -> Option<ConjunctiveQuery> {
    let mut rho = Subst::new();
    let mut body: Vec<Atom> = Vec::new();
    for &i in cover {
        body.push(mcds[i].atom.clone());
        for v in mcds[i].rho.domain() {
            let t = mcds[i].rho.get(v).expect("domain var").clone();
            // Unify rather than bind: two MCDs may constrain the same
            // query variable (e.g. one equates it with a representative
            // and another with a constant), which must merge, not
            // overwrite.
            if !qc_datalog::unify_terms_with(&mut rho, &Term::Var(*v), &t) {
                return None;
            }
        }
    }
    Some(ConjunctiveQuery::new(query.head.clone(), body, Vec::new()).substitute(&rho))
}

/// MiniCon's relational skeletons for a semi-interval `query`: its
/// rewritings of the comparison-stripped query over the
/// comparison-stripped views. Completing them with
/// [`crate::relative::complete_semi_interval`] gives the reference
/// Theorem 5.1 plan the tests and the `differential` bin compare the
/// production plan with.
pub fn semi_interval_skeletons(
    query: &ConjunctiveQuery,
    views: &LavSetting,
) -> Vec<ConjunctiveQuery> {
    let stripped_query =
        ConjunctiveQuery::new(query.head.clone(), query.subgoals.clone(), Vec::new());
    let stripped_views = LavSetting {
        sources: views
            .sources
            .iter()
            .map(|s| {
                let mut s2 = s.clone();
                s2.view.comparisons.clear();
                s2
            })
            .collect(),
    };
    minicon_rewritings(&stripped_query, &stripped_views).disjuncts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::example1_sources;
    use qc_datalog::parse_query;

    #[test]
    fn example1_q1_rewritings_match_example3() {
        let q1 = parse_query(
            "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
        )
        .unwrap();
        let u = minicon_rewritings(&q1, &example1_sources());
        assert_eq!(u.disjuncts.len(), 2);
        let strs: Vec<String> = u
            .disjuncts
            .iter()
            .map(|d| d.to_rule().to_string())
            .collect();
        assert!(
            strs.iter()
                .any(|s| s.contains("RedCars") && s.contains("CarAndDriver")),
            "{strs:?}"
        );
        assert!(
            strs.iter()
                .any(|s| s.contains("AntiqueCars") && s.contains("CarAndDriver")),
            "{strs:?}"
        );
    }

    #[test]
    fn distinguished_existential_blocks_rewriting() {
        // v hides the join column: cannot answer q needing it.
        let views = LavSetting::parse(&["v(X) :- p(X, Y)."]).unwrap();
        let q = parse_query("q(X, Y) :- p(X, Y).").unwrap();
        let u = minicon_rewritings(&q, &views);
        assert!(u.is_empty());
        // But the projection is answerable.
        let q2 = parse_query("q(X) :- p(X, Y).").unwrap();
        let u2 = minicon_rewritings(&q2, &views);
        assert_eq!(u2.disjuncts.len(), 1);
        assert_eq!(u2.disjuncts[0].subgoals[0].pred, "v");
    }

    #[test]
    fn existential_join_drags_subgoals_together() {
        // The view covers both subgoals through its existential Y; an MCD
        // must cover both at once.
        let views = LavSetting::parse(&["v(X, Z) :- p(X, Y), r(Y, Z)."]).unwrap();
        let q = parse_query("q(X, Z) :- p(X, Y), r(Y, Z).").unwrap();
        let u = minicon_rewritings(&q, &views);
        assert_eq!(u.disjuncts.len(), 1);
        assert_eq!(u.disjuncts[0].subgoals.len(), 1);
        // And a query joining p with an *incompatible* r is not answerable.
        let views2 = LavSetting::parse(&["v(X, Z) :- p(X, Y), r(Y, Z)."]).unwrap();
        let q2 = parse_query("q(X, Z) :- p(X, Y), s(Y, Z).").unwrap();
        assert!(minicon_rewritings(&q2, &views2).is_empty());
    }

    #[test]
    fn constants_in_query_must_be_guaranteed() {
        // View with existential rating cannot answer a query pinning it.
        let views = LavSetting::parse(&["v(M) :- review(M, R)."]).unwrap();
        let q = parse_query("q(M) :- review(M, 10).").unwrap();
        assert!(minicon_rewritings(&q, &views).is_empty());
        // View pinning the rating can.
        let views2 = LavSetting::parse(&["v(M) :- review(M, 10)."]).unwrap();
        assert_eq!(minicon_rewritings(&q, &views2).disjuncts.len(), 1);
    }

    #[test]
    fn agrees_with_inverse_rules_route() {
        use crate::fn_elim::eliminate_function_terms;
        use crate::inverse_rules::max_contained_plan;
        use qc_containment::cq::ucq_equivalent;
        use qc_datalog::{parse_program, Symbol};
        let cases: Vec<(&str, Vec<&str>)> = vec![
            (
                "q(X, Z) :- e(X, Y), e(Y, Z).",
                vec!["v1(A, B) :- e(A, B).", "v2(A, C) :- e(A, B), e(B, C)."],
            ),
            (
                "q(X) :- p(X, Y), r(Y).",
                vec!["v1(A) :- p(A, B), r(B).", "v2(A, B) :- p(A, B)."],
            ),
        ];
        for (qs, vs) in cases {
            let q = parse_query(qs).unwrap();
            let views = LavSetting::parse(&vs).unwrap();
            let mc = minicon_rewritings(&q, &views);
            let prog = parse_program(qs).unwrap();
            let inv = eliminate_function_terms(&max_contained_plan(&prog, &views)).unwrap();
            let inv_ucq = inv.unfold(&Symbol::new("q")).unwrap();
            assert!(
                ucq_equivalent(&mc, &inv_ucq),
                "{qs}: minicon={mc} vs inverse={inv_ucq}"
            );
        }
    }

    #[test]
    fn example4_semi_interval_plan() {
        // The paper's Example 4: MiniCon's skeletons complete to P3 for Q3.
        let q3 = parse_query(
            "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
        )
        .unwrap();
        let views = example1_sources();
        let skeletons = semi_interval_skeletons(&q3, &views);
        let plan = crate::relative::complete_semi_interval(&q3, &views, &skeletons);
        assert_eq!(plan.disjuncts.len(), 2, "{plan}");
        let red = plan
            .disjuncts
            .iter()
            .find(|d| d.subgoals.iter().any(|a| a.pred == "RedCars"))
            .expect("RedCars disjunct");
        // RedCars needs the explicit Year < 1970.
        assert_eq!(red.comparisons.len(), 1);
        let antique = plan
            .disjuncts
            .iter()
            .find(|d| d.subgoals.iter().any(|a| a.pred == "AntiqueCars"))
            .expect("AntiqueCars disjunct");
        // AntiqueCars already guarantees it: no explicit constraint.
        assert!(antique.comparisons.is_empty(), "{antique}");
    }
}
