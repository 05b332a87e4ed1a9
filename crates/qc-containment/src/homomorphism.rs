//! Containment mappings (Chandra–Merlin homomorphisms).
//!
//! A *containment mapping* from `Q2` to `Q1` maps every variable of `Q2`
//! to a term of `Q1` such that the head of `Q2` maps to the head of `Q1`
//! positionally and every relational subgoal of `Q2` maps to some
//! relational subgoal of `Q1`. `Q1 ⊆ Q2` (comparison-free case) iff such a
//! mapping exists [Chandra–Merlin 1977].
//!
//! Two backtracking kernels search for mappings, chosen by instance size;
//! `EngineTierDirect` / `EngineTierOptimized` count which one ran.
//!
//! * Instances of at most 4 096 subgoal pairs (`|from subgoals| × |to
//!   subgoals|`) run the **direct** kernel: goals ordered by fewest
//!   same-predicate targets, every target subgoal tried at every node,
//!   bindings trailed on one shared rewind stack. On instances this small,
//!   building buckets and ordering goals costs more than it saves.
//! * Larger instances run the **bucketed** kernel. Candidate subgoals of
//!   `Q1` are pre-bucketed by `(predicate, arity)`, the head constraint is
//!   applied first (it usually pins the distinguished variables
//!   immediately), and goals are ordered most-constrained-first (ground
//!   arguments, then repeated-variable arguments, then fewest candidate
//!   targets). A cheap pre-filter — predicate-set and constant-occurrence
//!   necessary conditions — rejects impossible instances before any search
//!   node is expanded, and a forward check after every binding prunes
//!   doomed subtrees. `Q2`'s variables are numbered into dense *slots* once
//!   up front; the backtracking state is a flat `Vec<Option<&Term>>`
//!   indexed by slot with a shared rewind stack, so binding, conflict
//!   checks, and rollback are array stores rather than hash-map operations.
//!   A [`Mapping`] is materialized only at the leaves, once per complete
//!   mapping found.
//!
//! Both kernels enumerate the same mappings, in general in a different
//! order.

use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;

use qc_datalog::fx::FxHashMap;
use qc_datalog::{Atom, ConjunctiveQuery, Symbol, Term, Var};

/// Instances of at most this many subgoal pairs (`|from subgoals| × |to
/// subgoals|`) run the direct kernel, larger ones the bucketed kernel.
const DIRECT_MAX_PAIRS: usize = 4096;

/// A variable-to-term mapping (the hom restricted to variables; constants
/// always map to themselves).
pub type Mapping = HashMap<Var, Term>;

/// Applies a mapping to a term (unmapped variables stay).
pub fn apply_mapping(m: &Mapping, t: &Term) -> Term {
    match t {
        Term::Var(v) => m.get(v).cloned().unwrap_or_else(|| t.clone()),
        Term::Const(_) => t.clone(),
        Term::App(f, args) => Term::App(*f, args.iter().map(|a| apply_mapping(m, a)).collect()),
    }
}

/// Extends `m` so that `apply(m, from) == to`; `to` is fixed. Returns the
/// list of newly bound variables for rollback, or `None` on conflict.
fn extend(m: &mut Mapping, from: &Term, to: &Term, added: &mut Vec<Var>) -> bool {
    match from {
        Term::Var(v) => match m.get(v) {
            Some(bound) => bound == to,
            None => {
                m.insert(*v, to.clone());
                added.push(*v);
                true
            }
        },
        Term::Const(_) => from == to,
        Term::App(f, fargs) => match to {
            Term::App(g, gargs) => {
                f == g
                    && fargs.len() == gargs.len()
                    && fargs.iter().zip(gargs).all(|(a, b)| extend(m, a, b, added))
            }
            _ => false,
        },
    }
}

/// Visits every containment mapping from `from` onto `to` (head-preserving,
/// relational subgoals only — comparisons are the caller's concern).
/// Returns `true` when the enumeration completed without the visitor
/// breaking.
///
/// Head predicates are *not* required to match (a maximally-contained plan
/// `p1` is compared against a query `q1`), but arities must.
pub fn for_each_containment_mapping(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    mut visit: impl FnMut(&Mapping) -> ControlFlow<()>,
) -> bool {
    let _t = qc_obs::time(qc_obs::Hist::HomSearchNs);
    if from.head.arity() != to.head.arity() {
        return true; // no mappings possible
    }
    if from.subgoals.len().saturating_mul(to.subgoals.len()) <= DIRECT_MAX_PAIRS {
        qc_obs::count(qc_obs::Counter::EngineTierDirect, 1);
        direct_mapping_search(from, to, &mut visit)
    } else {
        qc_obs::count(qc_obs::Counter::EngineTierOptimized, 1);
        bucketed_mapping_search(from, to, &mut visit)
    }
}

/// The bucketed kernel (see the module documentation).
fn bucketed_mapping_search(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    visit: &mut impl FnMut(&Mapping) -> ControlFlow<()>,
) -> bool {
    // Pre-bucket the targets by (predicate, arity): every search node then
    // enumerates exactly the pred/arity-compatible candidates. Symbols
    // hash by interned id, so the key is two integers.
    let mut buckets: FxHashMap<(Symbol, usize), Vec<&Atom>> = FxHashMap::default();
    for t in &to.subgoals {
        buckets.entry((t.pred, t.args.len())).or_default().push(t);
    }

    // Cheap pre-filter (necessary conditions, checked before any search):
    // every goal needs a nonempty bucket, and a constant at goal position
    // `i` must occur at position `i` of at least one candidate (a variable
    // or a mismatching constant there can never receive it).
    for g in &from.subgoals {
        let Some(cands) = buckets.get(&(g.pred, g.args.len())) else {
            qc_obs::count(qc_obs::Counter::HomPrefilterRejects, 1);
            return true;
        };
        for (i, a) in g.args.iter().enumerate() {
            if matches!(a, Term::Const(_)) && !cands.iter().any(|c| &c.args[i] == a) {
                qc_obs::count(qc_obs::Counter::HomPrefilterRejects, 1);
                return true;
            }
        }
    }

    // Number every variable of `from` into a dense slot: head variables
    // first, then subgoal variables in textual order. The per-subgoal,
    // per-argument slot lists double as the ordering pass's and the
    // forward check's variable lists — nothing allocates inside the
    // search.
    let mut slots = SlotMap::default();
    let mut head_vars: BTreeSet<Var> = BTreeSet::new();
    from.head.collect_vars(&mut head_vars);
    for &v in &head_vars {
        slots.slot(v);
    }
    let arg_vars: Vec<Vec<Vec<u32>>> = from
        .subgoals
        .iter()
        .map(|g| {
            g.args
                .iter()
                .map(|a| {
                    let mut s = BTreeSet::new();
                    a.collect_vars(&mut s);
                    s.into_iter().map(|v| slots.slot(v)).collect()
                })
                .collect()
        })
        .collect();
    let nslots = slots.vars.len();
    let mut occurrences: Vec<u32> = vec![0; nslots];
    for &v in &head_vars {
        occurrences[slots.ids[&v] as usize] += 1;
    }
    for goal in &arg_vars {
        for arg in goal {
            for &s in arg {
                occurrences[s as usize] += 1;
            }
        }
    }

    // Head constraint first.
    let mut bind: Vec<Option<&Term>> = vec![None; nslots];
    let mut added: Vec<u32> = Vec::new();
    for (f, t) in from.head.args.iter().zip(&to.head.args) {
        if !extend_slots(&mut bind, &slots.ids, f, t, &mut added) {
            return true;
        }
    }

    // Greedy connected, most-constrained-first goal order. Starting from
    // the variables the head constraint pins, repeatedly pick the goal
    // with (a) the most *determined* arguments — ground terms or terms
    // whose variables are already pinned by earlier goals, which
    // `extend_slots` checks against each candidate immediately, so
    // mismatches fail at depth `k` instead of deep in the subtree — then
    // (b) the most repeated-variable arguments (soon-to-be-pinned joins),
    // then (c) the smallest candidate bucket. `min_by_key` takes the first
    // minimum, so remaining ties break on textual order deterministically.
    let mut order: Vec<usize> = (0..from.subgoals.len()).collect();
    let mut pinned: Vec<bool> = vec![false; nslots];
    for &v in &head_vars {
        pinned[slots.ids[&v] as usize] = true;
    }
    for k in 0..order.len() {
        let best = (k..order.len())
            .min_by_key(|&i| {
                let gi = order[i];
                let g = &from.subgoals[gi];
                let determined = arg_vars[gi]
                    .iter()
                    .filter(|vs| vs.iter().all(|&s| pinned[s as usize]))
                    .count();
                let repeated = arg_vars[gi]
                    .iter()
                    .filter(|vs| !vs.is_empty() && vs.iter().any(|&s| occurrences[s as usize] > 1))
                    .count();
                let cands = buckets.get(&(g.pred, g.args.len())).map_or(0, Vec::len);
                (
                    std::cmp::Reverse(determined),
                    std::cmp::Reverse(repeated),
                    cands,
                )
            })
            .expect("nonempty suffix");
        order.swap(k, best);
        for vs in &arg_vars[order[k]] {
            for &s in vs {
                pinned[s as usize] = true;
            }
        }
    }
    let goals: Vec<&Atom> = order.iter().map(|&i| &from.subgoals[i]).collect();
    let goal_arg_vars: Vec<&[Vec<u32>]> = order.iter().map(|&i| arg_vars[i].as_slice()).collect();
    let mut ctx = Ctx {
        goals: &goals,
        arg_vars: &goal_arg_vars,
        buckets: &buckets,
        slots: &slots,
        bind,
        rewind: added,
        visit,
    };
    bucketed_search(&mut ctx, 0).is_continue()
}

/// Dense numbering of the source query's variables; the bucketed search's
/// backtracking state is a flat binding array indexed by slot.
#[derive(Default)]
struct SlotMap {
    /// slot → variable (for leaf [`Mapping`] materialization).
    vars: Vec<Var>,
    /// variable → slot. Variables hash by interned symbol id.
    ids: FxHashMap<Var, u32>,
}

impl SlotMap {
    fn slot(&mut self, v: Var) -> u32 {
        if let Some(&s) = self.ids.get(&v) {
            return s;
        }
        let s = u32::try_from(self.vars.len()).expect("more than u32::MAX variables");
        self.vars.push(v);
        self.ids.insert(v, s);
        s
    }
}

/// Extends the slot bindings so that `from` maps onto `to`; `to` is fixed.
/// Newly bound slots are pushed onto `added` for rollback. Returns `false`
/// on conflict (the caller rolls back whatever was added).
fn extend_slots<'q>(
    bind: &mut [Option<&'q Term>],
    slots: &FxHashMap<Var, u32>,
    from: &Term,
    to: &'q Term,
    added: &mut Vec<u32>,
) -> bool {
    match from {
        Term::Var(v) => {
            let s = slots[v] as usize;
            match bind[s] {
                Some(img) => img == to,
                None => {
                    bind[s] = Some(to);
                    added.push(s as u32);
                    true
                }
            }
        }
        Term::Const(_) => from == to,
        Term::App(f, fargs) => match to {
            Term::App(g, gargs) => {
                f == g
                    && fargs.len() == gargs.len()
                    && fargs
                        .iter()
                        .zip(gargs)
                        .all(|(a, b)| extend_slots(bind, slots, a, b, added))
            }
            _ => false,
        },
    }
}

/// Non-destructive compatibility: can `f` still be mapped onto `t` under
/// the current bindings? (Bound slots must agree with their image; unbound
/// slots are unconstrained.) Used by the forward check — never binds.
fn arg_compatible(bind: &[Option<&Term>], slots: &FxHashMap<Var, u32>, f: &Term, t: &Term) -> bool {
    match f {
        Term::Var(v) => bind[slots[v] as usize].is_none_or(|img| img == t),
        Term::Const(_) => f == t,
        Term::App(fs, fargs) => match t {
            Term::App(ts, targs) if fs == ts && fargs.len() == targs.len() => fargs
                .iter()
                .zip(targs)
                .all(|(a, b)| arg_compatible(bind, slots, a, b)),
            _ => false,
        },
    }
}

/// The bucketed search's per-run state: compiled goal order, buckets, slot
/// table, the flat binding array, and one shared rewind stack for the
/// whole search (each node truncates back to its entry mark).
struct Ctx<'r, 'q, V> {
    goals: &'r [&'q Atom],
    arg_vars: &'r [&'r [Vec<u32>]],
    buckets: &'r FxHashMap<(Symbol, usize), Vec<&'q Atom>>,
    slots: &'r SlotMap,
    bind: Vec<Option<&'q Term>>,
    rewind: Vec<u32>,
    visit: &'r mut V,
}

fn bucketed_search<V: FnMut(&Mapping) -> ControlFlow<()>>(
    ctx: &mut Ctx<'_, '_, V>,
    k: usize,
) -> ControlFlow<()> {
    // One work unit per search node, at the `HomSearchNodes` counter site;
    // `trip` unwinds to the nearest `qc_guard::guarded` boundary because
    // the search has no fallible plumbing of its own.
    qc_guard::trip(qc_guard::stage::HOM_SEARCH, 1);
    qc_obs::count(qc_obs::Counter::HomSearchNodes, 1);
    if k == ctx.goals.len() {
        qc_obs::count(qc_obs::Counter::HomMappingsFound, 1);
        // Materialize the mapping only at a leaf — once per complete
        // mapping, not once per node.
        let mut m = Mapping::with_capacity(ctx.slots.vars.len());
        for (i, b) in ctx.bind.iter().enumerate() {
            if let Some(t) = b {
                m.insert(ctx.slots.vars[i], (*t).clone());
            }
        }
        return (ctx.visit)(&m);
    }
    // Shared-ref fields copied to locals so the candidate list does not
    // hold a borrow of `ctx` across the binding mutations below.
    let (goals, arg_vars, buckets, slots) = (ctx.goals, ctx.arg_vars, ctx.buckets, ctx.slots);
    let goal = goals[k];
    let Some(cands) = buckets.get(&(goal.pred, goal.args.len())) else {
        return ControlFlow::Continue(()); // unreachable after the pre-filter
    };
    qc_obs::count(qc_obs::Counter::HomBucketHits, 1);
    for target in cands {
        let mark = ctx.rewind.len();
        let ok = goal
            .args
            .iter()
            .zip(&target.args)
            .all(|(f, t)| extend_slots(&mut ctx.bind, &slots.ids, f, t, &mut ctx.rewind));
        // Forward check: every remaining goal must still have at least one
        // candidate compatible with the extended bindings, otherwise the
        // whole subtree is doomed — prune it without expanding a node.
        // A goal's viability only changes when one of its variables is
        // newly bound, so it suffices to re-check the goals this node's
        // additions touch (the pre-filter covers the static conditions);
        // this prunes exactly the same subtrees as re-checking everything.
        let viable = ok
            && goals[k + 1..].iter().enumerate().all(|(j, g)| {
                let added = &ctx.rewind[mark..];
                let affected = arg_vars[k + 1 + j]
                    .iter()
                    .any(|vs| vs.iter().any(|s| added.contains(s)));
                !affected
                    || buckets.get(&(g.pred, g.args.len())).is_some_and(|gcands| {
                        gcands.iter().any(|t| {
                            g.args
                                .iter()
                                .zip(&t.args)
                                .all(|(f, ta)| arg_compatible(&ctx.bind, &slots.ids, f, ta))
                        })
                    })
            });
        if viable {
            bucketed_search(ctx, k + 1)?;
        } else {
            qc_obs::count(qc_obs::Counter::HomCandidatesPruned, 1);
        }
        // Roll back this node's additions (the shared stack is back to
        // `mark + additions` after the recursive call returns).
        for i in mark..ctx.rewind.len() {
            ctx.bind[ctx.rewind[i] as usize] = None;
        }
        ctx.rewind.truncate(mark);
    }
    ControlFlow::Continue(())
}

/// The direct kernel: goals ordered by fewest same-predicate targets
/// (stable on ties, so textual order breaks them), every target subgoal
/// tried at every node. Candidate counts are computed once up front, and
/// bindings are trailed on one shared rewind stack (mark / drain) instead
/// of a fresh `Vec` per search node.
fn direct_mapping_search(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    visit: &mut impl FnMut(&Mapping) -> ControlFlow<()>,
) -> bool {
    let mut m = Mapping::new();
    let mut trail = Vec::new();
    for (f, t) in from.head.args.iter().zip(&to.head.args) {
        if !extend(&mut m, f, t, &mut trail) {
            return true;
        }
    }
    // Most-constrained-first: fewest same-predicate targets, counted once
    // per goal. Single-goal searches (the bulk of MiniCon's MCD checks)
    // skip both the counting pass and the sort — there is nothing to
    // order.
    let mut order: Vec<(usize, &Atom)> = if from.subgoals.len() <= 1 {
        from.subgoals.iter().map(|g| (0, g)).collect()
    } else {
        from.subgoals
            .iter()
            .map(|g| (to.subgoals.iter().filter(|t| t.pred == g.pred).count(), g))
            .collect()
    };
    if order.len() > 1 {
        order.sort_by_key(|&(count, _)| count);
    }
    trail.clear();
    direct_search(&order, 0, to, &mut m, &mut trail, visit).is_continue()
}

fn direct_search(
    goals: &[(usize, &Atom)],
    k: usize,
    to: &ConjunctiveQuery,
    m: &mut Mapping,
    trail: &mut Vec<Var>,
    visit: &mut impl FnMut(&Mapping) -> ControlFlow<()>,
) -> ControlFlow<()> {
    qc_guard::trip(qc_guard::stage::HOM_SEARCH, 1);
    qc_obs::count(qc_obs::Counter::HomSearchNodes, 1);
    if k == goals.len() {
        qc_obs::count(qc_obs::Counter::HomMappingsFound, 1);
        return visit(m);
    }
    let goal = goals[k].1;
    for target in &to.subgoals {
        if target.pred != goal.pred || target.args.len() != goal.args.len() {
            continue;
        }
        let mark = trail.len();
        let ok = goal
            .args
            .iter()
            .zip(&target.args)
            .all(|(f, t)| extend(m, f, t, trail));
        if ok {
            direct_search(goals, k + 1, to, m, trail, visit)?;
        } else {
            qc_obs::count(qc_obs::Counter::HomCandidatesPruned, 1);
        }
        for v in trail.drain(mark..) {
            m.remove(&v);
        }
    }
    ControlFlow::Continue(())
}

/// The first containment mapping from `from` onto `to`, if any.
pub fn containment_mapping(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Mapping> {
    let mut found = None;
    for_each_containment_mapping(from, to, |m| {
        found = Some(m.clone());
        ControlFlow::Break(())
    });
    found
}

/// All containment mappings (use for tests / small queries only).
pub fn all_containment_mappings(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Vec<Mapping> {
    let mut out = Vec::new();
    for_each_containment_mapping(from, to, |m| {
        out.push(m.clone());
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qc_datalog::parse_query;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn identity_mapping_exists() {
        let a = q("q(X) :- r(X, Y).");
        assert!(containment_mapping(&a, &a).is_some());
    }

    #[test]
    fn classic_chain_example() {
        // q2 has a stronger condition; mapping from q1 into q2 exists.
        let q1 = q("q(X, Y) :- e(X, Z), e(Z, Y).");
        let q2 = q("q(X, Y) :- e(X, Z), e(Z, W), e(W, Y), e(X, Y).");
        // Mapping q1 -> q2? needs e(X,?), e(?,Y): X->X, Z->... e(X,Z),e(Z,Y):
        // no 2-chain from X to Y other than via... e(X,Y) direct + ... no.
        assert!(containment_mapping(&q1, &q2).is_none());
        // But the 1-step q(X, Y) :- e(X, Y) maps into q2.
        let q3 = q("q(X, Y) :- e(X, Y).");
        assert!(containment_mapping(&q3, &q2).is_some());
    }

    #[test]
    fn head_must_be_preserved() {
        let from = q("q(X) :- r(X, Y).");
        let to = q("q(A) :- r(B, A).");
        // X must map to A; r(X, Y) needs a target r(A, _): only r(B, A),
        // which would force X -> B != A.
        assert!(containment_mapping(&from, &to).is_none());
        let to2 = q("q(A) :- r(A, B).");
        assert!(containment_mapping(&from, &to2).is_some());
    }

    #[test]
    fn constants_map_to_themselves() {
        let from = q("q(X) :- r(X, 10).");
        let to_match = q("q(A) :- r(A, 10).");
        let to_mismatch = q("q(A) :- r(A, 9).");
        let to_var = q("q(A) :- r(A, B).");
        assert!(containment_mapping(&from, &to_match).is_some());
        assert!(containment_mapping(&from, &to_mismatch).is_none());
        // A constant cannot map to a variable.
        assert!(containment_mapping(&from, &to_var).is_none());
        // But a variable can map to a constant.
        let from_var = q("q(A) :- r(A, B).");
        assert!(containment_mapping(&from_var, &to_match).is_some());
    }

    #[test]
    fn repeated_variables_constrain() {
        let from = q("q() :- r(X, X).");
        let to_diag = q("q() :- r(A, A).");
        let to_offdiag = q("q() :- r(A, B).");
        assert!(containment_mapping(&from, &to_diag).is_some());
        assert!(containment_mapping(&from, &to_offdiag).is_none());
        // Other direction: r(A, B) maps onto r(X, X) by A, B -> X.
        assert!(containment_mapping(&to_offdiag, &from).is_some());
    }

    #[test]
    fn arity_mismatch_no_mapping() {
        let from = q("q(X, Y) :- r(X, Y).");
        let to = q("q(X) :- r(X, X).");
        assert!(containment_mapping(&from, &to).is_none());
    }

    #[test]
    fn head_predicate_names_ignored() {
        let from = q("p1(X) :- r(X).");
        let to = q("q1(A) :- r(A).");
        assert!(containment_mapping(&from, &to).is_some());
    }

    #[test]
    fn all_mappings_counted() {
        let from = q("q() :- r(X).");
        let to = q("q() :- r(A), r(B), s(A).");
        // X can map to A or B.
        assert_eq!(all_containment_mappings(&from, &to).len(), 2);
    }

    #[test]
    fn function_terms_match_structurally() {
        let from = q("q(X) :- r(X, f(X)).");
        let to = q("q(A) :- r(A, f(A)).");
        let to_bad = q("q(A) :- r(A, g(A)).");
        assert!(containment_mapping(&from, &to).is_some());
        assert!(containment_mapping(&from, &to_bad).is_none());
        // Variable maps onto a whole function term.
        let from_var = q("q(X) :- r(X, Y).");
        assert!(containment_mapping(&from_var, &to).is_some());
    }

    #[test]
    fn zero_ary_heads() {
        let from = q("q() :- r(X, Y).");
        let to = q("q() :- r(A, B), s(A).");
        assert!(containment_mapping(&from, &to).is_some());
    }

    type Kernel = fn(
        &ConjunctiveQuery,
        &ConjunctiveQuery,
        &mut dyn FnMut(&Mapping) -> ControlFlow<()>,
    ) -> bool;

    /// Every mapping a kernel visits, each rendered as its sorted
    /// `var -> term` bindings; the list is sorted, so two kernels compare
    /// as multisets whatever order they search in.
    fn kernel_mappings(
        kernel: Kernel,
        from: &ConjunctiveQuery,
        to: &ConjunctiveQuery,
    ) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        kernel(from, to, &mut |m: &Mapping| {
            let mut b: Vec<String> = m.iter().map(|(v, t)| format!("{v} -> {t}")).collect();
            b.sort();
            out.push(b);
            ControlFlow::Continue(())
        });
        out.sort();
        out
    }

    fn direct(
        from: &ConjunctiveQuery,
        to: &ConjunctiveQuery,
        mut visit: &mut dyn FnMut(&Mapping) -> ControlFlow<()>,
    ) -> bool {
        direct_mapping_search(from, to, &mut visit)
    }

    fn bucketed(
        from: &ConjunctiveQuery,
        to: &ConjunctiveQuery,
        mut visit: &mut dyn FnMut(&Mapping) -> ControlFlow<()>,
    ) -> bool {
        bucketed_mapping_search(from, to, &mut visit)
    }

    /// `q(X0, Xn) :- e(X0, X1), ..., e(Xn-1, Xn).`
    fn chain(n: usize) -> ConjunctiveQuery {
        let body: Vec<String> = (0..n).map(|i| format!("e(X{i}, X{})", i + 1)).collect();
        q(&format!("q(X0, X{n}) :- {}.", body.join(", ")))
    }

    #[test]
    fn bucketed_and_direct_kernels_agree() {
        let pairs = [
            ("q(X) :- r(X, Y).", "q(A) :- r(A, B)."),
            (
                "q(X, Y) :- e(X, Z), e(Z, Y).",
                "q(X, Y) :- e(X, Z), e(Z, W), e(W, Y), e(X, Y).",
            ),
            ("q() :- r(X, X).", "q() :- r(A, B)."),
            ("q(X) :- r(X, 10).", "q(A) :- r(A, 9)."),
            ("q() :- r(X), s(X).", "q() :- r(A), r(B), s(A)."),
            ("q(X) :- r(X, f(X)).", "q(A) :- r(A, f(A))."),
            ("q(X) :- p(X), missing(X).", "q(A) :- p(A)."),
        ];
        for (f, t) in pairs {
            let (from, to) = (q(f), q(t));
            assert_eq!(
                kernel_mappings(bucketed, &from, &to),
                kernel_mappings(direct, &from, &to),
                "{f} -> {t}"
            );
        }
    }

    #[test]
    fn prefilter_rejects_before_search() {
        use std::sync::Arc;
        let rejects = |from: &str, to: &str| {
            let rec = Arc::new(qc_obs::PipelineRecorder::new());
            let (from, to) = (q(from), q(to));
            {
                let _g = qc_obs::install(rec.clone());
                assert_eq!(kernel_mappings(bucketed, &from, &to).len(), 0);
            }
            (
                rec.counters().get(qc_obs::Counter::HomPrefilterRejects),
                rec.counters().get(qc_obs::Counter::HomSearchNodes),
            )
        };
        // Missing predicate: rejected with zero search nodes.
        assert_eq!(rejects("q() :- r(X), absent(X).", "q() :- r(A)."), (1, 0));
        // Constant that occurs nowhere at that position: same.
        assert_eq!(
            rejects("q() :- r(X, 10).", "q() :- r(A, 9), r(B, B)."),
            (1, 0)
        );
    }

    #[test]
    fn kernel_routes_by_instance_size() {
        use std::sync::Arc;
        let tiers = |from: &ConjunctiveQuery, to: &ConjunctiveQuery| {
            let rec = Arc::new(qc_obs::PipelineRecorder::new());
            let found = {
                let _g = qc_obs::install(rec.clone());
                containment_mapping(from, to).is_some()
            };
            (
                found,
                rec.counters().get(qc_obs::Counter::EngineTierDirect),
                rec.counters().get(qc_obs::Counter::EngineTierOptimized),
            )
        };
        // 1 × 1 and 64 × 64 = DIRECT_MAX_PAIRS subgoal pairs: direct.
        assert_eq!(
            tiers(&q("q(X) :- e(X, Y)."), &q("q(A) :- e(A, B).")),
            (true, 1, 0)
        );
        assert_eq!(
            chain(64).subgoals.len() * chain(64).subgoals.len(),
            DIRECT_MAX_PAIRS
        );
        assert_eq!(tiers(&chain(64), &chain(64)), (true, 1, 0));
        // One atom more, 65 × 64 pairs: bucketed, in either direction.
        assert_eq!(tiers(&chain(65), &chain(64)), (false, 0, 1));
        assert_eq!(tiers(&chain(64), &chain(65)), (false, 0, 1));
        assert_eq!(tiers(&chain(65), &chain(65)), (true, 0, 1));
        // Each kernel agrees with the other on the routed instances.
        for (a, b) in [(64, 64), (65, 64), (64, 65), (65, 65)] {
            let (from, to) = (chain(a), chain(b));
            assert_eq!(
                kernel_mappings(bucketed, &from, &to),
                kernel_mappings(direct, &from, &to),
                "chain {a} -> chain {b}"
            );
        }
    }

    #[test]
    fn bucketed_search_explores_fewer_nodes() {
        use std::sync::Arc;
        // A wide target with many distractor predicates: bucketing skips
        // them, the direct kernel's linear scan walks them per node.
        let from = q("q(X) :- e(X, Y), e(Y, Z), lab(Z, red).");
        let to = q(
            "q(A) :- e(A, B), e(B, C), lab(C, red), d0(A), d1(A), d2(A), \
             d3(A), d4(A), e(C, A), e(B, A).",
        );
        let nodes = |kernel: Kernel| {
            let rec = Arc::new(qc_obs::PipelineRecorder::new());
            {
                let _g = qc_obs::install(rec.clone());
                assert!(!kernel_mappings(kernel, &from, &to).is_empty());
            }
            rec.counters().get(qc_obs::Counter::HomSearchNodes)
        };
        let (b, d) = (nodes(bucketed), nodes(direct));
        assert!(b <= d, "bucketed {b} > direct {d} search nodes");
    }

    /// A variable from `vars` (few, so they repeat) or one of the
    /// constants 0 and 1.
    fn random_term(rng: &mut StdRng, vars: &[&str]) -> Term {
        if rng.gen_bool(0.2) {
            Term::int(rng.gen_range(0..2))
        } else {
            Term::var(vars[rng.gen_range(0..vars.len())])
        }
    }

    /// `n` random atoms over the binary predicates `p0`–`p2`.
    fn random_atoms(rng: &mut StdRng, n: usize, vars: &[&str]) -> Vec<Atom> {
        (0..n)
            .map(|_| {
                let p = rng.gen_range(0..3);
                let args = vec![random_term(rng, vars), random_term(rng, vars)];
                Atom::new(format!("p{p}"), args)
            })
            .collect()
    }

    /// A random instance of 1–5 source atoms and 1–9 target atoms. Half of
    /// the targets contain the image of the source under a random
    /// substitution, shuffled among random atoms, so that many instances
    /// have mappings to enumerate; the other half are random.
    fn random_instance(rng: &mut StdRng) -> (ConjunctiveQuery, ConjunctiveQuery) {
        const TO_VARS: &[&str] = &["A", "B", "C", "D"];
        let n = rng.gen_range(1..=5);
        let subgoals = random_atoms(rng, n, &["X", "Y", "Z"]);
        let body_vars: Vec<Var> = subgoals.iter().flat_map(|a| a.vars()).collect();
        let head_args = match (rng.gen_bool(0.5), body_vars.is_empty()) {
            (true, false) => vec![Term::Var(body_vars[rng.gen_range(0..body_vars.len())])],
            _ => Vec::new(),
        };
        let from = ConjunctiveQuery::new(Atom::new("q", head_args), subgoals, Vec::new());
        let to = if rng.gen_bool(0.5) {
            let sub: Mapping = from
                .vars()
                .into_iter()
                .map(|v| (v, random_term(rng, TO_VARS)))
                .collect();
            let image = |a: &Atom| Atom {
                pred: a.pred,
                args: a.args.iter().map(|t| apply_mapping(&sub, t)).collect(),
            };
            let mut atoms: Vec<Atom> = from.subgoals.iter().map(image).collect();
            let noise = rng.gen_range(0..=9 - atoms.len());
            atoms.extend(random_atoms(rng, noise, TO_VARS));
            atoms.shuffle(rng);
            ConjunctiveQuery::new(image(&from.head), atoms, Vec::new())
        } else {
            let n = rng.gen_range(1..=9);
            let atoms = random_atoms(rng, n, TO_VARS);
            let head = from
                .head
                .args
                .iter()
                .map(|_| random_term(rng, TO_VARS))
                .collect();
            ConjunctiveQuery::new(Atom::new("q", head), atoms, Vec::new())
        };
        (from, to)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bucketed kernel is reached in production only above
        /// `DIRECT_MAX_PAIRS`; called directly here, it must enumerate
        /// exactly the direct kernel's mappings on small random instances
        /// with constants and repeated variables.
        #[test]
        fn bucketed_and_direct_kernels_find_the_same_mappings(seed in any::<u64>()) {
            let (from, to) = random_instance(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(
                kernel_mappings(bucketed, &from, &to),
                kernel_mappings(direct, &from, &to),
                "from: {} to: {}", from, to
            );
        }
    }
}
