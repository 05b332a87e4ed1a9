//! Relative containment — Definitions 2.4 and 4.5, Theorems 3.1–5.3.
//!
//! `Q1 ⊑_V Q2` iff for every source instance `I`, `certain(Q1, I) ⊆
//! certain(Q2, I)`. Every case reduces through the maximally-contained
//! plan `P1` of `Q1` and the equivalence `P1 ⊑ P2 ⟺ P1^exp ⊆ Q2`
//! (Theorem 4.1; Theorem 5.2; and, as the paper notes after Theorem 4.2,
//! the analogous statement for the plain case). [`decide`] is the one
//! function that picks the route, builds `P1` once and checks it:
//!
//! | case | `P1` construction | final check |
//! |------|-------------------|-------------|
//! | Q1 nonrecursive, comparison-free (views may carry arbitrary comparisons — Thm 3.1, 5.2/5.3) | inverse rules → fn-elim → unfold | per disjunct: `d^exp ⊆ Q2` via the dense-order UCQ test |
//! | Q1 nonrecursive, semi-interval; views semi-interval (Thm 5.1) | per disjunct of Q1: inverse rules → fn-elim → unfold over the comparison-stripped disjunct, then constraint completion ([`complete_semi_interval`]) | same |
//! | Q1 nonrecursive, Q2 recursive, all comparison-free (Thm 3.2) | inverse rules → fn-elim → unfold | per disjunct: `d^exp ⊆ Q2` by evaluating `Q2` over the frozen `d^exp` |
//! | Q1 recursive, all comparison-free, Q2 nonrecursive (Thm 3.2) | inverse rules → fn-elim (datalog) | `P1^exp ⊆ Q2` via the type fixpoint |
//! | binding patterns (§4, Thms 4.1/4.2) | executable plan (`dom` recursion) → fn-elim | `P1^exp ⊆ Q2` via the type fixpoint, then a bounded witness search on failure |
//!
//! The per-disjunct routes stop at the first refuted disjunct (the
//! witness), can resume from the disjuncts an interrupted run proved, and
//! report those as a sound partial plan when a guard limit trips. The
//! surfaces' adapters — [`relatively_contained`],
//! [`relatively_contained_witness`], [`explain_containment`] — are a few
//! lines over [`decide`]; [`relatively_contained_by_plans`] is the
//! independent Thm 3.1 reference the tests compare it with.
//!
//! Every entry point first runs the input gate
//! ([`crate::schema::check_input`]) over the queries and the views it
//! reads; a malformed input is [`RelativeError::Input`]. Cases the paper
//! leaves open (arbitrary comparisons in *both* queries, complete
//! sources) are reported as [`RelativeError::Unsupported`].

use std::fmt;

use qc_constraints::Constraint;
use qc_containment::canonical::ucq_contained_in_datalog;
use qc_containment::comparisons::{comparisons_to_constraints, NodeMap};
use qc_containment::datalog_ucq::{datalog_contained_in_ucq, DatalogUcqError, FixpointBudget};
use qc_containment::homomorphism::{all_containment_mappings, apply_mapping};
use qc_containment::witness::{find_counterexample_expansion, WitnessBudget};
use qc_containment::{cq_contained_in_ucq, cq_contained_memo, ucq_contained};
use qc_datalog::eval::{EvalError, EvalOptions};
use qc_datalog::{Comparison, ConjunctiveQuery, Program, Symbol, Term, Ucq, UnfoldError};

use crate::catalog::{setting_scope, CompiledCatalog, CompiledView};
use crate::expansion::{expand_cq, expand_program};
use crate::fn_elim::{eliminate_function_terms, FnElimError};
use crate::schema::{check_input, InputError, LavSetting, SourceDescription};

/// The views a plan draws on: those of a compiled catalog whose footprint
/// meets Q1's predicates, in catalog order ([`CompiledCatalog::scope`]),
/// with their cached inverse-rule blocks.
///
/// With source names disjoint from mediated predicates, the scope is
/// exact: every other view's inverse rules define predicates Q1's rules
/// never reach, and its name cannot appear in a plan disjunct. So every
/// surface decides a question from the same views, and the plan — disjunct
/// order included — is a function of views a `qc-serve` request
/// fingerprint covers, so a checkpoint's disjunct indices mean the same
/// thing across deltas to other views.
struct Planner<'a> {
    scope: Vec<&'a CompiledView>,
    views: LavSetting,
    /// The catalog was compiled for this decision from a plain setting,
    /// so the inverse rules a plan draws were generated for it
    /// (`inverse_rules_generated`); a standing catalog's blocks are
    /// cached.
    fresh: bool,
}

impl<'a> Planner<'a> {
    /// Plans `q1` from the views of `catalog` it reaches.
    fn new(catalog: &'a CompiledCatalog, q1: &Program, fresh: bool) -> Planner<'a> {
        Planner::of(catalog.scope(&[q1]), fresh)
    }

    /// Plans from every view of `catalog`: the binding-pattern route,
    /// whose `dom` rules draw constants from every source.
    fn whole(catalog: &'a CompiledCatalog, fresh: bool) -> Planner<'a> {
        Planner::of(catalog.entries().iter().map(|e| &**e).collect(), fresh)
    }

    fn of(scope: Vec<&'a CompiledView>, fresh: bool) -> Planner<'a> {
        let views = LavSetting {
            sources: scope.iter().map(|e| e.source.clone()).collect(),
        };
        Planner {
            scope,
            views,
            fresh,
        }
    }

    /// The views a plan can mention: source lookups and route checks read
    /// these.
    fn views(&self) -> &LavSetting {
        &self.views
    }

    /// The query's rules plus the inverse rules of the planned views.
    fn inverse_plan(&self, query: &Program) -> Program {
        let mut plan = query.clone();
        let mut drawn = 0u64;
        for rule in self.scope.iter().flat_map(|e| &e.inverse) {
            plan.push(rule.clone());
            drawn += 1;
        }
        if self.fresh {
            qc_obs::count(qc_obs::Counter::InverseRulesGenerated, drawn);
        }
        plan
    }
}

/// Errors from the relative-containment procedures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelativeError {
    /// The input is not well formed ([`check_input`]).
    Input(InputError),
    /// The query/view class falls outside the paper's decidable cases
    /// (e.g. arbitrary comparisons in the contained query, or two
    /// recursive queries).
    Unsupported(String),
    /// Unfolding a nonrecursive program failed.
    Unfold(UnfoldError),
    /// The type-fixpoint procedure failed.
    DatalogUcq(DatalogUcqError),
    /// Function-term elimination failed.
    FnElim(FnElimError),
    /// Plan evaluation failed (freeze-and-evaluate route).
    Eval(EvalError),
    /// An installed [`qc_guard::Guard`] limit tripped in a stage with no
    /// fallible plumbing of its own (homomorphism search, memo,
    /// enumeration) and unwound to the enclosing `qc_guard::guarded`
    /// boundary.
    Resource(qc_guard::ResourceError),
    /// Definition 4.5's precondition fails: the constants of `Q1 ∪ V`
    /// must be a subset of those of `Q2 ∪ V`.
    ConstantsPrecondition,
}

impl fmt::Display for RelativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelativeError::Input(e) => write!(f, "{e}"),
            RelativeError::Unsupported(s) => write!(f, "unsupported case: {s}"),
            RelativeError::Unfold(e) => write!(f, "unfold: {e}"),
            RelativeError::DatalogUcq(e) => write!(f, "datalog/UCQ containment: {e}"),
            RelativeError::FnElim(e) => write!(f, "function-term elimination: {e}"),
            RelativeError::Eval(e) => write!(f, "evaluation: {e}"),
            RelativeError::Resource(e) => write!(f, "{e}"),
            RelativeError::ConstantsPrecondition => write!(
                f,
                "Definition 4.5 precondition: constants of Q1 ∪ V must be among those of Q2 ∪ V"
            ),
        }
    }
}

impl std::error::Error for RelativeError {}

impl From<InputError> for RelativeError {
    fn from(e: InputError) -> Self {
        RelativeError::Input(e)
    }
}
impl From<UnfoldError> for RelativeError {
    fn from(e: UnfoldError) -> Self {
        RelativeError::Unfold(e)
    }
}
impl From<DatalogUcqError> for RelativeError {
    fn from(e: DatalogUcqError) -> Self {
        RelativeError::DatalogUcq(e)
    }
}
impl From<FnElimError> for RelativeError {
    fn from(e: FnElimError) -> Self {
        RelativeError::FnElim(e)
    }
}
impl From<EvalError> for RelativeError {
    fn from(e: EvalError) -> Self {
        RelativeError::Eval(e)
    }
}
impl From<qc_guard::ResourceError> for RelativeError {
    fn from(e: qc_guard::ResourceError) -> Self {
        RelativeError::Resource(e)
    }
}

impl RelativeError {
    /// The underlying [`qc_guard::ResourceError`] when this error is a
    /// resource exhaustion (directly, or wrapped by a stage error), `None`
    /// for genuine input/class errors. This is the split the anytime
    /// verdict uses: resource errors become [`Verdict::Unknown`], anything
    /// else stays an error.
    pub fn resource(&self) -> Option<&qc_guard::ResourceError> {
        match self {
            RelativeError::Resource(e) => Some(e),
            RelativeError::DatalogUcq(DatalogUcqError::Resource(e)) => Some(e),
            RelativeError::FnElim(FnElimError::Resource(e)) => Some(e),
            RelativeError::Eval(EvalError::Resource(e)) => Some(e),
            RelativeError::Unfold(UnfoldError::Resource(e)) => Some(e),
            _ => None,
        }
    }
}

/// Runs a fallible relative-containment step under a
/// [`qc_guard::guarded`] boundary, folding guard trips from
/// non-fallible stages into [`RelativeError::Resource`].
fn run_guarded<T>(f: impl FnOnce() -> Result<T, RelativeError>) -> Result<T, RelativeError> {
    match qc_guard::guarded(f) {
        Ok(r) => r,
        Err(e) => Err(RelativeError::Resource(e)),
    }
}

fn ucq_is_semi_interval(u: &Ucq) -> bool {
    u.disjuncts.iter().all(|d| d.is_semi_interval())
}

/// Prepares a datalog plan for expansion-based containment checks:
///
/// 1. drops rules whose body mentions a predicate that is neither an IDB
///    of the plan nor a source relation (a mediated atom no source
///    covers — such rules can never fire over a source instance);
/// 2. renames every IDB predicate with a `plan__` prefix so that, after
///    expansion, the plan's internal relations cannot collide with the
///    mediated-schema EDB relations the view bodies introduce (e.g. the
///    inverse rule `edge(X,Y) :- V(X,Y)` would otherwise expand to the
///    vacuous `edge(X,Y) :- edge(X,Y)`).
///
/// Returns the prepared plan and the renamed answer predicate.
fn sanitize_datalog_plan(plan: &Program, views: &LavSetting, answer: &Symbol) -> (Program, Symbol) {
    let idb = plan.idb_preds();
    let keep: Vec<_> = plan
        .rules()
        .iter()
        .filter(|r| {
            r.body_atoms()
                .all(|a| idb.contains(&a.pred) || views.source(a.pred).is_some())
        })
        .cloned()
        .collect();
    let rename = |p: &Symbol| -> Symbol { Symbol::new(format!("plan__{p}")) };
    let renamed: Vec<_> = keep
        .into_iter()
        .map(|mut r| {
            r.head.pred = rename(&r.head.pred);
            for lit in &mut r.body {
                if let qc_datalog::Literal::Atom(a) = lit {
                    if idb.contains(&a.pred) {
                        a.pred = rename(&a.pred);
                    }
                }
            }
            r
        })
        .collect();
    (Program::new(renamed), rename(answer))
}

/// Builds the maximally-contained plan of a *nonrecursive* query as a UCQ
/// over the source relations, from the views whose footprint meets the
/// query's predicates.
pub fn max_contained_ucq_plan(
    query: &Program,
    answer: &Symbol,
    views: &LavSetting,
) -> Result<Ucq, RelativeError> {
    let catalog = CompiledCatalog::compile(views);
    let planner = Planner::new(&catalog, query, true);
    check_input(&[(query, answer)], &planner.views().sources, None)?;
    max_contained_ucq_plan_with(query, answer, &planner)
}

/// [`max_contained_ucq_plan`] drawing inverse rules from a compiled
/// catalog's cached per-view blocks, for only the views whose footprint
/// meets the query's predicates. Equivalent to the plan over the whole
/// catalog without re-inverting any view; its disjuncts and their order
/// do not change when views over other predicates come or go.
pub fn max_contained_ucq_plan_catalog(
    query: &Program,
    answer: &Symbol,
    catalog: &CompiledCatalog,
) -> Result<Ucq, RelativeError> {
    let planner = Planner::new(catalog, query, false);
    check_input(&[(query, answer)], &planner.views().sources, None)?;
    max_contained_ucq_plan_with(query, answer, &planner)
}

fn max_contained_ucq_plan_with(
    query: &Program,
    answer: &Symbol,
    planner: &Planner<'_>,
) -> Result<Ucq, RelativeError> {
    let _span = qc_obs::span("plan_construction");
    let plan = max_contained_ucq_plan_inner(query, answer, planner)?;
    qc_obs::count(qc_obs::Counter::PlanDisjuncts, plan.disjuncts.len() as u64);
    Ok(plan)
}

fn max_contained_ucq_plan_inner(
    query: &Program,
    answer: &Symbol,
    planner: &Planner<'_>,
) -> Result<Ucq, RelativeError> {
    let unfolded = query.unfold(answer)?;
    let mut plan = Ucq::empty(unfolded.pred.as_str(), unfolded.arity);
    if unfolded.is_comparison_free() {
        plan.disjuncts = skeletons(query, answer, planner)?;
        // Drop subsumed disjuncts. Equivalence is preserved.
        Ok(qc_containment::minimize_union(&plan))
    } else if ucq_is_semi_interval(&unfolded) && planner.views().is_semi_interval() {
        // Theorem 5.1's construction, per disjunct.
        for d in &unfolded.disjuncts {
            plan.disjuncts
                .extend(semi_interval_plan_with(d, planner)?.disjuncts);
        }
        Ok(plan)
    } else {
        Err(RelativeError::Unsupported(
            "maximally-contained plans require a comparison-free or semi-interval contained query \
             (arbitrary comparisons in Q1 are an open problem, §6)"
                .into(),
        ))
    }
}

/// The relational skeletons of a comparison-free query's plan: inverse
/// rules → fn-elim → unfold (Example 2 → Example 3), keeping the disjuncts
/// over source relations only, each minimized. The union is not
/// minimized: a skeleton that another subsumes can still be the only one
/// a semi-interval constraint completes (see [`complete_semi_interval`]).
fn skeletons(
    query: &Program,
    answer: &Symbol,
    planner: &Planner<'_>,
) -> Result<Vec<ConjunctiveQuery>, RelativeError> {
    let plan = eliminate_function_terms(&planner.inverse_plan(query))?;
    let mut ucq = match plan.unfold(answer) {
        Ok(u) => u,
        // Function-term elimination can prove the plan derives no
        // function-free answers at all (every specialization of the
        // answer rule dies): the plan is the empty union.
        Err(UnfoldError::UndefinedAnswer(_)) => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    // A query plan may only mention source relations: disjuncts that kept
    // a mediated-schema atom (no source covers it) can never produce
    // answers over a source instance.
    let views = planner.views();
    ucq.disjuncts
        .retain(|d| d.subgoals.iter().all(|a| views.source(a.pred).is_some()));
    // Unfolding a multi-subgoal view produces one inverted atom per
    // subgoal, which often collapses.
    for d in &mut ucq.disjuncts {
        *d = qc_containment::minimize(d);
    }
    Ok(ucq.disjuncts)
}

/// Maximally-contained plan of one conjunctive query with semi-interval
/// comparisons over semi-interval views (Theorem 5.1): the skeletons of
/// the comparison-stripped query, each completed by
/// [`complete_semi_interval`].
pub fn semi_interval_plan(
    query: &ConjunctiveQuery,
    views: &LavSetting,
) -> Result<Ucq, RelativeError> {
    let catalog = CompiledCatalog::compile(views);
    let q = Program::new(vec![query.to_rule()]);
    let planner = Planner::new(&catalog, &q, true);
    check_input(&[(&q, &query.head.pred)], &planner.views().sources, None)?;
    semi_interval_plan_with(query, &planner)
}

fn semi_interval_plan_with(
    query: &ConjunctiveQuery,
    planner: &Planner<'_>,
) -> Result<Ucq, RelativeError> {
    let stripped = ConjunctiveQuery::new(query.head.clone(), query.subgoals.clone(), Vec::new());
    let skeletons = skeletons(
        &Program::new(vec![stripped.to_rule()]),
        &query.head.pred,
        planner,
    )?;
    Ok(complete_semi_interval(query, planner.views(), &skeletons))
}

/// Completes relational skeletons into Theorem 5.1's plan for `query`:
/// "once the non-comparison subgoals are chosen, it is straightforward to
/// pick the appropriate semi-interval constraints". Per skeleton, the
/// query's comparisons are pulled back through each containment mapping
/// from the stripped query into the skeleton's expansion, and the
/// completed candidate is kept when its expansion is satisfiable and
/// passes the full dense-order test against `query`. The completed plan
/// is union-minimized; the skeletons must not be, since a subsumed
/// skeleton can complete where the one subsuming it cannot.
pub fn complete_semi_interval(
    query: &ConjunctiveQuery,
    views: &LavSetting,
    skeletons: &[ConjunctiveQuery],
) -> Ucq {
    let stripped_query =
        ConjunctiveQuery::new(query.head.clone(), query.subgoals.clone(), Vec::new());
    let mut disjuncts: Vec<ConjunctiveQuery> = Vec::new();
    for skel in skeletons {
        let Some(exp) = expand_cq(skel, views) else {
            continue;
        };
        // Constraints the expansion already entails (because a view
        // guarantees them, like AntiqueCars' `Year < 1970`) are omitted:
        // that is what makes the plan *maximal* and reproduces the paper's
        // P3 exactly.
        let stripped_exp =
            ConjunctiveQuery::new(exp.head.clone(), exp.subgoals.clone(), Vec::new());
        let mut nodemap = NodeMap::new();
        let exp_constraints = comparisons_to_constraints(&exp.comparisons, &mut nodemap);
        for m in all_containment_mappings(&stripped_query, &stripped_exp) {
            let mut extra: Vec<Comparison> = Vec::new();
            for c in &query.comparisons {
                let img =
                    Comparison::new(apply_mapping(&m, &c.lhs), c.op, apply_mapping(&m, &c.rhs));
                let lhs_node = nodemap.node(&img.lhs);
                let rhs_node = nodemap.node(&img.rhs);
                if exp_constraints.entails(Constraint::new(lhs_node, img.op, rhs_node)) {
                    continue;
                }
                // Visible at plan level?
                let visible = |t: &Term| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => skel.vars().contains(v),
                    Term::App(..) => false,
                };
                if visible(&img.lhs) && visible(&img.rhs) {
                    extra.push(img);
                }
                // Otherwise the constraint involves a view existential and
                // must be guaranteed by the view's own comparisons — the
                // full containment check below verifies that, dropping the
                // candidate when it is not.
            }
            extra.sort();
            extra.dedup();
            let mut candidate = skel.clone();
            candidate.comparisons = extra;
            if let Some(cexp) = expand_cq(&candidate, views) {
                // Drop candidates whose expansion constraints are
                // unsatisfiable (e.g. a 1960s-window view combined with a
                // pre-1950 query constraint): sound but forever empty.
                let cset = comparisons_to_constraints(&cexp.comparisons, &mut NodeMap::new());
                if !cset.is_satisfiable() {
                    continue;
                }
                if cq_contained_memo(&cexp, query) && !disjuncts.contains(&candidate) {
                    disjuncts.push(candidate);
                }
            }
        }
    }
    // Drop disjuncts subsumed by another (keeps the plan in the paper's
    // minimal form, e.g. Example 4's P3).
    if disjuncts.is_empty() {
        Ucq::empty(query.head.pred.as_str(), query.head.arity())
    } else {
        qc_containment::minimize_union(
            &Ucq::new(disjuncts).expect("disjuncts share the query head"),
        )
    }
}

/// Where a decision's views come from. Either way the plan draws the
/// inverse rules of the views whose footprint meets Q1's predicates, and
/// every route check reads only those views, so the decision is a function
/// of what a `qc-serve` request fingerprint hashes. The binding-pattern
/// route is the exception: its `dom` rules draw constants from every
/// source, so it plans from all of them.
#[derive(Debug, Clone, Copy)]
pub enum Sources<'a> {
    /// A plain setting, compiled ([`CompiledCatalog::compile`]) per
    /// decision.
    Views(&'a LavSetting),
    /// A compiled catalog, whose cached inverse rules are reused.
    Catalog(&'a CompiledCatalog),
}

impl<'a> Sources<'a> {
    /// The views a decision of `q` reads: on the binding-pattern route,
    /// whose `dom` rules draw on every source, all of them; otherwise
    /// those whose footprint meets Q1's or Q2's predicates, the views a
    /// `qc-serve` request fingerprint covers.
    fn read_by(self, q: &Question<'_>) -> Vec<&'a SourceDescription> {
        let queries = [q.q1, q.q2];
        match self {
            Sources::Views(v) if q.binding_patterns => v.sources.iter().collect(),
            Sources::Views(v) => setting_scope(v, &queries),
            Sources::Catalog(c) if q.binding_patterns => {
                c.entries().iter().map(|e| &e.source).collect()
            }
            Sources::Catalog(c) => c.scope(&queries).into_iter().map(|e| &e.source).collect(),
        }
    }
}

/// A relative-containment question: `Q1 ⊑_V Q2` (Definition 2.4), or
/// `Q1 ⊑_{V,B} Q2` (Definition 4.5) with binding patterns.
#[derive(Debug, Clone, Copy)]
pub struct Question<'a> {
    /// The contained query.
    pub q1: &'a Program,
    /// Q1's answer predicate.
    pub ans1: Symbol,
    /// The containing query.
    pub q2: &'a Program,
    /// Q2's answer predicate, of Q1's arity.
    pub ans2: Symbol,
    /// Decide under the sources' [`crate::schema::Adornment`]s (absent
    /// adornments mean all-free).
    pub binding_patterns: bool,
    /// Progress an earlier, interrupted decision of the same question
    /// made.
    pub resume: Option<Resume<'a>>,
}

impl<'a> Question<'a> {
    /// The plain question `Q1 ⊑_V Q2`: no binding patterns, no resume
    /// state.
    pub fn new(q1: &'a Program, ans1: &Symbol, q2: &'a Program, ans2: &Symbol) -> Question<'a> {
        Question {
            q1,
            ans1: *ans1,
            q2,
            ans2: *ans2,
            binding_patterns: false,
            resume: None,
        }
    }
}

/// A checkpoint to resume from: what an earlier run's [`Partial`]
/// recorded.
#[derive(Debug, Clone, Copy)]
pub struct Resume<'a> {
    /// Plan disjuncts already proven contained
    /// ([`Partial::disjuncts_proven`]).
    pub proven: &'a [usize],
    /// The plan size those indices were cut against
    /// ([`Partial::disjuncts_total`]).
    pub disjuncts_total: usize,
}

/// What was proven before a resource limit cut a decision short.
///
/// Everything here is an **under-approximation** — sound partial progress,
/// never a guess. `partial_plan` is a union of disjuncts of `Q1`'s
/// maximally-contained plan whose expansions were each *proven* contained
/// in `Q2`; any subset of a maximally-contained plan is itself a contained
/// (just possibly not maximal) plan, so the partial plan is always safe to
/// execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partial {
    /// The limit that stopped the decision (stage, kind, consumed/limit).
    pub resource: qc_guard::ResourceError,
    /// Indices (into the maximally-contained plan's disjunct list) of the
    /// disjuncts proven contained before the limit hit, in ascending
    /// order. The list is deterministic for a fixed input. On a compiled
    /// catalog that input is Q1 plus the views whose footprint meets Q1's
    /// predicates, all of which a `qc-serve` request fingerprint hashes.
    /// Recording the *indices* rather than a count is what makes a
    /// `Partial` a well-defined checkpoint: a retry can skip exactly these
    /// disjuncts (see [`Question::resume`]).
    pub disjuncts_proven: Vec<usize>,
    /// Total plan disjuncts (0 when the plan itself was never built).
    pub disjuncts_total: usize,
    /// The proven-contained part of the maximally-contained plan, when
    /// any disjunct got that far.
    pub partial_plan: Option<Ucq>,
}

impl Partial {
    /// How many plan disjuncts were proven contained.
    pub fn disjuncts_contained(&self) -> usize {
        self.disjuncts_proven.len()
    }
}

/// An anytime relative-containment answer: definite whenever the
/// procedure ran to completion, [`Verdict::Unknown`] — with the sound
/// partial progress — when a [`qc_guard::Guard`] limit cut it short.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `Q1 ⊑_V Q2` proven.
    Contained,
    /// A counterexample disjunct was found: `Q1 ⋢_V Q2`, definitely.
    NotContained,
    /// A resource limit stopped the decision; the payload says how far it
    /// got.
    Unknown(Partial),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Contained => write!(f, "contained"),
            Verdict::NotContained => write!(f, "not contained"),
            Verdict::Unknown(p) => {
                write!(f, "unknown — {}", p.resource)?;
                if p.disjuncts_total > 0 {
                    write!(
                        f,
                        " ({} of {} plan disjuncts proven contained)",
                        p.disjuncts_contained(),
                        p.disjuncts_total
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// How a question's resume state fared against the rebuilt plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeState {
    /// Nothing was resumed: no checkpoint, or one with nothing proven.
    Fresh,
    /// The checkpoint was applied; `skipped` disjuncts were taken as
    /// already proven.
    Applied {
        /// Disjunct checks skipped thanks to the checkpoint.
        skipped: usize,
    },
    /// The checkpoint claimed a plan shape the rebuilt plan contradicts
    /// (`expected` vs `actual` disjuncts); its proven set was discarded
    /// and the run recomputed from scratch.
    Rejected {
        /// `disjuncts_total` the checkpoint was cut against.
        expected: usize,
        /// Disjunct count of the plan rebuilt for this run.
        actual: usize,
    },
    /// The route is recursive or binding-pattern: the decision is one
    /// fixpoint, so per-disjunct checkpoints do not apply.
    Monolithic,
}

/// A witness explaining why `Q1 ⋢_V Q2`: a conjunctive query plan over
/// the sources that is sound for `Q1` but whose expansion is not
/// contained in `Q2` — i.e. a concrete way to retrieve certain answers of
/// `Q1` that `Q2` cannot guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonContainmentWitness {
    /// The offending conjunctive plan (a disjunct of `Q1`'s
    /// maximally-contained plan).
    pub plan: ConjunctiveQuery,
    /// Its expansion over the mediated schema.
    pub expansion: ConjunctiveQuery,
}

impl fmt::Display for NonContainmentWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "witness plan:      {}", self.plan.tidy_names().to_rule())?;
        write!(
            f,
            "expands to:        {}  (not contained in the second query)",
            self.expansion.tidy_names().to_rule()
        )
    }
}

/// Why a [`Decision`] is [`Verdict::NotContained`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Witness {
    /// The refuted disjunct of the maximally-contained plan, with its
    /// expansion (nonrecursive `Q1`).
    Disjunct(NonContainmentWitness),
    /// An expansion of the executable plan, over the mediated schema, that
    /// escapes `Q2`: a concrete proof tree found by the bounded search of
    /// [`qc_containment::witness`] (binding-pattern route).
    Expansion(ConjunctiveQuery),
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::Disjunct(w) => w.fmt(f),
            Witness::Expansion(e) => write!(
                f,
                "witness expansion: {}  (not contained in the second query)",
                e.tidy_names().to_rule()
            ),
        }
    }
}

/// What [`decide`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The anytime verdict.
    pub verdict: Verdict,
    /// How the question's resume state fared.
    pub resume: ResumeState,
    /// On [`Verdict::NotContained`], the refutation, when one was found:
    /// always on the per-disjunct routes; on the binding-pattern route
    /// only if the bounded search finds one before its budget, or a guard
    /// limit, runs out. The other routes give none.
    pub witness: Option<Witness>,
}

impl Decision {
    /// The definite answer. An [`Verdict::Unknown`] becomes the
    /// [`RelativeError::Resource`] that stopped it.
    pub fn holds(&self) -> Result<bool, RelativeError> {
        match &self.verdict {
            Verdict::Contained => Ok(true),
            Verdict::NotContained => Ok(false),
            Verdict::Unknown(p) => Err(RelativeError::Resource(p.resource.clone())),
        }
    }
}

/// Decides a [`Question`]: the one decision procedure behind every
/// surface. It builds Q1's maximally-contained plan `P1` once and checks
/// `P1^exp ⊆ Q2`, on the route the module docs' case table gives for the
/// question's class.
///
/// First it runs the input gate over Q1, Q2 and the views the decision
/// reads: a malformed question is [`RelativeError::Input`] on every
/// surface, before any route is picked.
///
/// The decision runs under the installed [`qc_guard::Guard`], if any. A
/// limit that trips becomes [`Verdict::Unknown`] carrying the sound
/// partial progress; input and class errors stay `Err`.
///
/// For a nonrecursive `Q1` the plan's disjuncts are expanded and checked
/// one at a time, in the plan's deterministic order, and the first refuted
/// one is the witness. A [`Question::resume`] state skips the disjuncts it
/// lists as proven; indices out of range are ignored. If its plan size
/// disagrees with the rebuilt plan it was cut against other inputs, so it
/// is discarded and everything is rechecked ([`ResumeState::Rejected`]).
/// A recursive `Q1` and the binding-pattern route decide through one type
/// fixpoint and ignore resume state ([`ResumeState::Monolithic`]).
pub fn decide(question: &Question<'_>, sources: Sources<'_>) -> Result<Decision, RelativeError> {
    let _span = qc_obs::span("relative_containment");
    gate(question, sources)?;
    decide_in(question, sources)
}

/// The input gate of a decision ([`check_input`]): Q1, Q2 and the views
/// the decision reads ([`Sources::read_by`]). It needs no compiled
/// catalog, so a malformed question, and a classically contained one in
/// [`explain`], never pays for one.
fn gate(q: &Question<'_>, sources: Sources<'_>) -> Result<(), RelativeError> {
    let queries = [(q.q1, &q.ans1), (q.q2, &q.ans2)];
    Ok(check_input(&queries, sources.read_by(q), None)?)
}

/// [`decide`] on a gated question.
fn decide_in(question: &Question<'_>, sources: Sources<'_>) -> Result<Decision, RelativeError> {
    let (q1, q2) = (question.q1, question.q2);
    let q1_recursive = q1
        .dependency_graph()
        .pred_in_cycle_reachable_from(&question.ans1);
    let q2_recursive = q2
        .dependency_graph()
        .pred_in_cycle_reachable_from(&question.ans2);
    if q1_recursive && q2_recursive && !question.binding_patterns {
        return Err(RelativeError::Unsupported(
            "relative containment with two recursive queries reduces to containment of two \
             recursive datalog programs, which is undecidable [36]"
                .into(),
        ));
    }
    let compiled;
    let (catalog, fresh) = match sources {
        Sources::Views(v) => {
            compiled = CompiledCatalog::compile(v);
            (&compiled, true)
        }
        Sources::Catalog(c) => (c, false),
    };
    let planner = if question.binding_patterns {
        Planner::whole(catalog, fresh)
    } else {
        Planner::new(catalog, q1, fresh)
    };
    let datalog = question.binding_patterns || q1_recursive;
    if (datalog || q2_recursive)
        && (q1.has_comparisons() || q2.has_comparisons() || !planner.views().is_comparison_free())
    {
        let route = if question.binding_patterns {
            "binding-pattern"
        } else {
            "recursive"
        };
        return Err(RelativeError::Unsupported(format!(
            "{route} relative containment requires comparison-free queries and views"
        )));
    }
    if datalog {
        run_guarded(|| decide_datalog(question, &planner, q2_recursive))
            .or_else(|e| stopped(e, ResumeState::Monolithic))
    } else {
        decide_disjuncts(question, &planner, q2_recursive)
    }
}

/// A decision a guard limit stopped before any disjunct was proven; other
/// errors pass through.
fn stopped(e: RelativeError, resume: ResumeState) -> Result<Decision, RelativeError> {
    let resource = e.resource().cloned().ok_or(e)?;
    let partial = Partial {
        resource,
        disjuncts_proven: Vec::new(),
        disjuncts_total: 0,
        partial_plan: None,
    };
    Ok(Decision {
        verdict: Verdict::Unknown(partial),
        resume,
        witness: None,
    })
}

/// The nonrecursive-`Q1` routes (Thms 3.1, 3.2, 5.1, 5.2): each disjunct
/// of `P1` is expanded and checked against `Q2`'s unfolding, or, when `Q2`
/// is recursive, by evaluating `Q2` over the expansion's canonical
/// database.
fn decide_disjuncts(
    q: &Question<'_>,
    planner: &Planner<'_>,
    q2_recursive: bool,
) -> Result<Decision, RelativeError> {
    let views = planner.views();
    let built = run_guarded(|| {
        let u2 = (!q2_recursive).then(|| q.q2.unfold(&q.ans2)).transpose()?;
        Ok((u2, max_contained_ucq_plan_with(q.q1, &q.ans1, planner)?))
    });
    let (u2, p1) = match built {
        Ok(b) => b,
        // The plan never got built, so checkpoint validity is unknowable
        // this run; report Fresh (nothing was skipped).
        Err(e) => return stopped(e, ResumeState::Fresh),
    };
    let total = p1.disjuncts.len();
    let (skip, resume) = match q.resume {
        Some(r) if r.disjuncts_total != total => (
            &[][..],
            ResumeState::Rejected {
                expected: r.disjuncts_total,
                actual: total,
            },
        ),
        Some(r) if !r.proven.is_empty() => (
            r.proven,
            ResumeState::Applied {
                skipped: r.proven.iter().filter(|&&i| i < total).count(),
            },
        ),
        _ => (&[][..], ResumeState::Fresh),
    };
    let mut proven: Vec<usize> = Vec::new();
    let (verdict, witness) = 'check: {
        for (ix, d) in p1.disjuncts.iter().enumerate() {
            if !skip.contains(&ix) {
                let exp = {
                    let _s = qc_obs::span("expansion");
                    expand_cq(d, views)
                }
                .ok_or_else(|| {
                    RelativeError::Unsupported("plan disjunct does not expand".into())
                })?;
                let _s = qc_obs::span("containment_check");
                let contained = run_guarded(|| match &u2 {
                    Some(u2) => Ok(cq_contained_in_ucq(&exp, u2)),
                    None => Ok(ucq_contained_in_datalog(
                        &Ucq::single(exp.clone()),
                        q.q2,
                        &q.ans2,
                        &EvalOptions::default(),
                    )?),
                });
                match contained {
                    // Fresh proof work (checkpoint-skipped disjuncts are not
                    // counted): the churn suite's measure that a one-view
                    // delta re-proves only affected disjuncts.
                    Ok(true) => qc_obs::count(qc_obs::Counter::PlanDisjunctsProved, 1),
                    Ok(false) => {
                        let plan = d.clone();
                        let w = NonContainmentWitness {
                            plan,
                            expansion: exp,
                        };
                        break 'check (Verdict::NotContained, Some(Witness::Disjunct(w)));
                    }
                    Err(e) => {
                        let resource = e.resource().cloned().ok_or(e)?;
                        let partial_plan = (!proven.is_empty()).then(|| {
                            Ucq::new(proven.iter().map(|&i| p1.disjuncts[i].clone()).collect())
                                .expect("disjuncts share the query head")
                        });
                        let partial = Partial {
                            resource,
                            disjuncts_proven: proven,
                            disjuncts_total: total,
                            partial_plan,
                        };
                        break 'check (Verdict::Unknown(partial), None);
                    }
                }
            }
            proven.push(ix);
        }
        (Verdict::Contained, None)
    };
    Ok(Decision {
        verdict,
        resume,
        witness,
    })
}

/// The datalog routes: a recursive `Q1` (Thm 3.2) and binding patterns
/// (Thms 4.1/4.2). `P1` is recursive — `Q1` with the views' inverse rules,
/// or the executable plan with its `dom` rules — and `P1^exp ⊆ Q2` is
/// decided by the type fixpoint.
fn decide_datalog(
    q: &Question<'_>,
    planner: &Planner<'_>,
    q2_recursive: bool,
) -> Result<Decision, RelativeError> {
    let views = planner.views();
    if q.binding_patterns {
        if q2_recursive {
            return Err(RelativeError::Unsupported(
                "Theorem 4.2 requires the containing query to be nonrecursive".into(),
            ));
        }
        // Definition 4.5 precondition.
        let mut lhs_consts = q.q1.consts();
        lhs_consts.extend(views.consts());
        let mut rhs_consts = q.q2.consts();
        rhs_consts.extend(views.consts());
        if !lhs_consts.is_subset(&rhs_consts) {
            return Err(RelativeError::ConstantsPrecondition);
        }
    }
    let (p1, ans1) = {
        let _s = qc_obs::span("plan_construction");
        let plan = if q.binding_patterns {
            crate::binding::executable_plan(q.q1, views)
        } else {
            planner.inverse_plan(q.q1)
        };
        sanitize_datalog_plan(&eliminate_function_terms(&plan)?, views, &q.ans1)
    };
    let p1_exp = {
        let _s = qc_obs::span("expansion");
        expand_program(&p1, views)
    };
    let u2 = q.q2.unfold(&q.ans2)?;
    let contained = {
        let _s = qc_obs::span("containment_check");
        datalog_contained_in_ucq(&p1_exp, &ans1, &u2, &FixpointBudget::default())?
    };
    // The search is a semi-decision: running out of budget, or tripping a
    // guard limit, leaves the verdict standing without a witness.
    let witness = (!contained && q.binding_patterns)
        .then(|| {
            qc_guard::guarded(|| {
                find_counterexample_expansion(&p1_exp, &ans1, &u2, &WitnessBudget::default())
            })
        })
        .and_then(Result::ok)
        .flatten()
        .map(|mut e| {
            e.head.pred = q.ans1; // undo the plan's `plan__` renaming
            Witness::Expansion(e)
        });
    Ok(Decision {
        verdict: if contained {
            Verdict::Contained
        } else {
            Verdict::NotContained
        },
        resume: ResumeState::Monolithic,
        witness,
    })
}

/// Decides relative containment `Q1 ⊑_V Q2` (Definition 2.4): [`decide`]
/// on a plain question over `views`.
pub fn relatively_contained(
    q1: &Program,
    ans1: &Symbol,
    q2: &Program,
    ans2: &Symbol,
    views: &LavSetting,
) -> Result<bool, RelativeError> {
    decide(&Question::new(q1, ans1, q2, ans2), Sources::Views(views))?.holds()
}

/// Like [`relatively_contained`] for nonrecursive queries, but on failure
/// returns the witness plan disjunct — the paper's §1 use case of
/// "familiarizing a user with the coverage and limitations" of the
/// sources, made concrete.
pub fn relatively_contained_witness(
    q1: &Program,
    ans1: &Symbol,
    q2: &Program,
    ans2: &Symbol,
    views: &LavSetting,
) -> Result<Result<(), NonContainmentWitness>, RelativeError> {
    let decision = decide(&Question::new(q1, ans1, q2, ans2), Sources::Views(views))?;
    match (decision.holds()?, decision.witness) {
        (true, _) => Ok(Ok(())),
        (false, Some(Witness::Disjunct(w))) => Ok(Err(w)),
        (false, _) => Err(RelativeError::Unsupported(
            "a recursive plan has no witness disjunct".into(),
        )),
    }
}

/// Decides relative equivalence `Q1 ≡_V Q2` (both containments).
pub fn relatively_equivalent(
    q1: &Program,
    ans1: &Symbol,
    q2: &Program,
    ans2: &Symbol,
    views: &LavSetting,
) -> Result<bool, RelativeError> {
    Ok(relatively_contained(q1, ans1, q2, ans2, views)?
        && relatively_contained(q2, ans2, q1, ans1, views)?)
}

/// How a relative containment holds — the distinction the paper's
/// introduction motivates: "the system can tell the user whether the
/// answers to two queries Q1 and Q2 are the same because the queries are
/// equivalent, or because they are equivalent for the current available
/// sources."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainmentKind {
    /// `Q1 ⊆ Q2` holds classically (hence relative to any sources).
    Classical,
    /// `Q1 ⊑_V Q2` holds only because of the available sources.
    OnlyRelative,
    /// `Q1 ⋢_V Q2`.
    No,
}

impl std::fmt::Display for ContainmentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainmentKind::Classical => write!(f, "contained (classically)"),
            ContainmentKind::OnlyRelative => {
                write!(f, "contained (only relative to the available sources)")
            }
            ContainmentKind::No => write!(f, "not contained"),
        }
    }
}

/// Classifies a question: the input gate [`decide`] runs, classical
/// containment, then, only when that fails, one [`decide`], whose
/// [`Decision`] (with its witness) comes back too. The classical check runs the procedure for the question's
/// class: UCQ containment of the unfoldings when both queries are
/// nonrecursive, the type fixpoint when only Q1 is recursive, and Q2
/// evaluated over the canonical databases of Q1's unfolding when only Q2
/// is. A resource trip is an `Err`.
pub fn explain(
    question: &Question<'_>,
    sources: Sources<'_>,
) -> Result<(ContainmentKind, Option<Decision>), RelativeError> {
    let _span = qc_obs::span("explain_containment");
    gate(question, sources)?;
    let classical = {
        let _s = qc_obs::span("classical_check");
        classically_contained(question)?
    };
    if classical {
        return Ok((ContainmentKind::Classical, None));
    }
    let decision = {
        let _s = qc_obs::span("relative_containment");
        decide_in(question, sources)?
    };
    let kind = if decision.holds()? {
        ContainmentKind::OnlyRelative
    } else {
        ContainmentKind::No
    };
    Ok((kind, Some(decision)))
}

/// Whether the classical procedure for the question's class ([`explain`])
/// proves `Q1 ⊆ Q2`. `false` also when both queries are recursive, or when
/// a recursive class has comparisons or its procedure refuses the input:
/// [`decide`] then reports the class error. A resource trip is an `Err`.
fn classically_contained(q: &Question<'_>) -> Result<bool, RelativeError> {
    let recursive =
        |p: &Program, ans: &Symbol| p.dependency_graph().pred_in_cycle_reachable_from(ans);
    let proved = |r: Result<bool, RelativeError>| match r {
        Err(e) if e.resource().is_some() => Err(e),
        r => Ok(r.unwrap_or(false)),
    };
    match (recursive(q.q1, &q.ans1), recursive(q.q2, &q.ans2)) {
        (false, false) => Ok(ucq_contained(
            &q.q1.unfold(&q.ans1)?,
            &q.q2.unfold(&q.ans2)?,
        )),
        (true, true) => Ok(false),
        _ if q.q1.has_comparisons() || q.q2.has_comparisons() => Ok(false),
        (true, false) => {
            let u2 = q.q2.unfold(&q.ans2)?;
            proved(
                datalog_contained_in_ucq(q.q1, &q.ans1, &u2, &FixpointBudget::default())
                    .map_err(RelativeError::from),
            )
        }
        (false, true) => {
            let u1 = q.q1.unfold(&q.ans1)?;
            proved(
                ucq_contained_in_datalog(&u1, q.q2, &q.ans2, &EvalOptions::default())
                    .map_err(RelativeError::from),
            )
        }
    }
}

/// Classifies the containment of `Q1` in `Q2` relative to `views`
/// ([`explain`] without the decision).
pub fn explain_containment(
    q1: &Program,
    ans1: &Symbol,
    q2: &Program,
    ans2: &Symbol,
    views: &LavSetting,
) -> Result<ContainmentKind, RelativeError> {
    explain(&Question::new(q1, ans1, q2, ans2), Sources::Views(views)).map(|(kind, _)| kind)
}

/// The alternative decision route of Theorem 3.1's statement: compare the
/// two maximally-contained UCQ plans directly over the source vocabulary.
/// Valid for nonrecursive queries. It shares no code with [`decide`]
/// past plan construction, so the tests use it as the reference that
/// [`decide`] must agree with; the E4/E9 benchmarks time it.
pub fn relatively_contained_by_plans(
    q1: &Program,
    ans1: &Symbol,
    q2: &Program,
    ans2: &Symbol,
    views: &LavSetting,
) -> Result<bool, RelativeError> {
    let p1 = max_contained_ucq_plan(q1, ans1, views)?;
    let p2 = max_contained_ucq_plan(q2, ans2, views)?;
    Ok(ucq_contained(&p1, &p2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse_rules::max_contained_plan;
    use crate::schema::example1_sources;
    use qc_datalog::parse_program;

    fn prog(s: &str) -> Program {
        parse_program(s).unwrap()
    }

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    fn q1() -> Program {
        prog("q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).")
    }
    fn q2() -> Program {
        prog("q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).")
    }
    fn q3() -> Program {
        prog(
            "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
        )
    }

    #[test]
    fn example1_q1_equivalent_to_q2_relative_to_sources() {
        // "because reviews are only available for top-rated cars, Q1 is
        //  contained in Q2 relative to the sources, and in fact the two
        //  queries return the same certain answers."
        let views = example1_sources();
        assert!(relatively_contained(&q1(), &sym("q1"), &q2(), &sym("q2"), &views).unwrap());
        assert!(relatively_contained(&q2(), &sym("q2"), &q1(), &sym("q1"), &views).unwrap());
        assert!(relatively_equivalent(&q1(), &sym("q1"), &q2(), &sym("q2"), &views).unwrap());
    }

    #[test]
    fn example1_q1_not_contained_in_q3() {
        // "Q1 is not contained in Q3 relative to the sources, because it
        //  is possible to retrieve reviews of red cars made after 1970."
        let views = example1_sources();
        assert!(!relatively_contained(&q1(), &sym("q1"), &q3(), &sym("q3"), &views).unwrap());
        // Q3 ⊑ Q1 of course holds (classically already).
        assert!(relatively_contained(&q3(), &sym("q3"), &q1(), &sym("q1"), &views).unwrap());
    }

    #[test]
    fn example1_dropping_redcars_flips_the_answer() {
        // "If the RedCars source were not available, then Q1 would be
        //  contained in Q3 relative to the available sources."
        let views = example1_sources().without("RedCars");
        assert!(relatively_contained(&q1(), &sym("q1"), &q3(), &sym("q3"), &views).unwrap());
    }

    #[test]
    fn classical_containment_implies_relative() {
        let views = example1_sources();
        // Q2 ⊆ Q1 classically, hence relatively.
        assert!(relatively_contained(&q2(), &sym("q2"), &q1(), &sym("q1"), &views).unwrap());
        // Also with an empty view set (both plans empty).
        let empty = LavSetting::default();
        assert!(relatively_contained(&q2(), &sym("q2"), &q1(), &sym("q1"), &empty).unwrap());
        // With no views everything is relatively contained in everything
        // (no certain answers at all).
        assert!(relatively_contained(&q1(), &sym("q1"), &q2(), &sym("q2"), &empty).unwrap());
    }

    #[test]
    fn plan_comparison_route_agrees_on_example1() {
        let views = example1_sources();
        let pairs = [
            (q1(), "q1", q2(), "q2"),
            (q2(), "q2", q1(), "q1"),
            (q3(), "q3", q2(), "q2"),
            (q2(), "q2", q3(), "q3"),
            (q1(), "q1", q3(), "q3"),
            (q3(), "q3", q1(), "q1"),
        ];
        for (a, an, b, bn) in pairs {
            let via_exp = relatively_contained(&a, &sym(an), &b, &sym(bn), &views).unwrap();
            let via_plans =
                relatively_contained_by_plans(&a, &sym(an), &b, &sym(bn), &views).unwrap();
            assert_eq!(via_exp, via_plans, "{an} vs {bn}");
        }
    }

    #[test]
    fn witness_pinpoints_the_offending_plan() {
        // Q1 ⋢ Q3 "because it is possible to retrieve reviews of red cars
        // made after 1970" — the witness must be the RedCars plan.
        let views = example1_sources();
        let got =
            relatively_contained_witness(&q1(), &sym("q1"), &q3(), &sym("q3"), &views).unwrap();
        let w = got.expect_err("not contained");
        assert!(w.plan.subgoals.iter().any(|a| a.pred == "RedCars"), "{w}");
        // The witness agrees with the boolean decision.
        assert!(!relatively_contained(&q1(), &sym("q1"), &q3(), &sym("q3"), &views).unwrap());
        // A holding containment has no witness.
        let ok =
            relatively_contained_witness(&q1(), &sym("q1"), &q2(), &sym("q2"), &views).unwrap();
        assert!(ok.is_ok());
        // Witness agrees with the plan-comparison reference on random
        // workloads.
        use crate::workloads::{query_program, random_query, random_views, Shape};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let a = random_query(Shape::Chain, 2, 2, &mut rng);
            let b = random_query(Shape::Chain, 2, 2, &mut rng);
            let v = random_views(3, 2, &mut rng);
            let dec = relatively_contained_by_plans(
                &query_program(&a),
                &sym("q"),
                &query_program(&b),
                &sym("q"),
                &v,
            )
            .unwrap();
            let wit = relatively_contained_witness(
                &query_program(&a),
                &sym("q"),
                &query_program(&b),
                &sym("q"),
                &v,
            )
            .unwrap();
            assert_eq!(dec, wit.is_ok());
        }
    }

    #[test]
    fn explain_distinguishes_classical_from_relative() {
        let views = example1_sources();
        // Q2 ⊆ Q1 classically.
        assert_eq!(
            explain_containment(&q2(), &sym("q2"), &q1(), &sym("q1"), &views).unwrap(),
            ContainmentKind::Classical
        );
        // Q1 ⊑ Q2 only because of the sources.
        assert_eq!(
            explain_containment(&q1(), &sym("q1"), &q2(), &sym("q2"), &views).unwrap(),
            ContainmentKind::OnlyRelative
        );
        // Q1 ⋢ Q3 either way.
        assert_eq!(
            explain_containment(&q1(), &sym("q1"), &q3(), &sym("q3"), &views).unwrap(),
            ContainmentKind::No
        );
        // Dropping RedCars turns the last into OnlyRelative.
        assert_eq!(
            explain_containment(
                &q1(),
                &sym("q1"),
                &q3(),
                &sym("q3"),
                &views.without("RedCars")
            )
            .unwrap(),
            ContainmentKind::OnlyRelative
        );
    }

    #[test]
    fn recursive_contained_query() {
        // Q1: transitive closure over a mediated edge; Q2: "some chain of
        // length 1 or 2"... containment fails; but TC ⊑ "connected to
        // something" holds.
        let views = LavSetting::parse(&["V(X, Y) :- edge(X, Y)."]).unwrap();
        let tc = prog("t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).");
        let some = prog("s(X, Y) :- edge(X, A), edge(B, Y).");
        assert!(relatively_contained(&tc, &sym("t"), &some, &sym("s"), &views).unwrap());
        let direct = prog("d(X, Y) :- edge(X, Y).");
        assert!(!relatively_contained(&tc, &sym("t"), &direct, &sym("d"), &views).unwrap());
        // Other side: nonrecursive ⊑ recursive.
        let two = prog("w(X, Z) :- edge(X, Y), edge(Y, Z).");
        assert!(relatively_contained(&two, &sym("w"), &tc, &sym("t"), &views).unwrap());
        assert!(!relatively_contained(&direct, &sym("d"), &two, &sym("w"), &views).unwrap());
        let rev = prog("r(X, Y) :- edge(Y, X).");
        let got = relatively_contained_witness(&rev, &sym("r"), &tc, &sym("t"), &views).unwrap();
        let w = got.expect_err("a reversed edge is no path");
        assert!(w.plan.subgoals.iter().all(|a| a.pred == "V"), "{w}");
    }

    #[test]
    fn recursive_container_agrees_with_freezing_the_plans() {
        // Reference for a recursive Q2: freeze each disjunct of P1 and
        // evaluate Q2's own maximally-contained plan P2 over it.
        let views = LavSetting::parse(&["V(X, Y) :- edge(X, Y).", "S(X) :- edge(X, X)."]).unwrap();
        let tc = prog("t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).");
        let p2 = eliminate_function_terms(&max_contained_plan(&tc, &views)).unwrap();
        for q in [
            "a(X, Z) :- edge(X, Y), edge(Y, Z).",
            "a(X, Y) :- edge(Y, X).",
            "a(X, X) :- edge(X, X).",
            "a(X, Y) :- edge(X, Y), edge(Y, Y).",
            "a(X, Y) :- edge(X, A), edge(B, Y).",
        ] {
            let q1 = prog(q);
            let p1 = max_contained_ucq_plan(&q1, &sym("a"), &views).unwrap();
            let reference =
                ucq_contained_in_datalog(&p1, &p2, &sym("t"), &EvalOptions::default()).unwrap();
            let got = relatively_contained(&q1, &sym("a"), &tc, &sym("t"), &views).unwrap();
            assert_eq!(got, reference, "{q}");
        }
    }

    #[test]
    fn recursive_both_rejected() {
        let views = LavSetting::parse(&["V(X, Y) :- edge(X, Y)."]).unwrap();
        let tc = prog("t(X, Y) :- edge(X, Y). t(X, Z) :- t(X, Y), edge(Y, Z).");
        assert!(matches!(
            relatively_contained(&tc, &sym("t"), &tc, &sym("t"), &views),
            Err(RelativeError::Unsupported(_))
        ));
    }

    #[test]
    fn a_subsumed_skeleton_can_be_the_one_that_completes() {
        // The skeleton v1(H, Z) subsumes v1(H, Z), v0(H, Z'), but only the
        // second completes: X2 <= 3 needs v0's guarantee. Union-minimizing
        // the skeletons before completion would leave the plan empty, and
        // Q1 "contained" in anything.
        let views = LavSetting::parse(&[
            "v0(Z0, Z1) :- p0(Z0, Z1), Z1 <= 3.",
            "v1(Z0, Z1) :- p0(Z0, Z1).",
        ])
        .unwrap();
        let q1 = prog("q(H) :- p0(H, X1), p0(H, X2), p0(H, X3), X3 > 4, X2 <= 3.");
        let q2 = prog("r(H) :- p0(H, Y), Y > 100.");
        let plan = max_contained_ucq_plan(&q1, &sym("q"), &views).unwrap();
        assert_eq!(plan.disjuncts.len(), 1, "{plan}");
        let d = &plan.disjuncts[0];
        assert!(d.subgoals.iter().any(|a| a.pred == "v0"), "{plan}");
        assert!(d.subgoals.iter().any(|a| a.pred == "v1"), "{plan}");
        let decision = decide(
            &Question::new(&q1, &sym("q"), &q2, &sym("r")),
            Sources::Views(&views),
        )
        .unwrap();
        assert_eq!(decision.verdict, Verdict::NotContained);
    }

    #[test]
    fn hidden_column_makes_queries_equivalent() {
        // The only source projects away p's second column, so q(X) :-
        // p(X, Y) and q'(X) :- p(X, X)?? — no: use a source that only
        // guarantees existence: v(X) :- p(X, Y). Then q_pair(X) :- p(X, Y)
        // and q_diag... certain answers of both are v's column... diag is
        // not implied. Instead: q(X) :- p(X, Y), r(Y) vs q'(X) :- p(X, Y):
        // with only v available, neither query has certain answers beyond
        // none for q; q' has the v column.
        let views = LavSetting::parse(&["v(X) :- p(X, Y)."]).unwrap();
        let qa = prog("qa(X) :- p(X, Y), r(Y).");
        let qb = prog("qb(X) :- p(X, Y).");
        // qa has NO certain answers ever (r unseen): qa ⊑ qb.
        assert!(relatively_contained(&qa, &sym("qa"), &qb, &sym("qb"), &views).unwrap());
        // qb does have certain answers: qb ⋢ qa.
        assert!(!relatively_contained(&qb, &sym("qb"), &qa, &sym("qa"), &views).unwrap());
    }
}
