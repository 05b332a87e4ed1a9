//! Bottom-up evaluation: naive and semi-naive strategies.
//!
//! The engine evaluates a datalog [`Program`] over an EDB [`Database`] and
//! returns the derived IDB relations. It supports the features the paper's
//! constructions need:
//!
//! * **comparison literals**, filtered as soon as they become ground;
//! * **function terms** in rule heads (inverse-rule plans construct Skolem
//!   terms as labelled nulls), guarded by a term-depth limit so that
//!   ill-founded programs terminate with an error instead of diverging;
//! * **semi-naive** delta iteration with per-position hash indexes, plus a
//!   naive strategy kept as the ablation baseline (experiment E10).
//!
//! The join kernel runs entirely over interned value ids: rule bodies are
//! compiled to slot-indexed patterns, the environment is a dense `u32`
//! slot array, and candidate rows are flat id slices — no term is
//! materialized unless a function-term pattern needs destructuring, a
//! comparison needs evaluating, or provenance is being traced.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::fx::FxHashMap;
use crate::{
    value, Atom, Comparison, Database, Literal, Program, Relation, Rule, Symbol, Term, Tuple, Var,
};

/// Evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Re-derive everything every iteration (baseline).
    Naive,
    /// Classic semi-naive delta iteration (default).
    #[default]
    SemiNaive,
}

/// Which join kernel runs the fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalEngine {
    /// The tuple-at-a-time backtracking join (the differential oracle).
    Tuple,
    /// The compiled relational-algebra batch engine (the private `ra`
    /// module), falling back to the tuple kernel for programs it cannot
    /// compile (non-ground function-term patterns in rule bodies).
    Ra,
    /// Route per fixpoint: RA for recursive programs or large instances
    /// (at least 256 EDB tuples), the tuple kernel otherwise (default).
    #[default]
    Adaptive,
}

/// Engine limits and strategy selection.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Maximum number of fixpoint iterations.
    pub max_iterations: usize,
    /// Maximum number of derived tuples across all IDB relations.
    pub max_derived: usize,
    /// Maximum function-term nesting depth in derived tuples.
    pub max_term_depth: usize,
    /// Record one derivation per derived tuple (enables
    /// [`evaluate_traced`] / provenance). Tracing forces the
    /// tuple-at-a-time kernel, which records per-derivation support.
    pub trace: bool,
    /// Greedy most-bound-first reordering of rule bodies before the
    /// backtracking join (atoms with constants or already-bound variables
    /// first; ties broken by smaller visible relation size). `false`
    /// preserves textual body order — the order-naïve baseline — in both
    /// kernels.
    pub reorder: bool,
    /// Which join kernel runs the fixpoint.
    pub engine: EvalEngine,
    /// Apply the magic-sets rewrite before an RA [`answers`] fixpoint, so
    /// only tuples reachable from the answer predicate's binding pattern
    /// are derived. Ignored by [`evaluate`] (no goal) and by the tuple
    /// kernel.
    pub magic_sets: bool,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            strategy: Strategy::SemiNaive,
            max_iterations: 100_000,
            max_derived: 5_000_000,
            max_term_depth: 8,
            trace: false,
            reorder: true,
            engine: EvalEngine::Adaptive,
            magic_sets: true,
        }
    }
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The derived-tuple limit was exceeded.
    DerivationLimit(usize),
    /// The iteration limit was exceeded.
    IterationLimit(usize),
    /// A derived tuple exceeded the function-term depth limit (the program
    /// constructs unboundedly nested terms).
    TermDepthLimit(usize),
    /// A comparison literal could not be grounded by the relational
    /// subgoals (the rule violates range restriction).
    UnboundComparison(String),
    /// A head variable was unbound at emission (the rule is unsafe).
    NonGroundHead(String),
    /// An installed [`qc_guard::Guard`] limit tripped (budget, deadline,
    /// or cancellation) during evaluation.
    Resource(qc_guard::ResourceError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DerivationLimit(n) => write!(f, "derivation limit exceeded ({n} tuples)"),
            EvalError::IterationLimit(n) => write!(f, "iteration limit exceeded ({n})"),
            EvalError::TermDepthLimit(n) => {
                write!(f, "function-term depth limit exceeded ({n})")
            }
            EvalError::UnboundComparison(c) => write!(f, "comparison never grounded: {c}"),
            EvalError::NonGroundHead(r) => write!(f, "non-ground head at emission: {r}"),
            EvalError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<qc_guard::ResourceError> for EvalError {
    fn from(e: qc_guard::ResourceError) -> Self {
        EvalError::Resource(e)
    }
}

/// [`EvalEngine::Adaptive`] routes non-recursive programs to the RA engine
/// only when the EDB holds at least this many tuples: below it, compiling
/// RA plans costs more than evaluating the instance tuple by tuple.
const RA_MIN_TUPLES: usize = 256;

/// Whether this fixpoint should run on the RA batch engine.
///
/// Tracing and the naive strategy pin the tuple kernel (provenance and the
/// E10 ablation baseline are tuple-level concepts), `EvalEngine::Tuple`
/// forces it, and programs the RA compiler cannot express (non-ground
/// function-term patterns in rule bodies) fall back to it. Under
/// `Adaptive`, RA takes recursive programs — where compile-once pays off
/// across rounds — and large instances, leaving small non-recursive
/// fixpoints on the direct kernel.
fn use_ra(program: &Program, edb: &Database, opts: &EvalOptions) -> bool {
    if opts.trace || opts.strategy == Strategy::Naive {
        return false;
    }
    let want = match opts.engine {
        EvalEngine::Tuple => false,
        EvalEngine::Ra => true,
        EvalEngine::Adaptive => program.is_recursive() || edb.total_len() >= RA_MIN_TUPLES,
    };
    want && crate::ra::supports(program)
}

/// Evaluates `program` over `edb`, returning the derived IDB relations.
pub fn evaluate(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
) -> Result<Database, EvalError> {
    let _span = qc_obs::span("datalog_eval");
    if use_ra(program, edb, opts) {
        qc_obs::count(qc_obs::Counter::EvalTierRa, 1);
        return crate::ra::evaluate(program, edb, opts);
    }
    qc_obs::count(qc_obs::Counter::EvalTierTuple, 1);
    match opts.strategy {
        Strategy::Naive => naive_inner(program, edb, opts, None),
        Strategy::SemiNaive => seminaive_inner(program, edb, opts, None),
    }
}

/// Evaluates and returns the answer relation for `answer` (empty relation
/// if nothing was derived).
///
/// On the RA engine with `opts.magic_sets` set, the program is first
/// rewritten with magic sets for `answer`, so the fixpoint only derives
/// tuples the answer predicate can reach.
pub fn answers(
    program: &Program,
    edb: &Database,
    answer: &Symbol,
    opts: &EvalOptions,
) -> Result<Relation, EvalError> {
    if use_ra(program, edb, opts) {
        let _span = qc_obs::span("datalog_eval");
        qc_obs::count(qc_obs::Counter::EvalTierRa, 1);
        return crate::ra::answers(program, edb, answer, opts);
    }
    let idb = evaluate(program, edb, opts)?;
    Ok(idb.relation(answer).cloned().unwrap_or_default())
}

/// One recorded derivation step: the rule that first derived a tuple and
/// the ground body facts it matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// The rule applied.
    pub rule: Rule,
    /// The ground relational body facts, in body order.
    pub body: Vec<(Symbol, Tuple)>,
}

/// A provenance trace: the first derivation of every derived tuple.
///
/// Stored as a split map (`Symbol → Tuple → Derivation`) so lookups borrow
/// the caller's key parts instead of cloning a composite `(Symbol, Tuple)`
/// key per probe.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    map: HashMap<Symbol, HashMap<Tuple, Derivation>>,
}

impl Trace {
    /// The recorded derivation of a derived fact, if any. Borrow-based:
    /// no key is cloned for the lookup.
    pub fn derivation(&self, pred: &Symbol, tuple: &Tuple) -> Option<&Derivation> {
        self.map.get(pred)?.get(tuple)
    }

    /// Records the first derivation of a fact (later derivations of the
    /// same fact are ignored).
    fn record(&mut self, pred: Symbol, tuple: Tuple, d: Derivation) {
        self.map.entry(pred).or_default().entry(tuple).or_insert(d);
    }

    /// The EDB facts supporting a derived fact: the leaves of its proof
    /// tree (facts with no recorded derivation of their own).
    /// Deduplicated, in first-encounter order.
    pub fn support(&self, pred: &Symbol, tuple: &Tuple) -> Vec<(Symbol, Tuple)> {
        let mut out: Vec<(Symbol, Tuple)> = Vec::new();
        let mut stack = vec![(*pred, tuple.clone())];
        let mut seen: std::collections::HashSet<(Symbol, Tuple)> = std::collections::HashSet::new();
        while let Some(fact) = stack.pop() {
            if !seen.insert(fact.clone()) {
                continue;
            }
            match self.derivation(&fact.0, &fact.1) {
                Some(d) => {
                    for b in d.body.iter().rev() {
                        stack.push(b.clone());
                    }
                }
                None => {
                    if !out.contains(&fact) {
                        out.push(fact);
                    }
                }
            }
        }
        out
    }

    /// Renders the proof tree of a fact, indented.
    pub fn proof_tree(&self, pred: &Symbol, tuple: &Tuple) -> String {
        fn render(trace: &Trace, pred: &Symbol, tuple: &Tuple, depth: usize, out: &mut String) {
            let indent = "  ".repeat(depth);
            let args = tuple
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            match trace.derivation(pred, tuple) {
                Some(d) => {
                    out.push_str(&format!("{indent}{pred}({args})   [via {}]\n", d.rule));
                    for (bp, bt) in &d.body {
                        render(trace, bp, bt, depth + 1, out);
                    }
                }
                None => out.push_str(&format!("{indent}{pred}({args})   [source fact]\n")),
            }
        }
        let mut out = String::new();
        render(self, pred, tuple, 0, &mut out);
        out
    }
}

/// Like [`evaluate`], but also returns the provenance trace (forces
/// `opts.trace`).
pub fn evaluate_traced(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
) -> Result<(Database, Trace), EvalError> {
    let opts = EvalOptions {
        trace: true,
        ..*opts
    };
    let _span = qc_obs::span("datalog_eval");
    let mut trace = Trace::default();
    let idb = match opts.strategy {
        Strategy::Naive => naive_inner(program, edb, &opts, Some(&mut trace))?,
        Strategy::SemiNaive => seminaive_inner(program, edb, &opts, Some(&mut trace))?,
    };
    Ok((idb, trace))
}

/// A view of a relation restricted to its first `limit` tuples (relations
/// are append-only, so a prefix is a consistent snapshot).
#[derive(Clone, Copy)]
pub(crate) struct RelView<'a> {
    pub(crate) rel: &'a Relation,
    /// Tuples `offset..limit` are visible.
    pub(crate) offset: usize,
    pub(crate) limit: usize,
}

impl<'a> RelView<'a> {
    fn full(rel: &'a Relation) -> RelView<'a> {
        RelView {
            rel,
            offset: 0,
            limit: rel.len(),
        }
    }

    fn empty(rel: &'a Relation) -> RelView<'a> {
        RelView {
            rel,
            offset: 0,
            limit: 0,
        }
    }

    /// Number of tuples visible through this view.
    pub(crate) fn len(&self) -> usize {
        self.limit - self.offset
    }

    /// Calls `f` with the flat id row of every candidate. `bound` holds
    /// (position, value id) constraints; the most selective index among
    /// them is probed, otherwise the window is scanned.
    fn for_each_candidate(&self, bound: &[(usize, u32)], mut f: impl FnMut(&'a [u32])) {
        if self.limit == self.offset {
            return;
        }
        if bound.is_empty() {
            // Full-scan probes: every visible tuple is touched.
            qc_obs::count(qc_obs::Counter::EvalFullScans, self.len() as u64);
            for id in self.offset..self.limit {
                f(self.rel.row_ids(id as u32));
            }
            return;
        }
        // Most selective index among bound positions (row id lists are
        // ascending, so a window restriction is a range check).
        let (pos, val) = bound
            .iter()
            .min_by_key(|(pos, val)| self.rel.rows_with_id(*pos, *val).len())
            .expect("nonempty bound");
        let rows = self.rel.rows_with_id(*pos, *val);
        qc_obs::count(qc_obs::Counter::EvalIndexProbes, rows.len() as u64);
        for &id in rows {
            let i = id as usize;
            if i >= self.offset && i < self.limit {
                f(self.rel.row_ids(id));
            }
        }
    }
}

/// Which snapshot a body occurrence should read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// EDB, or IDB "everything so far".
    Full,
    /// IDB tuples derived in the previous round only.
    Delta,
    /// IDB tuples from before the previous round.
    Old,
}

pub(crate) struct Snapshots<'a> {
    pub(crate) edb: &'a Database,
    pub(crate) idb: &'a Database,
    /// Per-IDB-relation: (old_len, full_len); delta = old_len..full_len.
    pub(crate) marks: &'a HashMap<Symbol, (usize, usize)>,
    pub(crate) empty: Relation,
}

impl<'a> Snapshots<'a> {
    pub(crate) fn view(&'a self, pred: &Symbol, source: Source) -> RelView<'a> {
        if let Some(rel) = self.idb.relation(pred) {
            let (old, full) = self
                .marks
                .get(pred)
                .copied()
                .unwrap_or((rel.len(), rel.len()));
            return match source {
                Source::Full => RelView {
                    rel,
                    offset: 0,
                    limit: full,
                },
                Source::Delta => RelView {
                    rel,
                    offset: old,
                    limit: full,
                },
                Source::Old => RelView {
                    rel,
                    offset: 0,
                    limit: old,
                },
            };
        }
        if let Some(rel) = self.edb.relation(pred) {
            return RelView::full(rel);
        }
        RelView::empty(&self.empty)
    }
}

/// Greedy most-bound-first join ordering.
///
/// Repeatedly selects, among the remaining atoms, the one with the most
/// argument positions already ground (constants, or variables bound by
/// previously selected atoms), preferring any boundness over none, breaking
/// ties by the smaller visible snapshot and finally by textual position so
/// the plan is deterministic. Each atom carries its original occurrence
/// index, so the semi-naive Delta/Old/Full source assignment is unaffected
/// by the permutation. Recomputed per invocation because snapshot sizes
/// (in particular delta windows) change every round; rule bodies are small,
/// so the O(n²) greedy pass is negligible next to the join itself.
fn reorder_atoms(
    atoms: &mut [(usize, &Atom)],
    occ_source: &dyn Fn(usize) -> Source,
    snaps: &Snapshots<'_>,
) {
    fn term_bound(t: &Term, bound: &BTreeSet<Var>) -> bool {
        match t {
            Term::Var(v) => bound.contains(v),
            Term::Const(_) => true,
            Term::App(_, args) => args.iter().all(|a| term_bound(a, bound)),
        }
    }
    let mut bound: BTreeSet<Var> = BTreeSet::new();
    for k in 0..atoms.len() {
        let best = (k..atoms.len())
            .min_by_key(|&i| {
                let (occ, atom) = atoms[i];
                let ground = atom.args.iter().filter(|a| term_bound(a, &bound)).count();
                let size = snaps.view(&atom.pred, occ_source(occ)).len();
                (
                    usize::from(ground == 0),
                    atom.args.len() - ground,
                    size,
                    occ,
                )
            })
            .expect("nonempty suffix");
        atoms.swap(k, best);
        atoms[k].1.collect_vars(&mut bound);
    }
}

/// A compiled argument pattern: what to do with one position of a body
/// atom when a candidate row arrives.
enum Pat<'r> {
    /// A plain variable, identified by its dense slot.
    Slot(usize),
    /// A ground term, pre-interned to its value id.
    Val(u32),
    /// A non-ground function term: destructure the resolved value.
    Tree(&'r Term),
}

/// Slot assignment for the variables of one rule: dense indexes in
/// first-compile order.
#[derive(Default)]
struct Slots {
    of: FxHashMap<Var, usize>,
}

impl Slots {
    fn slot(&mut self, v: Var) -> usize {
        let next = self.of.len();
        *self.of.entry(v).or_insert(next)
    }
}

fn compile_pat<'r>(t: &'r Term, slots: &mut Slots) -> Pat<'r> {
    match t {
        Term::Var(v) => Pat::Slot(slots.slot(*v)),
        Term::Const(_) => Pat::Val(value::intern(t)),
        Term::App(..) => {
            if t.is_ground() {
                Pat::Val(value::intern(t))
            } else {
                // Register the tree's variables now so slot numbering is
                // independent of which candidate row first matches.
                let mut vars = BTreeSet::new();
                t.collect_vars(&mut vars);
                for v in vars {
                    slots.slot(v);
                }
                Pat::Tree(t)
            }
        }
    }
}

/// The dense environment: slot → bound value id.
type Env = Vec<Option<u32>>;

/// Grounds a term under the environment, materializing from value ids.
fn ground(t: &Term, env: &Env, slots: &Slots) -> Option<Term> {
    match t {
        Term::Var(v) => {
            let slot = slots.of.get(v)?;
            env[*slot].map(|id| value::resolve(id).clone())
        }
        Term::Const(_) => Some(t.clone()),
        Term::App(f, args) => {
            let mut out = Vec::with_capacity(args.len());
            for a in args {
                out.push(ground(a, env, slots)?);
            }
            Some(Term::App(*f, out))
        }
    }
}

/// Matches a non-ground function-term pattern against a resolved ground
/// value, binding pattern variables to the value ids of the matched
/// subterms; records added slots in `added`.
fn match_tree(
    pat: &Term,
    val: &Term,
    env: &mut Env,
    slots: &Slots,
    added: &mut Vec<usize>,
) -> bool {
    match pat {
        Term::Var(v) => {
            let slot = slots.of[v];
            match env[slot] {
                Some(bound) => value::resolve(bound) == val,
                None => {
                    env[slot] = Some(value::intern(val));
                    added.push(slot);
                    true
                }
            }
        }
        Term::Const(_) => pat == val,
        Term::App(f, args) => match val {
            Term::App(g, vargs) => {
                f == g
                    && args.len() == vargs.len()
                    && args
                        .iter()
                        .zip(vargs)
                        .all(|(p, v)| match_tree(p, v, env, slots, added))
            }
            _ => false,
        },
    }
}

/// Evaluates one rule with a per-occurrence source assignment, emitting
/// derived head rows (as value ids).
type EmitFn<'a> = dyn FnMut(Vec<u32>, Option<Vec<(Symbol, Tuple)>>) -> Result<(), EvalError> + 'a;

fn eval_rule(
    rule: &Rule,
    occ_source: &dyn Fn(usize) -> Source,
    snaps: &Snapshots<'_>,
    opts: &EvalOptions,
    emit: &mut EmitFn<'_>,
) -> Result<(), EvalError> {
    // Split the body: relational atoms with their occurrence index, and
    // comparisons (evaluated as soon as ground).
    let mut atoms: Vec<(usize, &Atom)> = rule
        .body
        .iter()
        .filter_map(Literal::as_atom)
        .enumerate()
        .collect();
    let comparisons: Vec<&Comparison> = rule
        .body
        .iter()
        .filter_map(Literal::as_comparison)
        .collect();

    if opts.reorder && atoms.len() > 1 {
        reorder_atoms(&mut atoms, occ_source, snaps);
    }

    // Compile every body atom to slot-indexed patterns (slots numbered by
    // first occurrence in join order), then the head and comparison
    // variables so grounding can find them.
    let mut slots = Slots::default();
    let pats: Vec<Vec<Pat<'_>>> = atoms
        .iter()
        .map(|(_, a)| a.args.iter().map(|t| compile_pat(t, &mut slots)).collect())
        .collect();
    for t in &rule.head.args {
        let mut vars = BTreeSet::new();
        t.collect_vars(&mut vars);
        for v in vars {
            slots.slot(v);
        }
    }
    for c in &comparisons {
        for t in [&c.lhs, &c.rhs] {
            let mut vars = BTreeSet::new();
            t.collect_vars(&mut vars);
            for v in vars {
                slots.slot(v);
            }
        }
    }
    let mut env: Env = vec![None; slots.of.len()];

    fn check_comparisons(
        comps: &[&Comparison],
        done: &mut BTreeSet<usize>,
        env: &Env,
        slots: &Slots,
    ) -> Option<bool> {
        // Some(false) = a ground comparison failed; Some(true) = fine.
        for (i, c) in comps.iter().enumerate() {
            if done.contains(&i) {
                continue;
            }
            let (Some(l), Some(r)) = (ground(&c.lhs, env, slots), ground(&c.rhs, env, slots))
            else {
                continue;
            };
            done.insert(i);
            let holds = Comparison::new(l, c.op, r)
                .eval_ground()
                .expect("grounded comparison");
            if !holds {
                return Some(false);
            }
        }
        Some(true)
    }

    struct Ctx<'c> {
        atoms: &'c [(usize, &'c Atom)],
        pats: &'c [Vec<Pat<'c>>],
        comparisons: &'c [&'c Comparison],
        slots: &'c Slots,
        rule: &'c Rule,
        occ_source: &'c dyn Fn(usize) -> Source,
        snaps: &'c Snapshots<'c>,
        opts: &'c EvalOptions,
    }

    fn search(
        k: usize,
        ctx: &Ctx<'_>,
        comps_done: &BTreeSet<usize>,
        env: &mut Env,
        emit: &mut EmitFn<'_>,
    ) -> Result<(), EvalError> {
        // Evaluate any newly-ground comparisons first (cheap pruning).
        let mut done = comps_done.clone();
        if let Some(false) = check_comparisons(ctx.comparisons, &mut done, env, ctx.slots) {
            return Ok(());
        }

        if k == ctx.atoms.len() {
            // One work unit per rule firing — the same granularity as the
            // `EvalRuleFirings` counter, so guard budgets are reproducible.
            qc_guard::tick(qc_guard::stage::EVAL, 1)?;
            if done.len() != ctx.comparisons.len() {
                let c = ctx
                    .comparisons
                    .iter()
                    .enumerate()
                    .find(|(i, _)| !done.contains(i))
                    .map(|(_, c)| c.to_string())
                    .unwrap_or_default();
                return Err(EvalError::UnboundComparison(c));
            }
            // Emit the head, as value ids.
            let mut head = Vec::with_capacity(ctx.rule.head.args.len());
            for t in &ctx.rule.head.args {
                let id = match t {
                    Term::Var(v) => ctx.slots.of.get(v).and_then(|&s| env[s]),
                    _ if t.is_ground() => Some(value::intern(t)),
                    _ => ground(t, env, ctx.slots).map(|g| value::intern(&g)),
                };
                match id {
                    Some(id) => {
                        if value::depth(id) > ctx.opts.max_term_depth {
                            return Err(EvalError::TermDepthLimit(ctx.opts.max_term_depth));
                        }
                        head.push(id);
                    }
                    None => return Err(EvalError::NonGroundHead(ctx.rule.to_string())),
                }
            }
            let support = if ctx.opts.trace {
                // Atoms may have been reordered for the join; restore
                // textual body order via the occurrence index.
                let mut facts: Vec<Option<(Symbol, Tuple)>> = vec![None; ctx.atoms.len()];
                for (occ, atom) in ctx.atoms {
                    let tuple: Option<Tuple> = atom
                        .args
                        .iter()
                        .map(|a| ground(a, env, ctx.slots))
                        .collect();
                    match tuple {
                        Some(t) => facts[*occ] = Some((atom.pred, t)),
                        None => return Err(EvalError::NonGroundHead(ctx.rule.to_string())),
                    }
                }
                Some(
                    facts
                        .into_iter()
                        .map(|f| f.expect("every occ filled"))
                        .collect(),
                )
            } else {
                None
            };
            return emit(head, support);
        }

        let (occ, atom) = ctx.atoms[k];
        let view = ctx.snaps.view(&atom.pred, (ctx.occ_source)(occ));
        // Bound positions under the current environment, as value ids. A
        // tree pattern whose variables are all bound but whose value was
        // never interned can match nothing: bail out of this subtree (the
        // index probe would visit zero rows).
        let mut bound: Vec<(usize, u32)> = Vec::new();
        for (i, pat) in ctx.pats[k].iter().enumerate() {
            match pat {
                Pat::Slot(s) => {
                    if let Some(id) = env[*s] {
                        bound.push((i, id));
                    }
                }
                Pat::Val(id) => bound.push((i, *id)),
                Pat::Tree(t) => {
                    if let Some(g) = ground(t, env, ctx.slots) {
                        match value::lookup(&g) {
                            Some(id) => bound.push((i, id)),
                            None => return Ok(()),
                        }
                    }
                }
            }
        }
        let mut result = Ok(());
        view.for_each_candidate(&bound, |row| {
            if result.is_err() {
                return;
            }
            if row.len() != atom.args.len() {
                return;
            }
            let mut added: Vec<usize> = Vec::new();
            let ok = ctx.pats[k].iter().zip(row).all(|(p, &val)| match p {
                Pat::Slot(s) => match env[*s] {
                    Some(bound) => bound == val,
                    None => {
                        env[*s] = Some(val);
                        added.push(*s);
                        true
                    }
                },
                Pat::Val(id) => *id == val,
                Pat::Tree(t) => match_tree(t, value::resolve(val), env, ctx.slots, &mut added),
            });
            if ok {
                result = search(k + 1, ctx, &done, env, emit);
            }
            for s in added {
                env[s] = None;
            }
        });
        result
    }

    let ctx = Ctx {
        atoms: &atoms,
        pats: &pats,
        comparisons: &comparisons,
        slots: &slots,
        rule,
        occ_source,
        snaps,
        opts,
    };
    let done = BTreeSet::new();
    search(0, &ctx, &done, &mut env, emit)
}

/// Materializes an id row into a term tuple (for provenance recording).
fn materialize(row: &[u32]) -> Tuple {
    row.iter().map(|&v| value::resolve(v).clone()).collect()
}

fn naive_inner(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
    mut trace: Option<&mut Trace>,
) -> Result<Database, EvalError> {
    let mut idb = Database::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(EvalError::IterationLimit(opts.max_iterations));
        }
        qc_guard::check(qc_guard::stage::EVAL)?;
        qc_obs::count(qc_obs::Counter::EvalRounds, 1);
        let marks: HashMap<Symbol, (usize, usize)> = idb
            .preds()
            .map(|p| {
                let n = idb.len_of(p);
                (*p, (n, n))
            })
            .collect();
        let mut fresh: Vec<(Symbol, Vec<u32>, Option<Derivation>)> = Vec::new();
        {
            let snaps = Snapshots {
                edb,
                idb: &idb,
                marks: &marks,
                empty: Relation::new(),
            };
            for rule in program.rules() {
                let pred = rule.head.pred;
                eval_rule(rule, &|_| Source::Full, &snaps, opts, &mut |t, support| {
                    let d = support.map(|body| Derivation {
                        rule: rule.clone(),
                        body,
                    });
                    fresh.push((pred, t, d));
                    Ok(())
                })?;
            }
        }
        qc_obs::count(qc_obs::Counter::EvalRuleFirings, fresh.len() as u64);
        let mut changed = false;
        let mut inserted = 0u64;
        for (pred, row, d) in fresh {
            if idb.insert_ids(pred, &row) {
                changed = true;
                inserted += 1;
                if let (Some(trace), Some(d)) = (trace.as_deref_mut(), d) {
                    trace.record(pred, materialize(&row), d);
                }
            }
        }
        qc_obs::count(qc_obs::Counter::EvalDerivedFacts, inserted);
        if idb.total_len() > opts.max_derived {
            return Err(EvalError::DerivationLimit(opts.max_derived));
        }
        if !changed {
            return Ok(idb);
        }
    }
}

fn seminaive_inner(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
    mut trace: Option<&mut Trace>,
) -> Result<Database, EvalError> {
    let idb_preds = program.idb_preds();
    let mut idb = Database::new();
    // marks[p] = (old_len, full_len): delta is old_len..full_len.
    let mut marks: HashMap<Symbol, (usize, usize)> = HashMap::new();

    // Round 0: every rule against the (empty) IDB — seeds facts and rules
    // with EDB-only bodies.
    let mut fresh: Vec<(Symbol, Vec<u32>, Option<Derivation>)> = Vec::new();
    {
        let snaps = Snapshots {
            edb,
            idb: &idb,
            marks: &marks,
            empty: Relation::new(),
        };
        for rule in program.rules() {
            let pred = rule.head.pred;
            eval_rule(rule, &|_| Source::Full, &snaps, opts, &mut |t, support| {
                let d = support.map(|body| Derivation {
                    rule: rule.clone(),
                    body,
                });
                fresh.push((pred, t, d));
                Ok(())
            })?;
        }
    }
    qc_obs::count(qc_obs::Counter::EvalRuleFirings, fresh.len() as u64);
    let mut seeded = 0u64;
    for (pred, row, d) in fresh.drain(..) {
        if idb.insert_ids(pred, &row) {
            seeded += 1;
            if let (Some(trace), Some(d)) = (trace.as_deref_mut(), d) {
                trace.record(pred, materialize(&row), d);
            }
        }
    }
    qc_obs::count(qc_obs::Counter::EvalDerivedFacts, seeded);
    for p in &idb_preds {
        marks.insert(*p, (0, idb.len_of(p)));
    }

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(EvalError::IterationLimit(opts.max_iterations));
        }
        // Is there any delta at all?
        let any_delta = marks.values().any(|(old, full)| old < full);
        if !any_delta {
            return Ok(idb);
        }
        qc_guard::check(qc_guard::stage::EVAL)?;
        qc_obs::count(qc_obs::Counter::EvalRounds, 1);
        qc_obs::count(
            qc_obs::Counter::EvalDeltaTuples,
            marks.values().map(|(old, full)| (full - old) as u64).sum(),
        );
        let mut fresh: Vec<(Symbol, Vec<u32>, Option<Derivation>)> = Vec::new();
        {
            let snaps = Snapshots {
                edb,
                idb: &idb,
                marks: &marks,
                empty: Relation::new(),
            };
            for rule in program.rules() {
                let pred = rule.head.pred;
                // Occurrence indexes of IDB atoms in this rule's body.
                let idb_occs: Vec<usize> = rule
                    .body_atoms()
                    .enumerate()
                    .filter(|(_, a)| idb_preds.contains(&a.pred))
                    .map(|(i, _)| i)
                    .collect();
                for &focus in &idb_occs {
                    // Skip if the focused relation has an empty delta.
                    let focused_pred = &rule.body_atoms().nth(focus).expect("occ").pred;
                    let (old, full) = marks.get(focused_pred).copied().unwrap_or((0, 0));
                    if old == full {
                        continue;
                    }
                    let source = |occ: usize| -> Source {
                        // EDB occurrences and IDB occurrences before the
                        // focus read the full snapshot.
                        if !idb_occs.contains(&occ) || occ < focus {
                            Source::Full
                        } else if occ == focus {
                            Source::Delta
                        } else {
                            Source::Old
                        }
                    };
                    eval_rule(rule, &source, &snaps, opts, &mut |t, support| {
                        let d = support.map(|body| Derivation {
                            rule: rule.clone(),
                            body,
                        });
                        fresh.push((pred, t, d));
                        Ok(())
                    })?;
                }
            }
        }
        // Advance marks: previous full becomes old; inserts extend full.
        for p in &idb_preds {
            let full = idb.len_of(p);
            marks.insert(*p, (full, full));
        }
        qc_obs::count(qc_obs::Counter::EvalRuleFirings, fresh.len() as u64);
        let mut inserted = 0u64;
        for (pred, row, d) in fresh {
            if idb.insert_ids(pred, &row) {
                inserted += 1;
                if let (Some(trace), Some(d)) = (trace.as_deref_mut(), d) {
                    trace.record(pred, materialize(&row), d);
                }
            }
        }
        qc_obs::count(qc_obs::Counter::EvalDerivedFacts, inserted);
        for p in &idb_preds {
            let (old, _) = marks[p];
            marks.insert(*p, (old, idb.len_of(p)));
        }
        if idb.total_len() > opts.max_derived {
            return Err(EvalError::DerivationLimit(opts.max_derived));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn eval_str(prog: &str, facts: &str, strategy: Strategy) -> Database {
        let p = parse_program(prog).unwrap();
        let db = Database::parse(facts).unwrap();
        let opts = EvalOptions {
            strategy,
            ..EvalOptions::default()
        };
        evaluate(&p, &db, &opts).unwrap()
    }

    #[test]
    fn transitive_closure_both_strategies() {
        let prog = "p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).";
        let facts = "e(1, 2). e(2, 3). e(3, 4).";
        for s in [Strategy::Naive, Strategy::SemiNaive] {
            let idb = eval_str(prog, facts, s);
            assert_eq!(idb.len_of(&Symbol::new("p")), 6, "{s:?}");
        }
    }

    #[test]
    fn strategies_agree_on_cycle() {
        let prog = "p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).";
        let facts = "e(1, 2). e(2, 3). e(3, 1).";
        let a = eval_str(prog, facts, Strategy::Naive);
        let b = eval_str(prog, facts, Strategy::SemiNaive);
        assert_eq!(a.facts(), b.facts());
        assert_eq!(a.len_of(&Symbol::new("p")), 9);
    }

    #[test]
    fn comparisons_filter() {
        let idb = eval_str(
            "old(X) :- car(X, Y), Y < 1970.",
            "car(a, 1965). car(b, 1980). car(c, 1969).",
            Strategy::SemiNaive,
        );
        let rel = idb.relation(&Symbol::new("old")).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&vec![Term::sym("a")]));
        assert!(rel.contains(&vec![Term::sym("c")]));
    }

    #[test]
    fn comparison_between_variables() {
        let idb = eval_str(
            "lt(X, Y) :- n(X), n(Y), X < Y.",
            "n(1). n(2). n(3).",
            Strategy::SemiNaive,
        );
        assert_eq!(idb.len_of(&Symbol::new("lt")), 3);
    }

    #[test]
    fn function_terms_constructed() {
        let idb = eval_str(
            "CarDesc(C, M, f(C, M, Y), Y) :- AntiqueCars(C, M, Y).",
            "AntiqueCars(c1, ford, 1960).",
            Strategy::SemiNaive,
        );
        let rel = idb.relation(&Symbol::new("CarDesc")).unwrap();
        assert_eq!(rel.len(), 1);
        let tuples = rel.tuples();
        let t = &tuples[0];
        assert_eq!(
            t[2],
            Term::app(
                "f",
                vec![Term::sym("c1"), Term::sym("ford"), Term::int(1960)]
            )
        );
    }

    #[test]
    fn function_term_matching_in_body() {
        // A body pattern f(X) destructures constructed values.
        let idb = eval_str(
            "mk(f(X)) :- n(X). un(X) :- mk(f(X)).",
            "n(1). n(2).",
            Strategy::SemiNaive,
        );
        assert_eq!(idb.len_of(&Symbol::new("un")), 2);
        assert!(idb
            .relation(&Symbol::new("un"))
            .unwrap()
            .contains(&vec![Term::int(1)]));
    }

    #[test]
    fn divergent_program_hits_depth_limit() {
        let p = parse_program("n(f(X)) :- n(X).").unwrap();
        let mut db = Database::new();
        db.insert("n", vec![Term::int(0)]);
        // `n` is IDB here, and the seed fact is EDB — the engine sees an
        // IDB/EDB name collision as two distinct sources; use a seed rule
        // instead.
        let p2 = parse_program("n(0). n(f(X)) :- n(X).").unwrap();
        let opts = EvalOptions {
            max_term_depth: 5,
            ..EvalOptions::default()
        };
        let err = evaluate(&p2, &Database::new(), &opts).unwrap_err();
        assert!(matches!(err, EvalError::TermDepthLimit(5)));
        drop(p);
    }

    #[test]
    fn facts_in_program() {
        let idb = eval_str("p(1). p(2). q(X) :- p(X).", "", Strategy::SemiNaive);
        assert_eq!(idb.len_of(&Symbol::new("q")), 2);
    }

    #[test]
    fn answers_helper() {
        let p = parse_program("q(X) :- e(X, Y).").unwrap();
        let db = Database::parse("e(1, 2). e(1, 3). e(2, 3).").unwrap();
        let rel = answers(&p, &db, &Symbol::new("q"), &EvalOptions::default()).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn repeated_vars_in_body_atom() {
        let idb = eval_str(
            "loop(X) :- e(X, X).",
            "e(1, 1). e(1, 2). e(3, 3).",
            Strategy::SemiNaive,
        );
        assert_eq!(idb.len_of(&Symbol::new("loop")), 2);
    }

    #[test]
    fn constants_in_body_atom() {
        let idb = eval_str(
            "red(C) :- car(C, red).",
            "car(a, red). car(b, blue).",
            Strategy::SemiNaive,
        );
        assert_eq!(idb.len_of(&Symbol::new("red")), 1);
    }

    #[test]
    fn zero_ary_heads() {
        let idb = eval_str(
            "q() :- e(X, Y), X != Y.",
            "e(1, 1). e(1, 2).",
            Strategy::SemiNaive,
        );
        assert_eq!(idb.len_of(&Symbol::new("q")), 1);
        let idb2 = eval_str("q() :- e(X, Y), X != Y.", "e(1, 1).", Strategy::SemiNaive);
        assert_eq!(idb2.len_of(&Symbol::new("q")), 0);
    }

    #[test]
    fn derivation_limit_enforced() {
        let p = parse_program("p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), p(Y, Z).").unwrap();
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("e({}, {}). ", i, i + 1));
        }
        let db = Database::parse(&facts).unwrap();
        let opts = EvalOptions {
            max_derived: 50,
            ..EvalOptions::default()
        };
        assert!(matches!(
            evaluate(&p, &db, &opts),
            Err(EvalError::DerivationLimit(50))
        ));
    }

    #[test]
    fn provenance_traces_to_source_facts() {
        let prog = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let db = Database::parse("e(1, 2). e(2, 3). e(3, 4).").unwrap();
        let (idb, trace) = evaluate_traced(&prog, &db, &EvalOptions::default()).unwrap();
        let t = Symbol::new("t");
        assert_eq!(idb.len_of(&t), 6);
        // The 1->4 path is supported by exactly the three edges.
        let tuple = vec![Term::int(1), Term::int(4)];
        let support = trace.support(&t, &tuple);
        assert_eq!(support.len(), 3, "{support:?}");
        for (p, _) in &support {
            assert_eq!(p, &Symbol::new("e"));
        }
        // The derivation of a direct edge uses the base rule.
        let d = trace
            .derivation(&t, &vec![Term::int(1), Term::int(2)])
            .unwrap();
        assert_eq!(d.body.len(), 1);
        // The proof tree renders every level.
        let tree = trace.proof_tree(&t, &tuple);
        assert!(tree.contains("[source fact]"), "{tree}");
        assert!(tree.contains("[via "), "{tree}");
    }

    #[test]
    fn tracing_does_not_change_answers() {
        let prog = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let db = Database::parse("e(1, 2). e(2, 1). e(2, 3).").unwrap();
        let plain = evaluate(&prog, &db, &EvalOptions::default()).unwrap();
        let (traced, trace) = evaluate_traced(&prog, &db, &EvalOptions::default()).unwrap();
        assert_eq!(plain.facts(), traced.facts());
        // Every derived fact has a recorded derivation.
        for fact in traced.facts() {
            assert!(trace.derivation(&fact.pred, &fact.args).is_some(), "{fact}");
        }
    }

    #[test]
    fn reordering_agrees_with_textual_order() {
        // Deliberately bad textual order: the unselective cross-product
        // atom first. Reordering must not change the answer set.
        let prog = "q(X, Z) :- big(U, V), e(X, Y), e(Y, Z), lab(Z, red).";
        let facts = "e(1, 2). e(2, 3). e(3, 4). lab(3, red). lab(4, blue). \
                     big(a, b). big(b, c). big(c, d). big(d, e).";
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let p = parse_program(prog).unwrap();
            let db = Database::parse(facts).unwrap();
            let ordered = evaluate(
                &p,
                &db,
                &EvalOptions {
                    strategy,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            let textual = evaluate(
                &p,
                &db,
                &EvalOptions {
                    strategy,
                    reorder: false,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(ordered.facts(), textual.facts(), "{strategy:?}");
            assert_eq!(ordered.len_of(&Symbol::new("q")), 1, "{strategy:?}");
        }
    }

    #[test]
    fn reordering_probes_indexes_instead_of_scanning() {
        use std::sync::Arc;
        // With reordering, the selective `lab(Z, red)` atom (constant) goes
        // first and the `e` atoms are reached through index probes; the
        // textual plan scans `big` × `e` first.
        let prog = "q(X) :- big(U, V), e(X, Y), lab(Y, red).";
        let facts = "e(1, 2). e(2, 3). lab(2, red). \
                     big(a, b). big(b, c). big(c, d). big(d, e).";
        let count_scans = |reorder: bool| {
            let rec = Arc::new(qc_obs::PipelineRecorder::new());
            {
                let _g = qc_obs::install(rec.clone());
                let p = parse_program(prog).unwrap();
                let db = Database::parse(facts).unwrap();
                evaluate(
                    &p,
                    &db,
                    &EvalOptions {
                        reorder,
                        ..EvalOptions::default()
                    },
                )
                .unwrap();
            }
            (
                rec.counters().get(qc_obs::Counter::EvalFullScans),
                rec.counters().get(qc_obs::Counter::EvalIndexProbes),
            )
        };
        let (scans_ordered, probes_ordered) = count_scans(true);
        let (scans_textual, _) = count_scans(false);
        assert!(
            scans_ordered < scans_textual,
            "ordered {scans_ordered} !< textual {scans_textual}"
        );
        assert!(probes_ordered > 0);
    }

    #[test]
    fn mutual_recursion() {
        let prog = "even(0). odd(Y) :- succ(X, Y), even(X). even(Y) :- succ(X, Y), odd(X).";
        let facts = "succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).";
        for s in [Strategy::Naive, Strategy::SemiNaive] {
            let idb = eval_str(prog, facts, s);
            assert_eq!(idb.len_of(&Symbol::new("even")), 3, "{s:?}");
            assert_eq!(idb.len_of(&Symbol::new("odd")), 2, "{s:?}");
        }
    }
}
