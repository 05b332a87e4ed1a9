//! Compiled relational-algebra evaluation: batch semi-naive fixpoints
//! with magic sets.
//!
//! The tuple-at-a-time engine in [`crate::eval`] re-interprets every rule
//! body per candidate tuple: each fixpoint round walks a backtracking
//! search whose per-node costs (environment scans, comparison bookkeeping
//! sets, per-candidate closures) repeat work that depends only on the rule,
//! not the data. This module compiles each rule **once** into a linear
//! pipeline of relational-algebra steps — scan, select (constants,
//! intra-atom duplicates, grounded comparisons), join, project — and then
//! evaluates the pipeline over *batches* of flat `Vec<u32>` rows of
//! interned value ids.
//!
//! Three things are baked in at compile time:
//!
//! * **join order** — the same greedy most-bound-first heuristic the tuple
//!   engine uses, except sized statically (delta operands are preferred on
//!   ties, since a delta window is almost always the smallest input);
//! * **index choice** — which argument positions of each atom are bound by
//!   constants or earlier pipeline columns, i.e. which per-position hash
//!   indexes of the [`Relation`] can serve the join;
//! * **delta variants** — one compiled plan per rule for round 0 (all
//!   operands `Full`) plus one per IDB body occurrence for the semi-naive
//!   rounds (`Delta` at the focus, `Full` before it, `Old` after it), the
//!   classic rewriting of [`crate::eval`]'s `seminaive_inner`.
//!
//! At evaluation time each step either probes per-position indexes
//! (selective constants, small batches) or builds a multi-column hash
//! table over its snapshot window and streams the batch through it — a
//! batch hash join with no per-tuple allocation.
//!
//! [`answers`] additionally applies a **magic-sets rewrite** before the
//! fixpoint: the program is adorned starting from the answer predicate
//! (left-to-right sideways information passing), demand (`magic`)
//! predicates guard every adorned rule, and only tuples reachable from the
//! query's binding pattern are derived. A predicate that is also demanded
//! all-free is derived once, in full, for every call to it; when no call
//! is left binding an argument the plain program runs instead. Probes
//! against a magic relation that find no demand are counted as
//! `ra_magic_pruned_tuples`.
//!
//! The module is deliberately *answer-equivalent* to [`crate::eval`]: the
//! same fixpoint (bit-identical relations) for [`evaluate`], the same
//! answer relation for [`answers`], and the same error behaviour for
//! unsafe rules, range-restriction violations, and resource limits. The
//! tuple engine remains the differential oracle (see
//! `qc-mediator/tests/ra_differential.rs`).

use std::collections::{BTreeSet, HashMap};

use crate::eval::{EvalError, EvalOptions, Snapshots, Source};
use crate::fx::FxHashMap;
use crate::{
    value, Atom, Comparison, Database, Literal, Program, Relation, Rule, Symbol, Term, Var,
};

// ---------------------------------------------------------------------------
// Compile-time support check
// ---------------------------------------------------------------------------

/// Whether the RA compiler can express every rule of `program`: body atom
/// arguments must be plain variables or ground terms. Non-ground function
/// terms in *heads* are fine (Skolem construction); in *bodies* they need
/// the tuple engine's destructuring matcher.
pub(crate) fn supports(program: &Program) -> bool {
    program.rules().iter().all(|r| {
        r.body_atoms().all(|a| {
            a.args
                .iter()
                .all(|t| matches!(t, Term::Var(_)) || t.is_ground())
        })
    })
}

// ---------------------------------------------------------------------------
// IR: one compiled rule variant
// ---------------------------------------------------------------------------

/// Head construction for one output position.
enum HeadOut {
    /// Copy a pipeline column.
    Col(usize),
    /// A pre-interned ground term.
    Val(u32),
    /// A non-ground function term (Skolem): ground from columns per row,
    /// then intern.
    Tree(Term),
}

/// One pipeline step: join the current batch with a snapshot window of one
/// body atom, applying its selections.
struct AtomStep {
    pred: Symbol,
    /// Which snapshot window this operand reads (the delta variant).
    source: Source,
    arity: usize,
    /// Positions bound to pre-interned ground terms.
    consts: Vec<(usize, u32)>,
    /// Positions bound by an existing batch column: `(position, column)`.
    bound: Vec<(usize, usize)>,
    /// Positions introducing a new column: `(position, column)`, columns
    /// appended in order.
    intro: Vec<(usize, usize)>,
    /// Intra-atom repeated variables: `(position, earlier position)`.
    dup: Vec<(usize, usize)>,
    /// Comparison indexes fully grounded once this step's columns exist.
    comps: Vec<usize>,
    /// Whether this atom reads a magic (demand) relation — misses are
    /// counted as pruned derivations.
    is_magic: bool,
}

/// A rule compiled against one Delta/Old/Full source assignment.
struct CompiledRule {
    head_pred: Symbol,
    /// `None` when some head variable never occurs in the body (unsafe
    /// rule): emission raises `NonGroundHead`.
    head: Option<Vec<HeadOut>>,
    steps: Vec<AtomStep>,
    /// Variable → pipeline column, for comparisons and head trees.
    cols_of: FxHashMap<Var, usize>,
    comparisons: Vec<Comparison>,
    /// Comparisons with no variables: checked once before the pipeline.
    pre_comps: Vec<usize>,
    /// First comparison (textual order) that can never be grounded by the
    /// body: emission raises `UnboundComparison`.
    unbound_comp: Option<String>,
    /// Rendered rule, for `NonGroundHead`.
    display: String,
    /// For delta variants: the focused predicate (skip when its delta is
    /// empty).
    focus: Option<Symbol>,
}

/// A compiled program: the round-0 plans and the per-focus delta plans.
struct RaProgram {
    round0: Vec<CompiledRule>,
    delta: Vec<CompiledRule>,
    idb_preds: BTreeSet<Symbol>,
}

fn term_bound(t: &Term, bound: &BTreeSet<Var>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::Const(_) => true,
        Term::App(_, args) => args.iter().all(|a| term_bound(a, bound)),
    }
}

/// Compiles one rule variant. Join order is chosen greedily at compile
/// time: most bound positions first, preferring the delta operand on ties
/// (statically the smallest window), then textual order — the static
/// analogue of the tuple engine's runtime-sized reordering.
fn compile_rule(
    rule: &Rule,
    occ_source: &dyn Fn(usize) -> Source,
    focus: Option<Symbol>,
    magic_preds: Option<&BTreeSet<Symbol>>,
) -> CompiledRule {
    let mut atoms: Vec<(usize, &Atom)> = rule
        .body
        .iter()
        .filter_map(Literal::as_atom)
        .enumerate()
        .collect();
    let comparisons: Vec<Comparison> = rule
        .body
        .iter()
        .filter_map(Literal::as_comparison)
        .cloned()
        .collect();

    if atoms.len() > 1 {
        let mut bound: BTreeSet<Var> = BTreeSet::new();
        for k in 0..atoms.len() {
            let best = (k..atoms.len())
                .min_by_key(|&i| {
                    let (occ, atom) = atoms[i];
                    let ground = atom.args.iter().filter(|a| term_bound(a, &bound)).count();
                    (
                        usize::from(ground == 0),
                        atom.args.len() - ground,
                        usize::from(occ_source(occ) != Source::Delta),
                        occ,
                    )
                })
                .expect("nonempty suffix");
            atoms.swap(k, best);
            atoms[k].1.collect_vars(&mut bound);
        }
    }

    let mut cols_of: FxHashMap<Var, usize> = FxHashMap::default();
    let mut steps: Vec<AtomStep> = Vec::with_capacity(atoms.len());
    for (occ, atom) in &atoms {
        let mut consts = Vec::new();
        let mut bound = Vec::new();
        let mut intro = Vec::new();
        let mut dup = Vec::new();
        let mut intro_pos: FxHashMap<Var, usize> = FxHashMap::default();
        for (pos, arg) in atom.args.iter().enumerate() {
            match arg {
                Term::Var(v) => {
                    if let Some(&first) = intro_pos.get(v) {
                        dup.push((pos, first));
                    } else if let Some(&col) = cols_of.get(v) {
                        bound.push((pos, col));
                    } else {
                        let col = cols_of.len();
                        cols_of.insert(*v, col);
                        intro.push((pos, col));
                        intro_pos.insert(*v, pos);
                    }
                }
                t => consts.push((pos, value::intern(t))),
            }
        }
        steps.push(AtomStep {
            pred: atom.pred,
            source: occ_source(*occ),
            arity: atom.args.len(),
            consts,
            bound,
            intro,
            dup,
            comps: Vec::new(),
            is_magic: magic_preds.is_some_and(|m| m.contains(&atom.pred)),
        });
    }

    // Assign each comparison to the earliest step after which all its
    // variables have columns (columns are introduced monotonically, so a
    // comparison is ground right after the step introducing its highest
    // column). Variable-free comparisons run before the pipeline;
    // never-groundable ones poison emission, mirroring the tuple engine's
    // first-in-textual-order `UnboundComparison`.
    let mut pre_comps = Vec::new();
    let mut unbound_comp = None;
    for (ci, c) in comparisons.iter().enumerate() {
        let vars = c.vars();
        if vars.is_empty() {
            pre_comps.push(ci);
            continue;
        }
        if !vars.iter().all(|v| cols_of.contains_key(v)) {
            if unbound_comp.is_none() {
                unbound_comp = Some(c.to_string());
            }
            continue;
        }
        let max_col = vars.iter().map(|v| cols_of[v]).max().expect("nonempty");
        let mut cols_seen = 0usize;
        for step in steps.iter_mut() {
            cols_seen += step.intro.len();
            if cols_seen > max_col {
                step.comps.push(ci);
                break;
            }
        }
    }

    // Head outputs.
    let mut head = Some(Vec::with_capacity(rule.head.args.len()));
    for t in &rule.head.args {
        let out = match t {
            Term::Var(v) => cols_of.get(v).map(|&c| HeadOut::Col(c)),
            _ if t.is_ground() => Some(HeadOut::Val(value::intern(t))),
            _ => {
                let mut vars = BTreeSet::new();
                t.collect_vars(&mut vars);
                vars.iter()
                    .all(|v| cols_of.contains_key(v))
                    .then(|| HeadOut::Tree(t.clone()))
            }
        };
        match (out, head.as_mut()) {
            (Some(o), Some(h)) => h.push(o),
            _ => head = None,
        }
    }

    qc_obs::count(qc_obs::Counter::RaRulesCompiled, 1);
    CompiledRule {
        head_pred: rule.head.pred,
        head,
        steps,
        cols_of,
        comparisons,
        pre_comps,
        unbound_comp,
        display: rule.to_string(),
        focus,
    }
}

/// Compiles every rule of `program`: the round-0 all-`Full` variant plus
/// one delta variant per IDB body occurrence.
fn compile_program(program: &Program, magic_preds: Option<&BTreeSet<Symbol>>) -> RaProgram {
    let _t = qc_obs::time(qc_obs::Hist::RaCompileNs);
    let idb_preds = program.idb_preds();
    let mut round0 = Vec::new();
    let mut delta = Vec::new();
    for rule in program.rules() {
        round0.push(compile_rule(rule, &|_| Source::Full, None, magic_preds));
        let idb_occs: Vec<usize> = rule
            .body_atoms()
            .enumerate()
            .filter(|(_, a)| idb_preds.contains(&a.pred))
            .map(|(i, _)| i)
            .collect();
        for &focus in &idb_occs {
            let focused_pred = rule.body_atoms().nth(focus).expect("occ").pred;
            let occs = idb_occs.clone();
            let source = move |occ: usize| -> Source {
                if !occs.contains(&occ) || occ < focus {
                    Source::Full
                } else if occ == focus {
                    Source::Delta
                } else {
                    Source::Old
                }
            };
            delta.push(compile_rule(rule, &source, Some(focused_pred), magic_preds));
        }
    }
    RaProgram {
        round0,
        delta,
        idb_preds,
    }
}

// ---------------------------------------------------------------------------
// Batch evaluation
// ---------------------------------------------------------------------------

/// A batch of intermediate rows: row-major interned ids, `width` columns.
/// The row count is explicit so the zero-column unit batch (one row, no
/// columns — the pipeline seed) works.
struct Batch {
    data: Vec<u32>,
    width: usize,
    rows: usize,
}

impl Batch {
    fn unit() -> Batch {
        Batch {
            data: Vec::new(),
            width: 0,
            rows: 1,
        }
    }

    fn empty(width: usize) -> Batch {
        Batch {
            data: Vec::new(),
            width,
            rows: 0,
        }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.width..i * self.width + self.width]
    }
}

/// Grounds a term from a pipeline row (callers guarantee every variable
/// has a column).
fn ground_term(t: &Term, cols_of: &FxHashMap<Var, usize>, row: &[u32]) -> Term {
    match t {
        Term::Var(v) => value::resolve(row[cols_of[v]]).clone(),
        Term::Const(_) => t.clone(),
        Term::App(f, args) => Term::App(
            *f,
            args.iter().map(|a| ground_term(a, cols_of, row)).collect(),
        ),
    }
}

/// Evaluates the comparisons of one step against a candidate output row.
fn comps_hold(rule: &CompiledRule, comps: &[usize], row: &[u32]) -> bool {
    comps.iter().all(|&ci| {
        let c = &rule.comparisons[ci];
        let l = ground_term(&c.lhs, &rule.cols_of, row);
        let r = ground_term(&c.rhs, &rule.cols_of, row);
        Comparison::new(l, c.op, r)
            .eval_ground()
            .expect("grounded comparison")
    })
}

/// Hash-join crossover: build a multi-column table over the window once
/// the batch is at least this many rows (below it, per-row index probes
/// win because they reuse the relation's incremental indexes for free).
const HASH_JOIN_MIN_BATCH: usize = 16;

/// Runs one pipeline step: join `cur` with the step's snapshot window.
fn run_step(rule: &CompiledRule, step: &AtomStep, cur: Batch, snaps: &Snapshots<'_>) -> Batch {
    let view = snaps.view(&step.pred, step.source);
    let mut next = Batch::empty(cur.width + step.intro.len());
    if cur.rows == 0 {
        return next;
    }
    if view.len() == 0 || view.rel.arity() != Some(step.arity) {
        if step.is_magic {
            qc_obs::count(qc_obs::Counter::RaMagicPrunedTuples, cur.rows as u64);
        }
        return next;
    }
    let verify_static = |row: &[u32]| -> bool {
        step.consts.iter().all(|&(pos, v)| row[pos] == v)
            && step.dup.iter().all(|&(pos, first)| row[pos] == row[first])
    };
    // Extends one batch row with a matching candidate, filtering by the
    // step's now-ground comparisons.
    let extend = |next: &mut Batch, base: &[u32], row: &[u32]| {
        let start = next.data.len();
        next.data.extend_from_slice(base);
        for &(pos, _) in &step.intro {
            next.data.push(row[pos]);
        }
        if step.comps.is_empty() || comps_hold(rule, &step.comps, &next.data[start..]) {
            next.rows += 1;
        } else {
            next.data.truncate(start);
        }
    };

    if step.bound.is_empty() && step.consts.is_empty() {
        // Cross join with the window (selection on duplicates only).
        qc_obs::count(
            qc_obs::Counter::EvalFullScans,
            (view.len() * cur.rows) as u64,
        );
        for ci in 0..cur.rows {
            let base = cur.row(ci);
            let mut any = false;
            for rid in view.offset..view.limit {
                let row = view.rel.row_ids(rid as u32);
                if verify_static(row) {
                    extend(&mut next, base, row);
                    any = true;
                }
            }
            if !any && step.is_magic {
                qc_obs::count(qc_obs::Counter::RaMagicPrunedTuples, 1);
            }
        }
    } else if step.bound.is_empty() {
        // Constants only: the candidate set is batch-independent, so
        // enumerate it once through the most selective index and reuse it
        // for every batch row.
        let (pos, v) = step
            .consts
            .iter()
            .min_by_key(|&&(pos, v)| view.rel.rows_with_id(pos, v).len())
            .expect("nonempty consts");
        let probe = view.rel.rows_with_id(*pos, *v);
        qc_obs::count(qc_obs::Counter::EvalIndexProbes, probe.len() as u64);
        let cands: Vec<u32> = probe
            .iter()
            .copied()
            .filter(|&rid| {
                let i = rid as usize;
                i >= view.offset && i < view.limit && verify_static(view.rel.row_ids(rid))
            })
            .collect();
        if cands.is_empty() && step.is_magic {
            qc_obs::count(qc_obs::Counter::RaMagicPrunedTuples, cur.rows as u64);
        }
        for ci in 0..cur.rows {
            let base = cur.row(ci);
            for &rid in &cands {
                extend(&mut next, base, view.rel.row_ids(rid));
            }
        }
    } else {
        let full_window = view.offset == 0 && view.limit == view.rel.len();
        if full_window || cur.rows < HASH_JOIN_MIN_BATCH {
            // Full window (or small batch): the relation's persistent
            // per-position indexes already answer the join — building a
            // fresh hash table every fixpoint round would redo work the
            // incremental indexes have paid for once.
            let mut probed = 0u64;
            let mut pruned = 0u64;
            for ci in 0..cur.rows {
                let base = cur.row(ci);
                let probe = step
                    .consts
                    .iter()
                    .copied()
                    .chain(step.bound.iter().map(|&(pos, col)| (pos, base[col])))
                    .min_by_key(|&(pos, v)| view.rel.rows_with_id(pos, v).len())
                    .expect("nonempty probe");
                let rows = view.rel.rows_with_id(probe.0, probe.1);
                probed += rows.len() as u64;
                let mut any = false;
                for &rid in rows {
                    let i = rid as usize;
                    if !full_window && (i < view.offset || i >= view.limit) {
                        continue;
                    }
                    let row = view.rel.row_ids(rid);
                    if verify_static(row)
                        && step.bound.iter().all(|&(pos, col)| row[pos] == base[col])
                    {
                        extend(&mut next, base, row);
                        any = true;
                    }
                }
                if !any {
                    pruned += 1;
                }
            }
            qc_obs::count(qc_obs::Counter::EvalIndexProbes, probed);
            if step.is_magic && pruned > 0 {
                qc_obs::count(qc_obs::Counter::RaMagicPrunedTuples, pruned);
            }
        } else if let [(kpos, kcol)] = step.bound[..] {
            // Partial (delta/old) window, single join column: build a
            // window-restricted table keyed by the raw id — persistent
            // index probes would return rows across the whole relation
            // and range-filter most of them away.
            qc_obs::count(qc_obs::Counter::EvalFullScans, view.len() as u64);
            let mut table: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for rid in view.offset..view.limit {
                let row = view.rel.row_ids(rid as u32);
                if verify_static(row) {
                    table.entry(row[kpos]).or_default().push(rid as u32);
                }
            }
            let mut probed = 0u64;
            let mut pruned = 0u64;
            for ci in 0..cur.rows {
                let base = cur.row(ci);
                match table.get(&base[kcol]) {
                    Some(rids) => {
                        probed += rids.len() as u64;
                        for &rid in rids {
                            extend(&mut next, base, view.rel.row_ids(rid));
                        }
                    }
                    None => pruned += 1,
                }
            }
            qc_obs::count(qc_obs::Counter::EvalIndexProbes, probed);
            if step.is_magic && pruned > 0 {
                qc_obs::count(qc_obs::Counter::RaMagicPrunedTuples, pruned);
            }
        } else {
            // Partial window, multi-column join key.
            qc_obs::count(qc_obs::Counter::EvalFullScans, view.len() as u64);
            let mut table: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
            for rid in view.offset..view.limit {
                let row = view.rel.row_ids(rid as u32);
                if verify_static(row) {
                    let key: Vec<u32> = step.bound.iter().map(|&(pos, _)| row[pos]).collect();
                    table.entry(key).or_default().push(rid as u32);
                }
            }
            let mut key: Vec<u32> = Vec::with_capacity(step.bound.len());
            let mut probed = 0u64;
            let mut pruned = 0u64;
            for ci in 0..cur.rows {
                let base = cur.row(ci);
                key.clear();
                key.extend(step.bound.iter().map(|&(_, col)| base[col]));
                match table.get(key.as_slice()) {
                    Some(rids) => {
                        probed += rids.len() as u64;
                        for &rid in rids {
                            extend(&mut next, base, view.rel.row_ids(rid));
                        }
                    }
                    None => pruned += 1,
                }
            }
            qc_obs::count(qc_obs::Counter::EvalIndexProbes, probed);
            if step.is_magic && pruned > 0 {
                qc_obs::count(qc_obs::Counter::RaMagicPrunedTuples, pruned);
            }
        }
    }
    next
}

/// Runs one compiled rule variant, appending derived head rows to `fresh`.
fn run_rule(
    rule: &CompiledRule,
    snaps: &Snapshots<'_>,
    opts: &EvalOptions,
    fresh: &mut Vec<(Symbol, Vec<u32>)>,
) -> Result<(), EvalError> {
    // Variable-free comparisons gate the whole pipeline.
    if !comps_hold(rule, &rule.pre_comps, &[]) {
        return Ok(());
    }
    let mut cur = Batch::unit();
    for step in &rule.steps {
        cur = run_step(rule, step, cur, snaps);
        if cur.rows == 0 {
            return Ok(());
        }
    }
    for i in 0..cur.rows {
        // One work unit per rule firing — the same granularity (and the
        // same ordering relative to the safety checks) as the tuple
        // engine, so guard budgets stay reproducible across engines.
        qc_guard::tick(qc_guard::stage::EVAL, 1)?;
        if let Some(c) = &rule.unbound_comp {
            return Err(EvalError::UnboundComparison(c.clone()));
        }
        let Some(head) = &rule.head else {
            return Err(EvalError::NonGroundHead(rule.display.clone()));
        };
        let row = cur.row(i);
        let mut out = Vec::with_capacity(head.len());
        for h in head {
            let id = match h {
                HeadOut::Col(c) => row[*c],
                HeadOut::Val(v) => *v,
                HeadOut::Tree(t) => value::intern(&ground_term(t, &rule.cols_of, row)),
            };
            if value::depth(id) > opts.max_term_depth {
                return Err(EvalError::TermDepthLimit(opts.max_term_depth));
            }
            out.push(id);
        }
        fresh.push((rule.head_pred, out));
    }
    Ok(())
}

/// The semi-naive driver over compiled plans: the same round structure,
/// marks bookkeeping, counters, and limit checks as
/// [`crate::eval`]'s `seminaive_inner`, with compiled pipelines instead of
/// the backtracking join.
fn run_fixpoint(
    compiled: &RaProgram,
    edb: &Database,
    opts: &EvalOptions,
) -> Result<Database, EvalError> {
    let _t = qc_obs::time(qc_obs::Hist::RaEvalNs);
    let mut idb = Database::new();
    let mut marks: HashMap<Symbol, (usize, usize)> = HashMap::new();

    // Round 0: all-Full plans seed facts and EDB-only rules.
    let mut fresh: Vec<(Symbol, Vec<u32>)> = Vec::new();
    {
        let snaps = Snapshots {
            edb,
            idb: &idb,
            marks: &marks,
            empty: Relation::new(),
        };
        for rule in &compiled.round0 {
            run_rule(rule, &snaps, opts, &mut fresh)?;
        }
    }
    qc_obs::count(qc_obs::Counter::EvalRuleFirings, fresh.len() as u64);
    let mut seeded = 0u64;
    for (pred, row) in fresh.drain(..) {
        if idb.insert_ids(pred, &row) {
            seeded += 1;
        }
    }
    qc_obs::count(qc_obs::Counter::EvalDerivedFacts, seeded);
    for p in &compiled.idb_preds {
        marks.insert(*p, (0, idb.len_of(p)));
    }

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(EvalError::IterationLimit(opts.max_iterations));
        }
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
        let mut fresh: Vec<(Symbol, Vec<u32>)> = Vec::new();
        {
            let snaps = Snapshots {
                edb,
                idb: &idb,
                marks: &marks,
                empty: Relation::new(),
            };
            for rule in &compiled.delta {
                let focused = rule.focus.expect("delta variant has a focus");
                let (old, full) = marks.get(&focused).copied().unwrap_or((0, 0));
                if old == full {
                    continue;
                }
                run_rule(rule, &snaps, opts, &mut fresh)?;
            }
        }
        for p in &compiled.idb_preds {
            let full = idb.len_of(p);
            marks.insert(*p, (full, full));
        }
        qc_obs::count(qc_obs::Counter::EvalRuleFirings, fresh.len() as u64);
        let mut inserted = 0u64;
        for (pred, row) in fresh {
            if idb.insert_ids(pred, &row) {
                inserted += 1;
            }
        }
        qc_obs::count(qc_obs::Counter::EvalDerivedFacts, inserted);
        for p in &compiled.idb_preds {
            let (old, _) = marks[p];
            marks.insert(*p, (old, idb.len_of(p)));
        }
        if idb.total_len() > opts.max_derived {
            return Err(EvalError::DerivationLimit(opts.max_derived));
        }
    }
}

/// Evaluates `program` on the RA engine (no goal, no magic sets).
pub(crate) fn evaluate(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
) -> Result<Database, EvalError> {
    let compiled = compile_program(program, None);
    run_fixpoint(&compiled, edb, opts)
}

/// Evaluates `program` for `answer` on the RA engine, applying the
/// magic-sets rewrite first when the program shape allows it (the answer
/// predicate is IDB, no IDB predicate doubles as an EDB relation —
/// renaming would break the engines' shared IDB-shadows-EDB convention —
/// and some call binds an argument).
pub(crate) fn answers(
    program: &Program,
    edb: &Database,
    answer: &Symbol,
    opts: &EvalOptions,
) -> Result<Relation, EvalError> {
    if program
        .idb_preds()
        .iter()
        .all(|p| edb.relation(p).is_none())
    {
        if let Some(m) = magic_rewrite(program, answer) {
            let compiled = compile_program(&m.program, Some(&m.magic_preds));
            let idb = run_fixpoint(&compiled, edb, opts)?;
            return Ok(idb.into_relation(&m.answer));
        }
    }
    Ok(evaluate(program, edb, opts)?.into_relation(answer))
}

// ---------------------------------------------------------------------------
// Magic sets
// ---------------------------------------------------------------------------

/// The magic-sets rewrite of a program for one answer predicate.
struct MagicProgram {
    program: Program,
    /// The adorned answer predicate (all-free adornment).
    answer: Symbol,
    /// The demand predicates, for pruned-probe accounting.
    magic_preds: BTreeSet<Symbol>,
}

fn ad_str(ad: &[bool]) -> String {
    ad.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

fn adorned_sym(pred: &Symbol, ad: &[bool]) -> Symbol {
    Symbol::new(format!("{pred}__adn_{}", ad_str(ad)))
}

fn magic_sym(pred: &Symbol, ad: &[bool]) -> Symbol {
    Symbol::new(format!("{pred}__mag_{}", ad_str(ad)))
}

/// One rule of the adorned program: `rule` read with head adornment `ad`.
struct AdornedRule<'a> {
    rule: &'a Rule,
    ad: Vec<bool>,
    /// The callee and adornment of each IDB body atom, in body order.
    calls: Vec<(Symbol, Vec<bool>)>,
}

/// Adorns `program` starting from `answer` (every position free) with
/// left-to-right sideways information passing. A call to a predicate in
/// `full` is adorned all-free whatever it binds: that predicate is derived
/// in full anyway. Returns the adorned rules in the order the rewrite
/// emits them.
fn adorn<'a>(
    program: &'a Program,
    idb: &BTreeSet<Symbol>,
    bindable: &HashMap<Symbol, Vec<bool>>,
    answer: Symbol,
    answer_arity: usize,
    full: &BTreeSet<Symbol>,
) -> Vec<AdornedRule<'a>> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(Symbol, Vec<bool>)> = BTreeSet::new();
    let mut queue: Vec<(Symbol, Vec<bool>)> = vec![(answer, vec![false; answer_arity])];
    while let Some((p, ad)) = queue.pop() {
        if !seen.insert((p, ad.clone())) {
            continue;
        }
        for rule in program.rules().iter().filter(|r| r.head.pred == p) {
            if rule.head.args.len() != ad.len() {
                continue; // arity-mismatched call: derives nothing
            }
            let mut bound: BTreeSet<Var> = BTreeSet::new();
            for (t, _) in rule.head.args.iter().zip(&ad).filter(|(_, &b)| b) {
                if let Term::Var(v) = t {
                    bound.insert(*v);
                }
            }
            let mut calls = Vec::new();
            for a in rule.body_atoms() {
                if idb.contains(&a.pred) {
                    let able = bindable.get(&a.pred).map_or(&[][..], Vec::as_slice);
                    let call_ad: Vec<bool> = a
                        .args
                        .iter()
                        .enumerate()
                        .map(|(i, t)| {
                            !full.contains(&a.pred)
                                && able.get(i).copied().unwrap_or(false)
                                && t.vars().iter().all(|v| bound.contains(v))
                        })
                        .collect();
                    queue.push((a.pred, call_ad.clone()));
                    calls.push((a.pred, call_ad));
                }
                bound.extend(a.vars());
            }
            out.push(AdornedRule {
                rule,
                ad: ad.clone(),
                calls,
            });
        }
    }
    out
}

/// Rewrites `program` for `answer` with magic sets: adorned predicates
/// `{p}__adn_{ad}` guarded by demand predicates `{p}__mag_{ad}`, seeded
/// with the answer wanted with every position free. Comparisons never join
/// magic-rule bodies — demand relations may over-approximate, which is
/// sound.
///
/// *Subsumption:* a predicate demanded with every argument free is derived
/// in full anyway, so every call to it — bound or not — reads that one
/// all-free copy instead of deriving a second, bound-adorned one. Forcing
/// a predicate free only frees more of its callees' arguments, so the set
/// of such predicates grows to a fixpoint.
///
/// Returns `None` when the rewrite does not apply: `answer` has no rules,
/// its rules disagree on arity, or no call in the adorned program binds an
/// argument — the rewrite would only add guards to the plain fixpoint.
///
/// The analysis is static: when a predicate's all-free demand never fires
/// at run time, its bound calls still read the full copy they would
/// otherwise have derived selectively.
fn magic_rewrite(program: &Program, answer: &Symbol) -> Option<MagicProgram> {
    let idb = program.idb_preds();
    if !idb.contains(answer) {
        return None;
    }
    // A position of an IDB predicate is *bindable* when every rule head
    // carries a plain variable or a ground term there: binding a position
    // whose head term is a non-ground function term would put a
    // destructuring pattern into a transformed body, which the RA engine
    // does not evaluate.
    let mut bindable: HashMap<Symbol, Vec<bool>> = HashMap::new();
    for p in &idb {
        let mut rules = program.rules_for(p);
        let first = rules.next().expect("idb pred has a rule");
        let mut b: Vec<bool> = first
            .head
            .args
            .iter()
            .map(|t| matches!(t, Term::Var(_)) || t.is_ground())
            .collect();
        for r in rules {
            if r.head.args.len() != b.len() {
                // Arity disagreement: leave this predicate entirely free.
                b = Vec::new();
                break;
            }
            for (i, t) in r.head.args.iter().enumerate() {
                b[i] = b[i] && (matches!(t, Term::Var(_)) || t.is_ground());
            }
        }
        bindable.insert(*p, b);
    }

    let answer_arity = program.rules_for(answer).next()?.head.args.len();
    if program
        .rules_for(answer)
        .any(|r| r.head.args.len() != answer_arity)
    {
        return None;
    }

    let binds = |ad: &[bool]| ad.contains(&true);
    let mut full: BTreeSet<Symbol> = BTreeSet::from([*answer]);
    let adorned = loop {
        let adorned = adorn(program, &idb, &bindable, *answer, answer_arity, &full);
        let before = full.len();
        full.extend(
            adorned
                .iter()
                .flat_map(|r| &r.calls)
                .filter(|(_, ad)| !binds(ad))
                .map(|(p, _)| *p),
        );
        if full.len() == before {
            break adorned;
        }
    };
    if !adorned
        .iter()
        .flat_map(|r| &r.calls)
        .any(|(_, ad)| binds(ad))
    {
        return None;
    }

    let seed_ad = vec![false; answer_arity];
    let seed_magic = magic_sym(answer, &seed_ad);
    let mut magic_preds = BTreeSet::from([seed_magic]);
    // Demand seed: the answer is wanted with every position free.
    let mut out = vec![Rule::new(
        Atom {
            pred: seed_magic,
            args: Vec::new(),
        },
        Vec::new(),
    )];
    for AdornedRule { rule, ad, calls } in &adorned {
        let p_magic = magic_sym(&rule.head.pred, ad);
        magic_preds.insert(p_magic);
        let guard = Atom {
            pred: p_magic,
            args: bound_args(&rule.head.args, ad),
        };
        let mut calls = calls.iter();
        let mut prefix: Vec<Atom> = vec![guard.clone()];
        let mut body: Vec<Literal> = vec![Literal::Atom(guard)];
        for lit in &rule.body {
            match lit {
                Literal::Comp(c) => body.push(Literal::Comp(c.clone())),
                Literal::Atom(a) if !idb.contains(&a.pred) => {
                    body.push(Literal::Atom(a.clone()));
                    prefix.push(a.clone());
                }
                Literal::Atom(a) => {
                    let (_, call_ad) = calls.next().expect("one adornment per IDB call");
                    // Demand rule: the bound arguments of this call are
                    // wanted whenever the prefix matches.
                    let m = magic_sym(&a.pred, call_ad);
                    magic_preds.insert(m);
                    out.push(Rule::new(
                        Atom {
                            pred: m,
                            args: bound_args(&a.args, call_ad),
                        },
                        prefix.iter().cloned().map(Literal::Atom).collect(),
                    ));
                    let adorned = Atom {
                        pred: adorned_sym(&a.pred, call_ad),
                        args: a.args.clone(),
                    };
                    prefix.push(adorned.clone());
                    body.push(Literal::Atom(adorned));
                }
            }
        }
        out.push(Rule::new(
            Atom {
                pred: adorned_sym(&rule.head.pred, ad),
                args: rule.head.args.clone(),
            },
            body,
        ));
    }

    Some(MagicProgram {
        program: Program::new(out),
        answer: adorned_sym(answer, &seed_ad),
        magic_preds,
    })
}

/// The arguments at the bound positions of an adornment.
fn bound_args(args: &[Term], ad: &[bool]) -> Vec<Term> {
    args.iter()
        .zip(ad)
        .filter(|(_, &b)| b)
        .map(|(t, _)| t.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{answers as eval_answers, evaluate as eval_evaluate, EvalEngine};
    use crate::parse_program;

    fn ra_opts() -> EvalOptions {
        EvalOptions {
            engine: EvalEngine::Ra,
            ..EvalOptions::default()
        }
    }

    fn tuple_opts() -> EvalOptions {
        EvalOptions {
            engine: EvalEngine::Tuple,
            ..EvalOptions::default()
        }
    }

    #[test]
    fn ra_matches_tuple_on_transitive_closure() {
        let p = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let db = Database::parse("e(1, 2). e(2, 3). e(3, 4). e(4, 2).").unwrap();
        let a = eval_evaluate(&p, &db, &ra_opts()).unwrap();
        let b = eval_evaluate(&p, &db, &tuple_opts()).unwrap();
        assert_eq!(a.facts(), b.facts());
    }

    #[test]
    fn ra_handles_constants_duplicates_and_comparisons() {
        let p = parse_program(
            "q(X) :- e(X, X), lab(X, red), X < 9. r(X, Y) :- e(X, Y), e(Y, X), X != Y.",
        )
        .unwrap();
        let db = Database::parse("e(1, 1). e(2, 3). e(3, 2). e(9, 9). lab(1, red). lab(9, red).")
            .unwrap();
        let a = eval_evaluate(&p, &db, &ra_opts()).unwrap();
        let b = eval_evaluate(&p, &db, &tuple_opts()).unwrap();
        assert_eq!(a.facts(), b.facts());
        assert_eq!(a.len_of(&Symbol::new("q")), 1);
        assert_eq!(a.len_of(&Symbol::new("r")), 2);
    }

    #[test]
    fn ra_constructs_function_heads() {
        let p = parse_program("CarDesc(C, M, f(C, M, Y), Y) :- AntiqueCars(C, M, Y).").unwrap();
        let db = Database::parse("AntiqueCars(c1, ford, 1960).").unwrap();
        let a = eval_evaluate(&p, &db, &ra_opts()).unwrap();
        let b = eval_evaluate(&p, &db, &tuple_opts()).unwrap();
        assert_eq!(a.facts(), b.facts());
    }

    #[test]
    fn ra_depth_limit_matches_tuple() {
        let p = parse_program("n(0). n(f(X)) :- n(X).").unwrap();
        let opts = EvalOptions {
            max_term_depth: 5,
            ..ra_opts()
        };
        let err = eval_evaluate(&p, &Database::new(), &opts).unwrap_err();
        assert!(matches!(err, EvalError::TermDepthLimit(5)));
    }

    #[test]
    fn ra_unsupported_body_patterns_fall_back() {
        // `mk(f(X))` in a body needs destructuring: supports() is false and
        // the router keeps the tuple engine even when RA is forced.
        let p = parse_program("mk(f(X)) :- n(X). un(X) :- mk(f(X)).").unwrap();
        assert!(!supports(&p));
        let db = Database::parse("n(1). n(2).").unwrap();
        let idb = eval_evaluate(&p, &db, &ra_opts()).unwrap();
        assert_eq!(idb.len_of(&Symbol::new("un")), 2);
    }

    #[test]
    fn ra_zero_ary_heads_and_empty_bodies() {
        let p = parse_program("q() :- e(X, Y), X != Y. base(7).").unwrap();
        let db = Database::parse("e(1, 1). e(1, 2).").unwrap();
        let a = eval_evaluate(&p, &db, &ra_opts()).unwrap();
        assert_eq!(a.len_of(&Symbol::new("q")), 1);
        assert_eq!(a.len_of(&Symbol::new("base")), 1);
    }

    #[test]
    fn magic_answers_match_plain_answers() {
        let prog = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). q(Y) :- t(c0, Y).";
        let p = parse_program(prog).unwrap();
        let db =
            Database::parse("e(c0, c1). e(c1, c2). e(c2, c3). e(d0, d1). e(d1, d2). e(d2, d0).")
                .unwrap();
        let q = Symbol::new("q");
        let magic = eval_answers(&p, &db, &q, &ra_opts()).unwrap();
        let plain = eval_answers(&p, &db, &q, &tuple_opts()).unwrap();
        assert_eq!(magic.len(), plain.len());
        for t in plain.tuples() {
            assert!(magic.contains(&t), "{t:?}");
        }
    }

    #[test]
    fn magic_derives_fewer_tuples_on_seeded_queries() {
        // Two disconnected components; the query is seeded in one of them.
        // Magic sets must not explore the other.
        let prog = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). q(Y) :- t(c0, Y).";
        let p = parse_program(prog).unwrap();
        let mut facts = String::new();
        for i in 0..16 {
            facts.push_str(&format!("e(c{}, c{}). e(d{}, d{}). ", i, i + 1, i, i + 1));
        }
        let db = Database::parse(&facts).unwrap();
        let q = Symbol::new("q");
        let (magic_rel, magic_derived, _) = with_magic(&p, &db, &q);
        let (plain_rel, plain_derived, _) = without_magic(&p, &db, &q);
        assert_eq!(magic_rel.len(), plain_rel.len());
        assert!(
            magic_derived < plain_derived,
            "magic {magic_derived} !< plain {plain_derived}"
        );
    }

    /// Runs `run` under a fresh recorder: the relation it returns,
    /// `eval_derived_facts` and `ra_magic_pruned_tuples`.
    fn counted(run: impl FnOnce() -> Relation) -> (Relation, u64, u64) {
        let rec = std::sync::Arc::new(qc_obs::PipelineRecorder::new());
        let rel = {
            let _g = qc_obs::install(rec.clone());
            run()
        };
        let c = rec.counters();
        (
            rel,
            c.get(qc_obs::Counter::EvalDerivedFacts),
            c.get(qc_obs::Counter::RaMagicPrunedTuples),
        )
    }

    /// `q` through `answers` on the RA engine: magic sets wherever a call
    /// binds an argument.
    fn with_magic(p: &Program, db: &Database, q: &Symbol) -> (Relation, u64, u64) {
        counted(|| eval_answers(p, db, q, &ra_opts()).unwrap())
    }

    /// The plain RA fixpoint read at `q`: `evaluate` has no goal, so it
    /// never rewrites.
    fn without_magic(p: &Program, db: &Database, q: &Symbol) -> (Relation, u64, u64) {
        counted(|| eval_evaluate(p, db, &ra_opts()).unwrap().into_relation(q))
    }

    /// `q` answered with magic sets on must cost exactly the plain
    /// fixpoint: no call binds an argument, so there is nothing to prune.
    fn assert_all_free_query_runs_plain(prog: &str, q: &str, facts: &str) {
        let p = parse_program(prog).unwrap();
        let db = Database::parse(facts).unwrap();
        let q = Symbol::new(q);
        assert!(magic_rewrite(&p, &q).is_none(), "{prog}");
        let (magic, magic_derived, pruned) = with_magic(&p, &db, &q);
        let (plain, plain_derived, _) = without_magic(&p, &db, &q);
        let set = |r: &Relation| r.tuples().into_iter().collect::<BTreeSet<_>>();
        assert_eq!(set(&magic), set(&plain));
        assert!(!plain.is_empty());
        assert_eq!(magic_derived, plain_derived, "{prog}");
        assert_eq!(pruned, 0, "{prog}");
    }

    #[test]
    fn magic_skips_an_all_free_closure() {
        // Sideways passing adorns the recursive call `reach(Y, Z)` as bf,
        // but `reach` is wanted all-free anyway: one copy, no guards.
        assert_all_free_query_runs_plain(
            "reach(X, Y) :- e(X, Y). reach(X, Z) :- e(X, Y), reach(Y, Z).",
            "reach",
            "e(1, 2). e(2, 3). e(3, 4). e(5, 6). e(6, 7).",
        );
    }

    #[test]
    fn magic_skips_an_all_free_two_hop_join() {
        // The inverse-rule plan's shape: the first call wants `e2`
        // all-free, so the second (bound by `Y`) reads the same copy.
        assert_all_free_query_runs_plain(
            "e2(X, Y) :- e(X, Y). q(X, Z) :- e2(X, Y), e2(Y, Z).",
            "q",
            "e(1, 2). e(1, 3). e(2, 3). e(3, 1). e(4, 4).",
        );
    }

    #[test]
    fn subsumption_keeps_the_rewrite_where_a_call_stays_bound() {
        // `t` is demanded all-free, so its second call reads that copy; the
        // seeded call `r(0, W)` still binds, so the rewrite stays.
        let prog = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z). \
                    r(X, Y) :- e(X, Y). r(X, Z) :- e(X, Y), r(Y, Z). \
                    q(X, W) :- t(X, Y), t(Y, Z), r(0, W).";
        let p = parse_program(prog).unwrap();
        let q = Symbol::new("q");
        let m = magic_rewrite(&p, &q).expect("the seeded call keeps the rewrite");
        let heads: BTreeSet<String> = m
            .program
            .rules()
            .iter()
            .map(|r| r.head.pred.to_string())
            .collect();
        assert!(heads.contains("t__adn_ff"), "{heads:?}");
        assert!(!heads.contains("t__adn_bf"), "{heads:?}");
        assert!(heads.contains("r__adn_bf"), "{heads:?}");
        let db = Database::parse("e(0, 1). e(1, 2). e(2, 3). e(7, 8). e(8, 9).").unwrap();
        let (magic, _, pruned) = with_magic(&p, &db, &q);
        let (oracle, _, _) = counted(|| eval_answers(&p, &db, &q, &tuple_opts()).unwrap());
        assert_eq!(magic.len(), oracle.len());
        for t in oracle.tuples() {
            assert!(magic.contains(&t), "{t:?}");
        }
        assert!(pruned > 0, "r's demand must prune the 7-8-9 chain");
    }

    #[test]
    fn magic_handles_mutual_recursion() {
        let prog = "even(0). odd(Y) :- succ(X, Y), even(X). even(Y) :- succ(X, Y), odd(X). \
                    q(X) :- even(X).";
        let p = parse_program(prog).unwrap();
        let db = Database::parse("succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).").unwrap();
        let q = Symbol::new("q");
        let magic = eval_answers(&p, &db, &q, &ra_opts()).unwrap();
        let plain = eval_answers(&p, &db, &q, &tuple_opts()).unwrap();
        assert_eq!(magic.len(), plain.len());
        assert_eq!(magic.len(), 3);
    }

    #[test]
    fn adaptive_routes_recursive_programs_to_ra() {
        let p = parse_program("t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let db = Database::parse("e(1, 2). e(2, 3).").unwrap();
        let rec = std::sync::Arc::new(qc_obs::PipelineRecorder::new());
        {
            let _g = qc_obs::install(rec.clone());
            eval_evaluate(&p, &db, &EvalOptions::default()).unwrap();
        }
        assert!(rec.counters().get(qc_obs::Counter::EvalTierRa) > 0);
        assert!(rec.counters().get(qc_obs::Counter::RaRulesCompiled) > 0);
    }

    #[test]
    fn adaptive_keeps_small_nonrecursive_programs_on_tuple() {
        let p = parse_program("q(X) :- e(X, Y).").unwrap();
        let db = Database::parse("e(1, 2).").unwrap();
        let rec = std::sync::Arc::new(qc_obs::PipelineRecorder::new());
        {
            let _g = qc_obs::install(rec.clone());
            eval_evaluate(&p, &db, &EvalOptions::default()).unwrap();
        }
        assert_eq!(rec.counters().get(qc_obs::Counter::EvalTierRa), 0);
        assert!(rec.counters().get(qc_obs::Counter::EvalTierTuple) > 0);
    }
}
