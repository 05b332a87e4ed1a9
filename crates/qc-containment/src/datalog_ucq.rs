//! Containment of a datalog program in a union of conjunctive queries.
//!
//! This is the decision procedure behind Theorems 3.2 and 4.2 of the
//! paper: deciding `P ⊆ Q` where `P` is a (possibly recursive) datalog
//! program and `Q` is a nonrecursive program, shown decidable by
//! Chaudhuri and Vardi \[11\]. We implement it as a least fixpoint over
//! finite *coverage types* — the fixpoint formulation of the tree-automaton
//! construction:
//!
//! `P ⊆ Q` iff every *expansion* of `P` (the conjunctive query read off a
//! proof tree) is contained in `Q`, i.e. admits a containment mapping from
//! some disjunct of `Q`. Whether a disjunct maps into an expansion built
//! from a rule and sub-expansions depends only on a bounded abstraction of
//! each sub-expansion: which sub-conjunctions `S` of each disjunct embed
//! into it, and how the embedded variables attach to the expansion's
//! *interface* (its head positions and the constants of the vocabulary).
//! These `(disjunct, S, pins)` records form a **type**; the set of types
//! achievable by each IDB predicate is computed as a least fixpoint
//! (monotone, over a finite lattice — doubly exponential in the worst
//! case, matching the problem's 2EXPTIME lower bound). `P ⊆ Q` iff every
//! achievable expansion of the answer predicate is *covered*: some
//! disjunct embeds fully, with its head landing on the expansion's head.
//!
//! Rule heads may repeat variables and mention constants (inverse-rule
//! plans do); caller/callee unification is handled by keying types on the
//! callee's *head pattern* and specializing the calling rule with the mgu,
//! which keeps every rule rectified from the algorithm's point of view.
//!
//! Inputs must be function-free and comparison-free (run the
//! function-term elimination of `qc-mediator` first — the paper does the
//! same before comparing plans).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use qc_datalog::{
    unify_terms_with, Atom, Const, Program, Rule, Subst, Symbol, Term, Ucq, Var, VarGen,
};

use crate::engine;
use crate::memo::cq_contained_memo;

/// Errors from [`datalog_contained_in_ucq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogUcqError {
    /// The program or query contains function terms.
    FunctionTerms,
    /// The program or query contains comparison literals.
    Comparisons,
    /// A disjunct of the target query has more than 32 subgoals.
    TooManyAtoms(usize),
    /// A disjunct of the target query has more than 255 variables.
    TooManyVars(usize),
    /// A resource limit tripped: either a [`FixpointBudget`] dimension
    /// (stages `"fixpoint/iterations"`, `"fixpoint/type_entries"`,
    /// `"fixpoint/types_per_key"`, `"fixpoint/keys"`) or an installed
    /// [`qc_guard::Guard`] limit (stage [`qc_guard::stage::FIXPOINT`]).
    Resource(qc_guard::ResourceError),
    /// The answer predicate's arity disagrees with the target query's.
    ArityMismatch,
}

impl fmt::Display for DatalogUcqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogUcqError::FunctionTerms => {
                write!(
                    f,
                    "inputs must be function-free (eliminate Skolem terms first)"
                )
            }
            DatalogUcqError::Comparisons => write!(f, "inputs must be comparison-free"),
            DatalogUcqError::TooManyAtoms(n) => write!(f, "target disjunct has {n} > 32 subgoals"),
            DatalogUcqError::TooManyVars(n) => write!(f, "target disjunct has {n} > 255 variables"),
            DatalogUcqError::Resource(e) => write!(f, "{e}"),
            DatalogUcqError::ArityMismatch => write!(f, "answer arity differs from target arity"),
        }
    }
}

impl std::error::Error for DatalogUcqError {}

impl From<qc_guard::ResourceError> for DatalogUcqError {
    fn from(e: qc_guard::ResourceError) -> Self {
        DatalogUcqError::Resource(e)
    }
}

/// Resource budgets for the fixpoint (the problem is 2EXPTIME-complete;
/// budgets turn pathological inputs into errors instead of hangs).
#[derive(Debug, Clone, Copy)]
pub struct FixpointBudget {
    /// Max distinct (predicate, head-pattern) type-set keys.
    pub max_keys: usize,
    /// Max types kept per key (antichain size).
    pub max_types_per_key: usize,
    /// Max outer fixpoint iterations.
    pub max_iterations: usize,
    /// Max entries in a single composed type.
    pub max_type_entries: usize,
}

impl Default for FixpointBudget {
    fn default() -> FixpointBudget {
        FixpointBudget {
            max_keys: 4096,
            max_types_per_key: 2048,
            max_iterations: 10_000,
            max_type_entries: 200_000,
        }
    }
}

/// A pin: where an embedded variable of a disjunct attaches.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Pin {
    /// The interface element at this head position.
    Pos(u8),
    /// This constant (which may occur arbitrarily deep in the expansion).
    C(Const),
}

/// One coverage record: disjunct `disj`, subgoal set `mask`, variable
/// attachments `pins` (variables absent from `pins` are unconstrained).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Req {
    disj: u8,
    mask: u32,
    pins: BTreeMap<u8, Pin>,
}

/// The abstraction of one expansion: every realizable coverage record.
type TypeSet = BTreeSet<Req>;

/// A canonical head pattern: constants stay, variables are numbered by
/// first occurrence (capturing repeats).
type Pattern = Vec<PatTerm>;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PatTerm {
    Var(u8),
    C(Const),
}

fn pattern_of(args: &[Term]) -> Pattern {
    let mut seen: Vec<&Var> = Vec::new();
    args.iter()
        .map(|t| match t {
            Term::Var(v) => {
                if let Some(i) = seen.iter().position(|w| *w == v) {
                    PatTerm::Var(i as u8)
                } else {
                    seen.push(v);
                    PatTerm::Var((seen.len() - 1) as u8)
                }
            }
            Term::Const(c) => PatTerm::C(*c),
            Term::App(..) => unreachable!("validated function-free"),
        })
        .collect()
}

fn pattern_template(pat: &Pattern, gen: &mut VarGen) -> Vec<Term> {
    let mut vars: HashMap<u8, Term> = HashMap::new();
    pat.iter()
        .map(|p| match p {
            PatTerm::Var(i) => vars
                .entry(*i)
                .or_insert_with(|| Term::Var(gen.fresh()))
                .clone(),
            PatTerm::C(c) => Term::Const(*c),
        })
        .collect()
}

/// Preprocessed disjunct of the target query.
struct Disj {
    atoms: Vec<Atom>,
    head_args: Vec<Term>,
    var_idx: HashMap<Var, u8>,
    /// Variable indexes per atom.
    atom_vars: Vec<Vec<u8>>,
}

struct Ctx {
    disjuncts: Vec<Disj>,
    idb: BTreeSet<Symbol>,
    consts: Vec<Const>,
    budget: FixpointBudget,
}

/// Callback receiving each realizable `(mask, assignment)` pair.
type OnResult<'a> = dyn FnMut(u32, &HashMap<u8, GVal>) -> Result<(), DatalogUcqError> + 'a;

/// The identity of a specialization choice: per IDB call, the chosen
/// head pattern and child type. Name-independent, so it keys the compose
/// cache across fixpoint iterations (fresh template variables differ each
/// round, but the semantics of the combination does not).
type ComboKey = Vec<(Pattern, TypeSet)>;

/// Callback receiving each specialized rule with its chosen child types
/// and the combination's cache key.
type OnSpec<'a> =
    dyn FnMut(&Rule, &[(&[Term], &TypeSet)], &ComboKey) -> Result<(), DatalogUcqError> + 'a;

/// How a disjunct variable is assigned during placement enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GVal {
    /// A term of the (specialized) rule.
    RT(Term),
    /// Internal to the sub-expansion of child `c`.
    Internal(usize),
}

/// Pin options for delivering value `v` through child `c`'s interface
/// `cargs`.
fn pin_options(cargs: &[Term], v: &Term) -> Vec<Pin> {
    let mut out: Vec<Pin> = cargs
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == v)
        .map(|(l, _)| Pin::Pos(l as u8))
        .collect();
    if let Term::Const(c) = v {
        out.push(Pin::C(*c));
    }
    out
}

/// The placement/assignment enumeration shared by type composition and the
/// top-level coverage check.
///
/// `edb_atoms` are the specialized rule's non-IDB subgoals; `children` are
/// its IDB subgoals with their (already unified) argument lists and chosen
/// child types. For disjunct `di`, enumerates every realizable
/// `(mask, g)`: a subgoal subset and a variable assignment. With
/// `forced_full`, only full masks are produced (used by `covers`), and
/// `seed_g` pre-pins head variables.
#[allow(clippy::too_many_arguments)]
fn enumerate_placements(
    ctx: &Ctx,
    di: usize,
    edb_atoms: &[&Atom],
    children: &[(&[Term], &TypeSet)],
    forced_full: bool,
    seed_g: &HashMap<u8, Term>,
    on_result: &mut OnResult<'_>,
) -> Result<(), DatalogUcqError> {
    let disj = &ctx.disjuncts[di];
    let n = disj.atoms.len();

    // Recursive placement over atoms.
    struct State<'a> {
        g: HashMap<u8, Term>,
        child_mask: Vec<u32>,
        ctx: &'a Ctx,
        disj: &'a Disj,
        di: usize,
        edb_atoms: &'a [&'a Atom],
        children: &'a [(&'a [Term], &'a TypeSet)],
        forced_full: bool,
    }

    fn match_args(
        pat_args: &[Term],
        target_args: &[Term],
        var_idx: &HashMap<Var, u8>,
        g: &mut HashMap<u8, Term>,
        added: &mut Vec<u8>,
    ) -> bool {
        for (p, t) in pat_args.iter().zip(target_args) {
            match p {
                Term::Var(v) => {
                    let xi = var_idx[v];
                    match g.get(&xi) {
                        Some(bound) => {
                            if bound != t {
                                return false;
                            }
                        }
                        None => {
                            g.insert(xi, t.clone());
                            added.push(xi);
                        }
                    }
                }
                Term::Const(_) => {
                    if p != t {
                        return false;
                    }
                }
                Term::App(..) => return false,
            }
        }
        true
    }

    fn place(
        st: &mut State<'_>,
        j: usize,
        mask: u32,
        on_result: &mut OnResult<'_>,
    ) -> Result<(), DatalogUcqError> {
        let n = st.disj.atoms.len();
        if j == n {
            return finish(st, mask, on_result);
        }
        // Option: skip this atom.
        if !st.forced_full {
            place(st, j + 1, mask, on_result)?;
        }
        let atom = &st.disj.atoms[j];
        // Option: map onto an EDB subgoal of the rule.
        for e in st.edb_atoms {
            if e.pred != atom.pred || e.args.len() != atom.args.len() {
                continue;
            }
            let mut added = Vec::new();
            if match_args(&atom.args, &e.args, &st.disj.var_idx, &mut st.g, &mut added) {
                place(st, j + 1, mask | (1 << j), on_result)?;
            }
            for x in added {
                st.g.remove(&x);
            }
        }
        // Option: delegate to a child sub-expansion.
        for c in 0..st.children.len() {
            st.child_mask[c] |= 1 << j;
            place(st, j + 1, mask | (1 << j), on_result)?;
            st.child_mask[c] &= !(1 << j);
        }
        Ok(())
    }

    /// After full placement: assign remaining variables, check child type
    /// membership, report.
    fn finish(
        st: &mut State<'_>,
        mask: u32,
        on_result: &mut OnResult<'_>,
    ) -> Result<(), DatalogUcqError> {
        // Which children host which variables?
        let nvars = st.disj.var_idx.len() as u8;
        let mut hosts: HashMap<u8, Vec<usize>> = HashMap::new();
        for (c, cm) in st.child_mask.iter().enumerate() {
            for j in 0..st.disj.atoms.len() {
                if cm & (1 << j) != 0 {
                    for &x in &st.disj.atom_vars[j] {
                        let h = hosts.entry(x).or_default();
                        if !h.contains(&c) {
                            h.push(c);
                        }
                    }
                }
            }
        }
        // Variables needing assignment: hosted, and not already g-bound.
        let mut free: Vec<u8> = (0..nvars)
            .filter(|x| hosts.contains_key(x) && !st.g.contains_key(x))
            .collect();
        free.sort_unstable();

        // Pre-check: g-bound vars hosted by children must be deliverable.
        for (&x, cs) in &hosts {
            if let Some(v) = st.g.get(&x) {
                for &c in cs {
                    if pin_options(st.children[c].0, v).is_empty() {
                        return Ok(());
                    }
                }
            }
        }

        // Candidate values per free variable.
        let mut options: Vec<(u8, Vec<GVal>)> = Vec::new();
        for &x in &free {
            let cs = &hosts[&x];
            let mut opts: Vec<GVal> = Vec::new();
            if cs.len() == 1 {
                opts.push(GVal::Internal(cs[0]));
            }
            // Shared visible values: interface terms of the first hosting
            // child deliverable to all others, plus every constant of the
            // vocabulary (constants can occur arbitrarily deep).
            let mut cands: Vec<Term> = st.children[cs[0]].0.to_vec();
            for k in &st.ctx.consts {
                let t = Term::Const(*k);
                if !cands.contains(&t) {
                    cands.push(t);
                }
            }
            for v in cands {
                if cs
                    .iter()
                    .all(|&c| !pin_options(st.children[c].0, &v).is_empty())
                    && !opts.contains(&GVal::RT(v.clone()))
                {
                    opts.push(GVal::RT(v));
                }
            }
            if opts.is_empty() {
                return Ok(());
            }
            options.push((x, opts));
        }

        // Enumerate assignments.
        fn assign(
            st: &State<'_>,
            options: &[(u8, Vec<GVal>)],
            k: usize,
            gfull: &mut HashMap<u8, GVal>,
            mask: u32,
            on_result: &mut OnResult<'_>,
        ) -> Result<(), DatalogUcqError> {
            if k == options.len() {
                // Child membership checks.
                for (c, cm) in st.child_mask.iter().enumerate() {
                    if *cm == 0 {
                        continue;
                    }
                    if !child_ok(st, c, *cm, gfull) {
                        return Ok(());
                    }
                }
                return on_result(mask, gfull);
            }
            let (x, opts) = &options[k];
            for o in opts {
                gfull.insert(*x, o.clone());
                assign(st, options, k + 1, gfull, mask, on_result)?;
            }
            gfull.remove(x);
            Ok(())
        }

        /// Does child `c`'s type contain a record for its subgoal set under
        /// the pins forced by `gfull`?
        fn child_ok(st: &State<'_>, c: usize, cm: u32, gfull: &HashMap<u8, GVal>) -> bool {
            let (cargs, ty) = st.children[c];
            // Variables of the child's subgoals with forced pins.
            let mut pin_sets: Vec<(u8, Vec<Pin>)> = Vec::new();
            let mut vars_in: Vec<u8> = Vec::new();
            for j in 0..st.disj.atoms.len() {
                if cm & (1 << j) != 0 {
                    for &x in &st.disj.atom_vars[j] {
                        if !vars_in.contains(&x) {
                            vars_in.push(x);
                        }
                    }
                }
            }
            vars_in.sort_unstable();
            for x in vars_in {
                match gfull.get(&x) {
                    Some(GVal::Internal(ci)) if *ci == c => {} // unpinned
                    Some(GVal::Internal(_)) => return false,   // hosted elsewhere?!
                    Some(GVal::RT(v)) => {
                        let opts = pin_options(cargs, v);
                        if opts.is_empty() {
                            return false;
                        }
                        pin_sets.push((x, opts));
                    }
                    None => return false, // every hosted var must be assigned
                }
            }
            // Try pin combinations.
            fn try_pins(
                ty: &TypeSet,
                di: u8,
                cm: u32,
                pin_sets: &[(u8, Vec<Pin>)],
                k: usize,
                current: &mut BTreeMap<u8, Pin>,
            ) -> bool {
                if k == pin_sets.len() {
                    return ty.contains(&Req {
                        disj: di,
                        mask: cm,
                        pins: current.clone(),
                    });
                }
                let (x, opts) = &pin_sets[k];
                for o in opts {
                    current.insert(*x, o.clone());
                    if try_pins(ty, di, cm, pin_sets, k + 1, current) {
                        current.remove(x);
                        return true;
                    }
                }
                current.remove(&pin_sets[k].0);
                false
            }
            let mut current = BTreeMap::new();
            try_pins(ty, st.di as u8, cm, &pin_sets, 0, &mut current)
        }

        // g-bound vars enter gfull as RT.
        let mut gfull: HashMap<u8, GVal> =
            st.g.iter()
                .map(|(x, v)| (*x, GVal::RT(v.clone())))
                .collect();
        assign(st, &options, 0, &mut gfull, mask, on_result)
    }

    let mut st = State {
        g: seed_g.clone(),
        child_mask: vec![0; children.len()],
        ctx,
        disj: &ctx.disjuncts[di],
        di,
        edb_atoms,
        children,
        forced_full,
    };
    let _ = n;
    place(&mut st, 0, 0, on_result)
}

/// Composes the type of a specialized rule given child types.
fn compose(
    ctx: &Ctx,
    rule: &Rule,
    children: &[(&[Term], &TypeSet)],
    head_terms: &[Term],
) -> Result<TypeSet, DatalogUcqError> {
    let edb_atoms: Vec<&Atom> = rule
        .body_atoms()
        .filter(|a| !ctx.idb.contains(&a.pred))
        .collect();
    let mut ty = TypeSet::new();
    for di in 0..ctx.disjuncts.len() {
        let seed = HashMap::new();
        enumerate_placements(
            ctx,
            di,
            &edb_atoms,
            children,
            false,
            &seed,
            &mut |mask, g| {
                // Emit the family of records: per variable, its pin options.
                let disj = &ctx.disjuncts[di];
                let mut vars_in: Vec<u8> = Vec::new();
                for j in 0..disj.atoms.len() {
                    if mask & (1 << j) != 0 {
                        for &x in &disj.atom_vars[j] {
                            if !vars_in.contains(&x) {
                                vars_in.push(x);
                            }
                        }
                    }
                }
                vars_in.sort_unstable();
                let mut per_var: Vec<(u8, Vec<Option<Pin>>)> = Vec::new();
                for x in vars_in {
                    let mut opts: Vec<Option<Pin>> = vec![None];
                    if let Some(GVal::RT(v)) = g.get(&x) {
                        for (m, h) in head_terms.iter().enumerate() {
                            if h == v {
                                opts.push(Some(Pin::Pos(m as u8)));
                            }
                        }
                        if let Term::Const(c) = v {
                            opts.push(Some(Pin::C(*c)));
                        }
                    }
                    per_var.push((x, opts));
                }
                // Cartesian product of pin selections.
                fn emit(
                    ty: &mut TypeSet,
                    di: u8,
                    mask: u32,
                    per_var: &[(u8, Vec<Option<Pin>>)],
                    k: usize,
                    pins: &mut BTreeMap<u8, Pin>,
                    cap: usize,
                ) -> Result<(), DatalogUcqError> {
                    if ty.len() > cap {
                        return Err(DatalogUcqError::Resource(qc_guard::ResourceError::budget(
                            "fixpoint/type_entries",
                            ty.len() as u64,
                            cap as u64,
                        )));
                    }
                    if k == per_var.len() {
                        ty.insert(Req {
                            disj: di,
                            mask,
                            pins: pins.clone(),
                        });
                        return Ok(());
                    }
                    let (x, opts) = &per_var[k];
                    for o in opts {
                        match o {
                            None => {
                                pins.remove(x);
                            }
                            Some(p) => {
                                pins.insert(*x, p.clone());
                            }
                        }
                        emit(ty, di, mask, per_var, k + 1, pins, cap)?;
                    }
                    pins.remove(&per_var[k].0);
                    Ok(())
                }
                let mut pins = BTreeMap::new();
                emit(
                    &mut ty,
                    di as u8,
                    mask,
                    &per_var,
                    0,
                    &mut pins,
                    ctx.budget.max_type_entries,
                )
            },
        )?;
    }
    Ok(ty)
}

/// Whether a specialized answer-rule instance is covered: some disjunct
/// fully embeds with its head on the rule head.
fn covers(
    ctx: &Ctx,
    rule: &Rule,
    children: &[(&[Term], &TypeSet)],
    head_terms: &[Term],
) -> Result<bool, DatalogUcqError> {
    let edb_atoms: Vec<&Atom> = rule
        .body_atoms()
        .filter(|a| !ctx.idb.contains(&a.pred))
        .collect();
    for (di, disj) in ctx.disjuncts.iter().enumerate() {
        if disj.head_args.len() != head_terms.len() {
            continue;
        }
        // Seed: disjunct head variables pin to rule head terms.
        let mut seed: HashMap<u8, Term> = HashMap::new();
        let mut ok = true;
        for (y, h) in disj.head_args.iter().zip(head_terms) {
            match y {
                Term::Var(v) => {
                    let xi = disj.var_idx[v];
                    match seed.get(&xi) {
                        Some(prev) if prev != h => {
                            ok = false;
                            break;
                        }
                        _ => {
                            seed.insert(xi, h.clone());
                        }
                    }
                }
                Term::Const(_) => {
                    if y != h {
                        ok = false;
                        break;
                    }
                }
                Term::App(..) => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let full_mask: u32 = if disj.atoms.is_empty() {
            0
        } else {
            (1u32 << disj.atoms.len()) - 1
        };
        let mut covered = false;
        enumerate_placements(
            ctx,
            di,
            &edb_atoms,
            children,
            true,
            &seed,
            &mut |mask, _g| {
                if mask == full_mask {
                    covered = true;
                }
                Ok(())
            },
        )?;
        if covered {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Maintains an antichain of ⊆-minimal types. Returns whether inserting
/// changed the (downward closure of the) set.
fn insert_minimal(types: &mut Vec<TypeSet>, ty: TypeSet) -> bool {
    if types.iter().any(|t| t.is_subset(&ty)) {
        return false;
    }
    types.retain(|t| !ty.is_subset(t));
    types.push(ty);
    true
}

/// Decides `P ⊆ Q`: the answers of datalog program `P` (answer predicate
/// `answer`) are contained in the UCQ `Q` on every database.
///
/// Requires function-free, comparison-free inputs; see the module docs.
///
/// ```
/// use qc_containment::datalog_ucq::{datalog_contained_in_ucq, FixpointBudget};
/// use qc_datalog::{parse_program, parse_query, Symbol, Ucq};
///
/// // Transitive closure is contained in "start and end touch edges"...
/// let tc = parse_program(
///     "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
/// let loose = Ucq::single(parse_query("u(X, Y) :- e(X, A), e(B, Y).").unwrap());
/// assert!(datalog_contained_in_ucq(
///     &tc, &Symbol::new("t"), &loose, &FixpointBudget::default()).unwrap());
/// // ...but not in "direct edge".
/// let direct = Ucq::single(parse_query("u(X, Y) :- e(X, Y).").unwrap());
/// assert!(!datalog_contained_in_ucq(
///     &tc, &Symbol::new("t"), &direct, &FixpointBudget::default()).unwrap());
/// ```
pub fn datalog_contained_in_ucq(
    p: &Program,
    answer: &Symbol,
    q: &Ucq,
    budget: &FixpointBudget,
) -> Result<bool, DatalogUcqError> {
    let _span = qc_obs::span("datalog_in_ucq_fixpoint");
    if p.has_function_terms() {
        return Err(DatalogUcqError::FunctionTerms);
    }
    if p.has_comparisons() || !q.is_comparison_free() {
        return Err(DatalogUcqError::Comparisons);
    }
    for d in &q.disjuncts {
        if d.subgoals.len() > 32 {
            return Err(DatalogUcqError::TooManyAtoms(d.subgoals.len()));
        }
        let has_fn = d
            .subgoals
            .iter()
            .chain(std::iter::once(&d.head))
            .any(|a| a.args.iter().any(|t| t.has_function() || t.depth() > 0));
        if has_fn {
            return Err(DatalogUcqError::FunctionTerms);
        }
    }
    let answer_arity = p.rules_for(answer).next().map(|r| r.head.arity());
    if let Some(ar) = answer_arity {
        if ar != q.arity {
            return Err(DatalogUcqError::ArityMismatch);
        }
    } else {
        // P derives nothing for `answer`: trivially contained.
        return Ok(true);
    }

    // Redundancy pre-pass: a disjunct contained in another contributes
    // nothing to the union (`Q ≡ Q ∖ {dᵢ}` when `dᵢ ⊆ dⱼ`, `j ≠ i`), yet
    // every resident disjunct enlarges the coverage-type lattice and every
    // placement loop in `covers`/`compose`. Drop subsumed disjuncts up
    // front through the canonical containment memo; among equivalent
    // disjuncts the first is kept, so at least one survivor remains per
    // class and the verdict is unchanged.
    let active: Vec<&qc_datalog::ConjunctiveQuery> = if q.disjuncts.len() > 1 {
        let n = q.disjuncts.len();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .collect();
        let verdicts: Vec<bool> = engine::parallel_map(&pairs, |&(i, j)| {
            cq_contained_memo(&q.disjuncts[i], &q.disjuncts[j])
        });
        let mut contained = vec![vec![false; n]; n];
        for (&(i, j), v) in pairs.iter().zip(verdicts) {
            contained[i][j] = v;
        }
        q.disjuncts
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                !(0..n).any(|j| j != i && contained[i][j] && !(contained[j][i] && j > i))
            })
            .map(|(_, d)| d)
            .collect()
    } else {
        q.disjuncts.iter().collect()
    };

    // Preprocess disjuncts.
    let mut disjuncts = Vec::new();
    for d in active {
        let mut var_idx: HashMap<Var, u8> = HashMap::new();
        let note = |t: &Term, var_idx: &mut HashMap<Var, u8>| {
            if let Term::Var(v) = t {
                let next = var_idx.len() as u8;
                var_idx.entry(*v).or_insert(next);
            }
        };
        for a in &d.subgoals {
            for t in &a.args {
                note(t, &mut var_idx);
            }
        }
        for t in &d.head.args {
            note(t, &mut var_idx);
        }
        if var_idx.len() > 255 {
            return Err(DatalogUcqError::TooManyVars(var_idx.len()));
        }
        let atom_vars = d
            .subgoals
            .iter()
            .map(|a| {
                let mut v: Vec<u8> = a.vars().iter().map(|x| var_idx[x]).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        disjuncts.push(Disj {
            atoms: d.subgoals.clone(),
            head_args: d.head.args.clone(),
            var_idx,
            atom_vars,
        });
    }
    let mut consts: Vec<Const> = p.consts().into_iter().collect();
    for c in q.consts() {
        if !consts.contains(&c) {
            consts.push(c);
        }
    }
    let ctx = Ctx {
        disjuncts,
        idb: p.idb_preds(),
        consts,
        budget: *budget,
    };

    // Fixpoint over (predicate, head pattern) -> antichain of types,
    // demand-driven: each rule is processed under every demanded head
    // pattern of its predicate, and call sites whose final shape is more
    // specific than any available pattern register new demands.
    let mut types: HashMap<(Symbol, Pattern), Vec<TypeSet>> = HashMap::new();
    let mut demands = DemandSet::default();
    for rule in p.rules() {
        demands.demand(rule.head.pred, pattern_of(&rule.head.args));
    }
    let mut gen = VarGen::new();
    let mut iterations = 0usize;
    // Compose is deterministic in (rule, demanded pattern, per-call
    // choices); the fixpoint revisits unchanged combinations every outer
    // round, so caching their results makes rounds after the first cheap.
    let mut compose_cache: HashMap<(usize, Pattern, ComboKey), (Symbol, Pattern, TypeSet)> =
        HashMap::new();
    loop {
        iterations += 1;
        qc_guard::check(qc_guard::stage::FIXPOINT)?;
        qc_obs::count(qc_obs::Counter::FixpointIterations, 1);
        if iterations > ctx.budget.max_iterations {
            return Err(DatalogUcqError::Resource(qc_guard::ResourceError::budget(
                "fixpoint/iterations",
                iterations as u64,
                ctx.budget.max_iterations as u64,
            )));
        }
        let mut changed = false;
        demands.changed = false;
        for (rule_idx, rule) in p.rules().iter().enumerate() {
            for delta in demands.for_pred(&rule.head.pred) {
                // Reads borrow `types`; collect insertions and apply after.
                let mut pending: Vec<(Symbol, Pattern, TypeSet)> = Vec::new();
                process_rule_under_demand(
                    &ctx,
                    rule,
                    &delta,
                    &types,
                    &mut gen,
                    &mut demands,
                    &mut |spec, children, combo| {
                        // One work unit per composition — the fixpoint's
                        // dominant operation, same site as the counter.
                        qc_guard::tick(qc_guard::stage::FIXPOINT, 1)?;
                        qc_obs::count(qc_obs::Counter::FixpointComposeCalls, 1);
                        let cache_key = (rule_idx, delta.clone(), combo.clone());
                        if let Some((pred, pat, ty)) = compose_cache.get(&cache_key) {
                            qc_obs::count(qc_obs::Counter::FixpointComposeCacheHits, 1);
                            pending.push((*pred, pat.clone(), ty.clone()));
                            return Ok(());
                        }
                        let ty = compose(&ctx, spec, children, &spec.head.args)?;
                        let pred = spec.head.pred;
                        let pat = pattern_of(&spec.head.args);
                        compose_cache.insert(cache_key, (pred, pat.clone(), ty.clone()));
                        pending.push((pred, pat, ty));
                        Ok(())
                    },
                )?;
                for (pred, pat, ty) in pending {
                    let entry = types.entry((pred, pat)).or_default();
                    if insert_minimal(entry, ty) {
                        qc_obs::count(qc_obs::Counter::FixpointTypesRecorded, 1);
                        changed = true;
                    }
                    if entry.len() > ctx.budget.max_types_per_key {
                        return Err(DatalogUcqError::Resource(qc_guard::ResourceError::budget(
                            "fixpoint/types_per_key",
                            entry.len() as u64,
                            ctx.budget.max_types_per_key as u64,
                        )));
                    }
                }
            }
            let demanded = demands.map.values().map(BTreeSet::len).sum::<usize>();
            if types.len() > ctx.budget.max_keys || demanded > ctx.budget.max_keys {
                return Err(DatalogUcqError::Resource(qc_guard::ResourceError::budget(
                    "fixpoint/keys",
                    types.len().max(demanded) as u64,
                    ctx.budget.max_keys as u64,
                )));
            }
        }
        if !changed && !demands.changed {
            break;
        }
    }

    // Top-level coverage: every achievable expansion of `answer`. The
    // answer predicate has no caller, so each rule is checked under its
    // own (generic) head pattern; combinations rejected by the final-shape
    // guard are covered through their more specific demanded pattern.
    let mut all_covered = true;
    let mut sink = DemandSet::default();
    for rule in p.rules_for(answer) {
        for_each_specialization(
            &ctx,
            rule,
            &types,
            &mut gen,
            &mut sink,
            &mut |spec, children, _| {
                if all_covered && !covers(&ctx, spec, children, &spec.head.args)? {
                    all_covered = false;
                }
                Ok(())
            },
        )?;
        if !all_covered {
            break;
        }
    }
    Ok(all_covered)
}

/// Iterates over every specialization of `rule`: a choice of head pattern
/// and achievable type for each IDB subgoal, unified into the rule. Calls
/// `f(specialized_rule, children)` where `children` pairs each IDB
/// subgoal's unified argument list with its chosen type.
fn for_each_specialization(
    ctx: &Ctx,
    rule: &Rule,
    types: &HashMap<(Symbol, Pattern), Vec<TypeSet>>,
    gen: &mut VarGen,
    demands: &mut DemandSet,
    f: &mut OnSpec<'_>,
) -> Result<(), DatalogUcqError> {
    let idb_atoms: Vec<&Atom> = rule
        .body_atoms()
        .filter(|a| ctx.idb.contains(&a.pred))
        .collect();
    // Options per call: (pattern, type).
    let mut call_options: Vec<Vec<(&Pattern, &TypeSet)>> = Vec::new();
    for call in &idb_atoms {
        let mut opts = Vec::new();
        for ((pred, pat), tys) in types {
            if pred == &call.pred && pat.len() == call.args.len() {
                for ty in tys {
                    opts.push((pat, ty));
                }
            }
        }
        if opts.is_empty() {
            return Ok(()); // this rule has no achievable expansions yet
        }
        call_options.push(opts);
    }

    #[allow(clippy::too_many_arguments)]
    fn rec(
        rule: &Rule,
        idb_atoms: &[&Atom],
        call_options: &[Vec<(&Pattern, &TypeSet)>],
        k: usize,
        sigma: &Subst,
        chosen: &mut Vec<(Vec<Term>, Pattern, Vec<Term>, TypeSet)>,
        gen: &mut VarGen,
        demands: &mut DemandSet,
        f: &mut OnSpec<'_>,
    ) -> Result<(), DatalogUcqError> {
        if k == idb_atoms.len() {
            // Completeness guard: each chosen pattern must still match the
            // *final* shape of its (unified) template — a sibling call or
            // the caller may have specialized it further (bound a template
            // variable to a constant or merged template variables). Such a
            // combination is represented instead by the more specific
            // pattern, which we register as a demand so the fixpoint
            // computes types for it.
            for (i, (call_args, pat, template, _)) in chosen.iter().enumerate() {
                let final_shape = pattern_of(
                    &template
                        .iter()
                        .map(|t| sigma.apply_term(t))
                        .collect::<Vec<_>>(),
                );
                if &final_shape != pat {
                    demands.demand(idb_atoms[i].pred, final_shape);
                    let _ = call_args;
                    return Ok(());
                }
            }
            let spec = sigma.apply_rule(rule);
            // Children's unified argument lists under the final sigma.
            let finals: Vec<(Vec<Term>, &TypeSet)> = chosen
                .iter()
                .map(|(args, _, _, ty)| {
                    (
                        args.iter()
                            .map(|t| sigma.apply_term(t))
                            .collect::<Vec<Term>>(),
                        ty,
                    )
                })
                .collect();
            let borrowed: Vec<(&[Term], &TypeSet)> = finals
                .iter()
                .map(|(args, ty)| (args.as_slice(), *ty))
                .collect();
            let key: ComboKey = chosen
                .iter()
                .map(|(_, pat, _, ty)| (pat.clone(), ty.clone()))
                .collect();
            return f(&spec, &borrowed, &key);
        }
        for (pat, ty) in &call_options[k] {
            let template = pattern_template(pat, gen);
            let mut sigma2 = sigma.clone();
            let mut ok = true;
            for (a, b) in idb_atoms[k].args.iter().zip(&template) {
                if !unify_terms_with(&mut sigma2, a, b) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            chosen.push((
                idb_atoms[k].args.clone(),
                (*pat).clone(),
                template,
                (*ty).clone(),
            ));
            rec(
                rule,
                idb_atoms,
                call_options,
                k + 1,
                &sigma2,
                chosen,
                gen,
                demands,
                f,
            )?;
            chosen.pop();
        }
        Ok(())
    }

    let mut chosen = Vec::new();
    rec(
        rule,
        &idb_atoms,
        &call_options,
        0,
        &Subst::new(),
        &mut chosen,
        gen,
        demands,
        f,
    )
}

/// The demanded head patterns per predicate, grown during the fixpoint.
#[derive(Debug, Default)]
struct DemandSet {
    map: HashMap<Symbol, BTreeSet<Pattern>>,
    changed: bool,
}

impl DemandSet {
    fn demand(&mut self, pred: Symbol, pat: Pattern) {
        if self.map.entry(pred).or_default().insert(pat) {
            self.changed = true;
        }
    }

    fn for_pred(&self, pred: &Symbol) -> Vec<Pattern> {
        self.map
            .get(pred)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }
}

/// Processes `rule` with its head pre-unified against the demanded
/// pattern `delta` (skipping incompatible demands), then iterates the
/// call-pattern specializations.
#[allow(clippy::too_many_arguments)]
fn process_rule_under_demand(
    ctx: &Ctx,
    rule: &Rule,
    delta: &Pattern,
    types: &HashMap<(Symbol, Pattern), Vec<TypeSet>>,
    gen: &mut VarGen,
    demands: &mut DemandSet,
    f: &mut OnSpec<'_>,
) -> Result<(), DatalogUcqError> {
    if delta.len() != rule.head.arity() {
        return Ok(());
    }
    let template = pattern_template(delta, gen);
    let mut sigma0 = Subst::new();
    for (a, b) in rule.head.args.iter().zip(&template) {
        if !unify_terms_with(&mut sigma0, a, b) {
            return Ok(());
        }
    }
    let spec0 = sigma0.apply_rule(rule);
    for_each_specialization(ctx, &spec0, types, gen, demands, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_datalog::{parse_program, parse_query, ConjunctiveQuery};

    fn prog(s: &str) -> Program {
        parse_program(s).unwrap()
    }

    fn ucq(srcs: &[&str]) -> Ucq {
        Ucq::new(
            srcs.iter()
                .map(|s| parse_query(s).unwrap())
                .collect::<Vec<ConjunctiveQuery>>(),
        )
        .unwrap()
    }

    fn check(p: &str, ans: &str, q: &[&str]) -> bool {
        datalog_contained_in_ucq(
            &prog(p),
            &Symbol::new(ans),
            &ucq(q),
            &FixpointBudget::default(),
        )
        .unwrap()
    }

    #[test]
    fn nonrecursive_basics() {
        // Single rule: contained iff the CQ is.
        assert!(check("q(X) :- e(X, Y).", "q", &["q(A) :- e(A, B)."]));
        assert!(!check("q(X) :- e(X, Y).", "q", &["q(A) :- e(A, A)."]));
        assert!(check("q(X) :- e(X, X).", "q", &["q(A) :- e(A, B)."]));
    }

    #[test]
    fn union_covers_disjuncts() {
        let p = "q(X) :- a(X). q(X) :- b(X).";
        assert!(check(p, "q", &["q(Z) :- a(Z).", "q(Z) :- b(Z)."]));
        assert!(!check(p, "q", &["q(Z) :- a(Z)."]));
    }

    #[test]
    fn recursive_not_contained_in_bounded() {
        // Transitive closure is not contained in paths of length <= 2.
        let tc = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).";
        assert!(!check(
            tc,
            "t",
            &["t(A, B) :- e(A, B).", "t(A, C) :- e(A, B), e(B, C)."]
        ));
    }

    #[test]
    fn recursive_contained_when_query_collapses() {
        // Every path is "connected to something": t(X, Z) over e ⊆
        // q(A, C) :- e(A, B1), e(B2, C)?? — t(X,Z) expansions are chains
        // e(X, y1), e(y1, y2), ..., e(yk, Z): first atom gives e(X, y1),
        // last gives e(yk, Z). So t ⊆ q.
        let tc = "t(X, Y) :- e(X, Y). t(X, Z) :- t(X, Y), e(Y, Z).";
        assert!(check(tc, "t", &["q(A, C) :- e(A, B), e(D, C)."]));
        // But not in q requiring a direct edge A -> C.
        assert!(!check(tc, "t", &["q(A, C) :- e(A, C)."]));
    }

    #[test]
    fn reachability_into_self_loop_pattern() {
        // Classic: TC restricted to a self-loop seed. p(X) :- loop(X);
        // p(Y) :- p(X), e(X, Y). Every expansion contains loop(x0) and a
        // chain to Y. Query: q(A) :- loop(B), e?? — check containment in
        // "something has a loop": q(A) :- loop(B) — yes, every expansion
        // contains a loop atom (unsafe target head? A must be bound...).
        // Use q(A) :- loop(B), reach-irrelevant... simpler: boolean-ish
        // with head var bound: q(A) :- loop(A) contains only depth-0.
        let p = "p(X) :- loop(X). p(Y) :- p(X), e(X, Y).";
        assert!(!check(p, "p", &["q(A) :- loop(A)."]));
        // Every expansion maps into "there is a loop and A is endpoint of
        // an edge or a loop" — needs union.
        assert!(check(
            p,
            "p",
            &["q(A) :- loop(A).", "q(A) :- loop(B), e(C, A)."]
        ));
    }

    #[test]
    fn constants_in_rule_heads() {
        // Inverse-rule style: head constant must meet the query constant.
        let p = "r(X, red) :- v(X). q(X) :- r(X, C).";
        assert!(check(p, "q", &["q(A) :- v(A)."]));
        let p2 = "r(X, red) :- v(X). q(X) :- r(X, red).";
        assert!(check(p2, "q", &["q(A) :- v(A)."]));
        let p3 = "r(X, red) :- v(X). q(X) :- r(X, blue).";
        // No expansion at all (call unifies? r(X, blue) vs head r(X, red):
        // fails) -> vacuously contained.
        assert!(check(p3, "q", &["q(A) :- zz(A)."]));
    }

    #[test]
    fn head_repetition_patterns() {
        // Callee head repeats a variable; caller must see the merge.
        let p = "d(X, X) :- v(X). q(A, B) :- d(A, B).";
        // Expansion: v(A) with head (A, A). Contained in diag query:
        assert!(check(p, "q", &["q(Z, Z) :- v(Z)."]));
        // Not contained in a query requiring distinct head vars pattern
        // match... q(Z, W) :- v(Z), w(W) — no w atoms, fails.
        assert!(!check(p, "q", &["q(Z, W) :- v(Z), w(W)."]));
        // Contained in the relaxed q(Z, W) :- v(Z), v(W).
        assert!(check(p, "q", &["q(Z, W) :- v(Z), v(W)."]));
    }

    #[test]
    fn cross_child_sharing() {
        // A query atom set split across two children sharing a variable
        // through the interface.
        let p = "h(X) :- a(X, Y). g(X) :- b(X, Z). q(X) :- h(X), g(X).";
        assert!(check(p, "q", &["q(A) :- a(A, B), b(A, C)."]));
        // Sharing an *existential* across children is impossible: the
        // children only share interface elements.
        assert!(!check(p, "q", &["q(A) :- a(A, B), b(B, C)."]));
    }

    #[test]
    fn vacuous_when_no_expansions() {
        let p = "q(X) :- q(X).";
        assert!(check(p, "q", &["q(A) :- impossible(A)."]));
    }

    #[test]
    fn fact_rules() {
        let p = "q(1, 2).";
        assert!(check(p, "q", &["q(1, 2)."]));
        assert!(!check(p, "q", &["q(2, 1)."]));
        assert!(!check(p, "q", &["q(A, B) :- e(A, B)."]));
    }

    #[test]
    fn rejects_function_terms_and_comparisons() {
        let p = prog("q(f(X)) :- e(X).");
        assert!(matches!(
            datalog_contained_in_ucq(
                &p,
                &Symbol::new("q"),
                &ucq(&["q(A) :- e(A)."]),
                &FixpointBudget::default()
            ),
            Err(DatalogUcqError::FunctionTerms)
        ));
        let p2 = prog("q(X) :- e(X, Y), Y < 3.");
        assert!(matches!(
            datalog_contained_in_ucq(
                &p2,
                &Symbol::new("q"),
                &ucq(&["q(A) :- e(A, B)."]),
                &FixpointBudget::default()
            ),
            Err(DatalogUcqError::Comparisons)
        ));
    }

    #[test]
    fn caller_constant_specializes_callee() {
        // Regression: the call pa(I, eco) instantiates pa's generic head
        // pattern; the child type must be recomputed under the demanded
        // pattern [V, eco] or containment is wrongly refuted. This mirrors
        // the executable plans of §4 (dom recursion + a constant seed).
        let p = "pa(X, A2) :- pd(A2), a(X, A2).
                 pd(eco).
                 pd(X) :- pd(A), a(X, A).
                 pp(X, P) :- b(X, P).
                 q(P) :- pa(I, eco), pp(I, P).";
        assert!(check(p, "q", &["q(P) :- a(I, eco), b(I, P)."]));
        // Also with the redundant extra subgoal (the full §4 scenario).
        assert!(check(p, "q", &["q(P) :- a(I, eco), b(I, P), a(I, A2)."]));
        // Sanity: a genuinely stronger target still fails.
        assert!(!check(p, "q", &["q(P) :- a(I, eco), b(I, P), c(I)."]));
    }

    #[test]
    fn sibling_call_specializes_earlier_choice() {
        // A later call's pattern binds a variable shared with an earlier
        // call, specializing the earlier template after the fact.
        let p = "pa(X, J) :- a(X, J).
                 pc(eco).
                 q(X) :- pa(X, J), pc(J).";
        assert!(check(p, "q", &["q(X) :- a(X, eco)."]));
        assert!(!check(p, "q", &["q(X) :- a(X, blue)."]));
    }

    #[test]
    fn deep_recursion_through_multiple_idbs() {
        // A three-stage cycle: expansions are chains a-b-c-a-b-c-...
        let p = "x(U, V) :- a(U, W), y(W, V).
                 y(U, V) :- b(U, W), z(W, V).
                 z(U, V) :- c(U, W), x(W, V).
                 z(U, V) :- c(U, V).
                 q(U, V) :- x(U, V).";
        // Every expansion starts with a(U, _) and ends with c(_, V).
        assert!(check(p, "q", &["t(U, V) :- a(U, W1), c(W2, V)."]));
        // But does not always contain a `b` edge out of the head.
        assert!(!check(p, "q", &["t(U, V) :- b(U, W)."]));
        // Chains always contain an a-b adjacency.
        assert!(check(p, "q", &["t(U, V) :- a(U, W), b(W, W2)."]));
        // And never guarantee an a-c adjacency.
        assert!(!check(p, "q", &["t(U, V) :- a(U, W), c(W, W2)."]));
    }

    #[test]
    fn many_patterns_for_one_predicate() {
        // d is demanded under several constant patterns; each must get its
        // own types.
        let p = "d(X, red) :- v(X).
                 d(X, blue) :- w(X).
                 q(X) :- d(X, red), d(X, blue).
                 q(X) :- d(X, C), e(C).";
        assert!(check(
            p,
            "q",
            &[
                "t(X) :- v(X), w(X).",
                "t(X) :- v(X), e(red).",
                "t(X) :- w(X), e(blue).",
            ]
        ));
        // Dropping one disjunct breaks it.
        assert!(!check(
            p,
            "q",
            &["t(X) :- v(X), w(X).", "t(X) :- v(X), e(red)."]
        ));
    }

    #[test]
    fn nonlinear_recursion() {
        // Doubling trees: expansions are full chains built by joining two
        // sub-chains.
        let p = "t(X, Y) :- e(X, Y).
                 t(X, Z) :- t(X, Y), t(Y, Z).
                 q(X, Z) :- t(X, Z).";
        assert!(check(p, "q", &["u(X, Z) :- e(X, A), e(B, Z)."]));
        assert!(!check(p, "q", &["u(X, Z) :- e(X, Z)."]));
        // Every expansion has an edge out of X; the union with a length-2
        // prefix covers all shapes.
        assert!(check(
            p,
            "q",
            &["u(X, Z) :- e(X, Z).", "u(X, Z) :- e(X, A), e(A, B)."]
        ));
    }

    #[test]
    fn agrees_with_ucq_containment_on_nonrecursive() {
        // Unfold-and-compare vs the fixpoint, on a nonrecursive program.
        let psrc = "q(X) :- h(X, Y), e(Y, Z). h(X, Y) :- a(X, Y). h(X, Y) :- b(X, Y).";
        let p = prog(psrc);
        let unfolded = p.unfold(&Symbol::new("q")).unwrap();
        let targets = [
            vec!["q(A) :- a(A, B), e(B, C)."],
            vec!["q(A) :- a(A, B), e(B, C).", "q(A) :- b(A, B), e(B, C)."],
            vec!["q(A) :- a(A, B), e(B, C).", "q(A) :- b(A, D), e(D, C)."],
        ];
        for t in targets {
            let u2 = ucq(&t);
            let via_ucq = crate::cq::ucq_contained(&unfolded, &u2);
            let via_fix = check(psrc, "q", &t);
            assert_eq!(via_ucq, via_fix, "{t:?}");
        }
    }
}
