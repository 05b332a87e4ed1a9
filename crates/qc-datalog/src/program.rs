//! Datalog programs and their static analysis.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use crate::{ConjunctiveQuery, Const, Literal, Rule, Symbol, Ucq, UcqError, VarGen};

/// A datalog program: a set of rules with a distinguished-by-convention
/// answer predicate chosen by the caller of each analysis.
///
/// EDB/IDB classification follows the paper (§2.1): IDB predicates are
/// those appearing in some rule head; every other predicate mentioned in a
/// body is EDB.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct Program {
    rules: Vec<Rule>,
}

impl Program {
    /// Creates a program from rules.
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// The program's rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Concatenates two programs.
    pub fn extend(&mut self, other: &Program) {
        self.rules.extend(other.rules.iter().cloned());
    }

    /// The rules defining `pred`.
    pub fn rules_for<'a>(&'a self, pred: &'a Symbol) -> impl Iterator<Item = &'a Rule> + 'a {
        self.rules.iter().filter(move |r| &r.head.pred == pred)
    }

    /// IDB predicates: those appearing in a rule head.
    pub fn idb_preds(&self) -> BTreeSet<Symbol> {
        self.rules.iter().map(|r| r.head.pred).collect()
    }

    /// EDB predicates: mentioned in a body but never in a head.
    pub fn edb_preds(&self) -> BTreeSet<Symbol> {
        let idb = self.idb_preds();
        let mut edb = BTreeSet::new();
        for r in &self.rules {
            for a in r.body_atoms() {
                if !idb.contains(&a.pred) {
                    edb.insert(a.pred);
                }
            }
        }
        edb
    }

    /// All constants mentioned anywhere in the program.
    pub fn consts(&self) -> BTreeSet<Const> {
        let mut s = BTreeSet::new();
        for r in &self.rules {
            s.extend(r.consts());
        }
        s
    }

    /// Whether any rule contains function terms.
    pub fn has_function_terms(&self) -> bool {
        self.rules.iter().any(Rule::has_function_terms)
    }

    /// Whether any rule contains comparison literals.
    pub fn has_comparisons(&self) -> bool {
        self.rules
            .iter()
            .any(|r| r.body_comparisons().next().is_some())
    }

    /// Builds the predicate dependency graph.
    pub fn dependency_graph(&self) -> DependencyGraph {
        DependencyGraph::build(self)
    }

    /// Whether the program is recursive (§2.1): some IDB predicate
    /// (transitively) depends on itself.
    pub fn is_recursive(&self) -> bool {
        self.dependency_graph().is_recursive()
    }

    /// Arity of each predicate; `Err` lists predicates used at mixed
    /// arities.
    pub fn arities(&self) -> Result<BTreeMap<Symbol, usize>, Vec<Symbol>> {
        let mut arity: BTreeMap<Symbol, usize> = BTreeMap::new();
        let mut bad: BTreeSet<Symbol> = BTreeSet::new();
        let note = |pred: &Symbol,
                    n: usize,
                    arity: &mut BTreeMap<Symbol, usize>,
                    bad: &mut BTreeSet<Symbol>| {
            match arity.get(pred) {
                Some(&m) if m != n => {
                    bad.insert(*pred);
                }
                Some(_) => {}
                None => {
                    arity.insert(*pred, n);
                }
            }
        };
        for r in &self.rules {
            note(&r.head.pred, r.head.arity(), &mut arity, &mut bad);
            for a in r.body_atoms() {
                note(&a.pred, a.arity(), &mut arity, &mut bad);
            }
        }
        if bad.is_empty() {
            Ok(arity)
        } else {
            Err(bad.into_iter().collect())
        }
    }

    /// Unfolds a nonrecursive program into a union of conjunctive queries
    /// for the given answer predicate (§2.1: "such datalog programs can
    /// always be unfolded into a finite union of conjunctive queries").
    ///
    /// Rules for predicates unreachable from `answer` are ignored. Each
    /// emitted disjunct costs one work unit of the installed
    /// [`qc_guard::Guard`] (stage [`qc_guard::stage::UNFOLD`]): the union
    /// can be exponential in the program, so a deadline must be able to
    /// stop it before it is built.
    pub fn unfold(&self, answer: &Symbol) -> Result<Ucq, UnfoldError> {
        let graph = self.dependency_graph();
        if graph.pred_in_cycle_reachable_from(answer) {
            return Err(UnfoldError::Recursive(*answer));
        }
        let arity = self
            .rules_for(answer)
            .next()
            .map(|r| r.head.arity())
            .ok_or(UnfoldError::UndefinedAnswer(*answer))?;

        let idb = self.idb_preds();
        let mut gen = VarGen::new();
        let mut disjuncts: Vec<ConjunctiveQuery> = Vec::new();
        for rule in self.rules_for(answer) {
            let fresh = rule.rename_apart(&mut gen);
            let mut work = vec![fresh];
            // Repeatedly expand the first IDB subgoal of each pending rule.
            while let Some(r) = work.pop() {
                let idb_pos = r
                    .body
                    .iter()
                    .position(|l| matches!(l, Literal::Atom(a) if idb.contains(&a.pred)));
                match idb_pos {
                    None => {
                        qc_guard::tick(qc_guard::stage::UNFOLD, 1)
                            .map_err(UnfoldError::Resource)?;
                        disjuncts.push(ConjunctiveQuery::from_rule(&r));
                    }
                    Some(i) => {
                        let Literal::Atom(call) = &r.body[i] else {
                            unreachable!()
                        };
                        for def in self.rules_for(&call.pred) {
                            let def = def.rename_apart(&mut gen);
                            if let Some(mgu) = crate::unify_atoms(call, &def.head) {
                                let mut body = r.body.clone();
                                body.splice(i..=i, def.body.iter().cloned());
                                let expanded = Rule::new(r.head.clone(), body).substitute(&mgu);
                                work.push(expanded);
                            }
                        }
                    }
                }
            }
        }
        if disjuncts.is_empty() {
            return Ok(Ucq::empty(answer.as_str(), arity));
        }
        Ucq::new(disjuncts).map_err(UnfoldError::Inconsistent)
    }

    /// Whether the program is a *positive query* in the paper's sense: a
    /// nonrecursive datalog program.
    pub fn is_positive(&self) -> bool {
        !self.is_recursive()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Program {
        Program::new(iter.into_iter().collect())
    }
}

/// Errors from [`Program::unfold`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnfoldError {
    /// The answer predicate depends on a recursive cycle.
    Recursive(Symbol),
    /// No rule defines the answer predicate.
    UndefinedAnswer(Symbol),
    /// Disjuncts came out inconsistent (mixed arity — indicates an invalid
    /// input program).
    Inconsistent(UcqError),
    /// An installed [`qc_guard::Guard`] limit tripped while disjuncts were
    /// being emitted.
    Resource(qc_guard::ResourceError),
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::Recursive(p) => write!(f, "predicate {p} is recursive; cannot unfold"),
            UnfoldError::UndefinedAnswer(p) => write!(f, "answer predicate {p} has no rules"),
            UnfoldError::Inconsistent(e) => write!(f, "inconsistent unfolding: {e}"),
            UnfoldError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UnfoldError {}

/// The predicate dependency graph of a program: an edge `p → q` means a
/// rule with head `p` mentions `q` in its body.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    edges: HashMap<Symbol, BTreeSet<Symbol>>,
    idb: BTreeSet<Symbol>,
}

impl DependencyGraph {
    fn build(program: &Program) -> DependencyGraph {
        let mut edges: HashMap<Symbol, BTreeSet<Symbol>> = HashMap::new();
        for r in program.rules() {
            let entry = edges.entry(r.head.pred).or_default();
            for a in r.body_atoms() {
                entry.insert(a.pred);
            }
        }
        DependencyGraph {
            edges,
            idb: program.idb_preds(),
        }
    }

    /// Successors of a predicate.
    pub fn successors(&self, p: &Symbol) -> impl Iterator<Item = &Symbol> {
        self.edges.get(p).into_iter().flatten()
    }

    /// All predicates reachable from `start` (including itself).
    pub fn reachable(&self, start: &Symbol) -> BTreeSet<Symbol> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![*start];
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                for q in self.successors(&p) {
                    stack.push(*q);
                }
            }
        }
        seen
    }

    /// Whether any IDB predicate lies on a cycle.
    pub fn is_recursive(&self) -> bool {
        self.idb.iter().any(|p| self.pred_on_cycle(p))
    }

    /// Whether `p` can reach itself through at least one edge.
    pub fn pred_on_cycle(&self, p: &Symbol) -> bool {
        let mut seen = HashSet::new();
        let mut stack: Vec<Symbol> = self.successors(p).cloned().collect();
        while let Some(q) = stack.pop() {
            if &q == p {
                return true;
            }
            if seen.insert(q) {
                for r in self.successors(&q) {
                    stack.push(*r);
                }
            }
        }
        false
    }

    /// Whether some predicate reachable from `start` lies on a cycle.
    pub fn pred_in_cycle_reachable_from(&self, start: &Symbol) -> bool {
        self.reachable(start).iter().any(|p| self.pred_on_cycle(p))
    }

    /// A topological order of the IDB predicates (dependencies first).
    /// Returns `None` if the program is recursive.
    pub fn topo_order(&self) -> Option<Vec<Symbol>> {
        let mut order = Vec::new();
        let mut state: HashMap<Symbol, u8> = HashMap::new(); // 1 = visiting, 2 = done
        for p in &self.idb {
            if !self.visit(p, &mut state, &mut order) {
                return None;
            }
        }
        Some(order)
    }

    fn visit(&self, p: &Symbol, state: &mut HashMap<Symbol, u8>, order: &mut Vec<Symbol>) -> bool {
        match state.get(p) {
            Some(1) => return false, // cycle
            Some(2) => return true,
            _ => {}
        }
        if !self.idb.contains(p) {
            return true; // EDB leaf
        }
        state.insert(*p, 1);
        for q in self.successors(p) {
            if !self.visit(q, state, order) {
                return false;
            }
        }
        state.insert(*p, 2);
        order.push(*p);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn edb_idb_classification() {
        let p = parse_program("q(X) :- r(X, Y), s(Y). s(Y) :- t(Y).").unwrap();
        let idb = p.idb_preds();
        assert!(idb.contains(&Symbol::new("q")) && idb.contains(&Symbol::new("s")));
        let edb = p.edb_preds();
        assert!(edb.contains(&Symbol::new("r")) && edb.contains(&Symbol::new("t")));
        assert!(!edb.contains(&Symbol::new("s")));
    }

    #[test]
    fn recursion_detection() {
        let tc = parse_program("p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).").unwrap();
        assert!(tc.is_recursive());
        assert!(!tc.is_positive());
        let nr = parse_program("q(X) :- r(X, Y), s(Y). s(Y) :- t(Y).").unwrap();
        assert!(!nr.is_recursive());
        assert!(nr.dependency_graph().topo_order().is_some());
        assert!(tc.dependency_graph().topo_order().is_none());
    }

    #[test]
    fn mutual_recursion_detected() {
        let p = parse_program("a(X) :- b(X). b(X) :- a(X).").unwrap();
        assert!(p.is_recursive());
    }

    #[test]
    fn arities_checked() {
        let ok = parse_program("q(X) :- r(X, Y).").unwrap();
        assert_eq!(ok.arities().unwrap()[&Symbol::new("r")], 2);
        let bad = parse_program("q(X) :- r(X, Y). p(X) :- r(X).").unwrap();
        let errs = bad.arities().unwrap_err();
        assert_eq!(errs, vec![Symbol::new("r")]);
    }

    #[test]
    fn unfold_simple() {
        let p = parse_program("q(X) :- a(X, Y), h(Y).\n h(Y) :- b(Y).\n h(Y) :- c(Y, Z).").unwrap();
        let u = p.unfold(&Symbol::new("q")).unwrap();
        assert_eq!(u.disjuncts.len(), 2);
        for d in &u.disjuncts {
            assert_eq!(d.head.pred, "q");
            // All subgoals are EDB after unfolding.
            assert!(d.subgoals.iter().all(|a| a.pred != "h"));
        }
    }

    #[test]
    fn unfold_nested_multiplies() {
        // 2 disjuncts x 2 disjuncts = 4.
        let p = parse_program(
            "q(X) :- g(X), h(X).\n g(X) :- a(X).\n g(X) :- b(X).\n h(X) :- c(X).\n h(X) :- d(X).",
        )
        .unwrap();
        let u = p.unfold(&Symbol::new("q")).unwrap();
        assert_eq!(u.disjuncts.len(), 4);
    }

    #[test]
    fn unfold_respects_constants_and_unification() {
        // h(3) never matches h(X) with body forcing X = 4... here: head
        // pattern h(4) only unifies with calls compatible with 4.
        let p = parse_program("q(X) :- h(X, 4).\n h(Y, 4) :- a(Y).\n h(Y, 5) :- b(Y).").unwrap();
        let u = p.unfold(&Symbol::new("q")).unwrap();
        assert_eq!(u.disjuncts.len(), 1);
        assert_eq!(u.disjuncts[0].subgoals[0].pred, "a");
    }

    #[test]
    fn unfold_rejects_recursive() {
        let p = parse_program("p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), e(Y, Z).").unwrap();
        assert!(matches!(
            p.unfold(&Symbol::new("p")),
            Err(UnfoldError::Recursive(_))
        ));
    }

    #[test]
    fn unfold_undefined_answer() {
        let p = parse_program("q(X) :- r(X).").unwrap();
        assert!(matches!(
            p.unfold(&Symbol::new("zz")),
            Err(UnfoldError::UndefinedAnswer(_))
        ));
    }

    #[test]
    fn unfold_keeps_comparisons() {
        let p = parse_program("q(X) :- h(X).\n h(Y) :- a(Y, Z), Z < 1970.").unwrap();
        let u = p.unfold(&Symbol::new("q")).unwrap();
        assert_eq!(u.disjuncts.len(), 1);
        assert_eq!(u.disjuncts[0].comparisons.len(), 1);
    }

    #[test]
    fn unfold_recursive_pred_unreachable_from_answer_is_fine() {
        let p = parse_program("q(X) :- a(X).\n p(X, Z) :- p(X, Y), e(Y, Z).\n p(X, Y) :- e(X, Y).")
            .unwrap();
        let u = p.unfold(&Symbol::new("q")).unwrap();
        assert_eq!(u.disjuncts.len(), 1);
    }
}
