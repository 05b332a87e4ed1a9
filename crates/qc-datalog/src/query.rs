//! Conjunctive queries and unions of conjunctive queries.

use std::collections::BTreeSet;
use std::fmt;

use crate::{Atom, Comparison, Const, Literal, Rule, Subst, Symbol, Term, Var, VarGen};

/// A conjunctive query: a single rule whose body mentions only EDB
/// predicates and comparisons (§2.1 of the paper).
///
/// Relational subgoals and comparison subgoals are kept separate, which is
/// the shape every containment algorithm wants.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ConjunctiveQuery {
    /// The head atom.
    pub head: Atom,
    /// Relational subgoals.
    pub subgoals: Vec<Atom>,
    /// Comparison subgoals.
    pub comparisons: Vec<Comparison>,
}

impl ConjunctiveQuery {
    /// Creates a conjunctive query.
    pub fn new(head: Atom, subgoals: Vec<Atom>, comparisons: Vec<Comparison>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head,
            subgoals,
            comparisons,
        }
    }

    /// Converts a rule into a conjunctive query (splitting its body).
    pub fn from_rule(rule: &Rule) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: rule.head.clone(),
            subgoals: rule.body_atoms().cloned().collect(),
            comparisons: rule.body_comparisons().cloned().collect(),
        }
    }

    /// Converts back into a rule (subgoals first, then comparisons).
    pub fn to_rule(&self) -> Rule {
        let mut body: Vec<Literal> = self.subgoals.iter().cloned().map(Literal::from).collect();
        body.extend(self.comparisons.iter().cloned().map(Literal::from));
        Rule::new(self.head.clone(), body)
    }

    /// The number of relational subgoals (the paper's size measure for
    /// candidate query plans).
    pub fn size(&self) -> usize {
        self.subgoals.len()
    }

    /// All variables of the query.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.to_rule().vars()
    }

    /// Head (distinguished) variables.
    pub fn head_vars(&self) -> BTreeSet<Var> {
        self.head.vars()
    }

    /// Existential variables (body-only).
    pub fn existential_vars(&self) -> BTreeSet<Var> {
        self.to_rule().existential_vars()
    }

    /// All constants of the query.
    pub fn consts(&self) -> BTreeSet<Const> {
        self.to_rule().consts()
    }

    /// Whether the query has no comparison subgoals.
    pub fn is_comparison_free(&self) -> bool {
        self.comparisons.is_empty()
    }

    /// Whether every comparison subgoal is semi-interval (§5).
    pub fn is_semi_interval(&self) -> bool {
        self.comparisons.iter().all(Comparison::is_semi_interval)
    }

    /// Applies a substitution to the whole query.
    pub fn substitute(&self, s: &Subst) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: s.apply_atom(&self.head),
            subgoals: self.subgoals.iter().map(|a| s.apply_atom(a)).collect(),
            comparisons: self
                .comparisons
                .iter()
                .map(|c| s.apply_comparison(c))
                .collect(),
        }
    }

    /// A variant with every variable renamed apart.
    pub fn rename_apart(&self, gen: &mut VarGen) -> ConjunctiveQuery {
        let renaming = gen.renaming(&self.vars());
        self.substitute(&renaming)
    }

    /// Renames machine-generated variables (`_G12_Year`) back to readable
    /// names (`Year`), keeping the generated name when stripping the
    /// prefix would collide with another variable. Purely cosmetic —
    /// used when printing plans.
    pub fn tidy_names(&self) -> ConjunctiveQuery {
        let vars = self.vars();
        let mut s = Subst::new();
        let mut taken: BTreeSet<String> = vars.iter().map(|v| v.name().to_string()).collect();
        // Head variables first so they claim their hints.
        let ordered: Vec<Var> = self
            .head
            .vars()
            .into_iter()
            .chain(vars.iter().cloned())
            .collect();
        let mut letters = ('A'..='Z').map(|c| c.to_string());
        for v in &ordered {
            let name = v.name();
            if !name.starts_with("_G") && !name.starts_with("_C") {
                continue; // user-chosen name, leave it
            }
            if s.get(v).is_some() {
                continue;
            }
            // Recover the original hint from `_G12_Year` (possibly through
            // several generations, `_G7__G12_Year`); `_C`-canonicalized
            // names carry no hint.
            let mut hint: &str = name;
            while let Some(rest) = hint.strip_prefix("_G") {
                match rest.find('_') {
                    Some(idx) => hint = &rest[idx + 1..],
                    None => {
                        hint = "";
                        break;
                    }
                }
            }
            let usable = !hint.is_empty()
                && hint.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && !hint.starts_with("_C");
            let base = if usable {
                hint.to_string()
            } else {
                // Fresh single-letter fallback.
                loop {
                    match letters.next() {
                        Some(l) if taken.contains(&l) => continue,
                        Some(l) => break l,
                        None => break format!("V{}", taken.len()),
                    }
                }
            };
            let mut candidate = base.clone();
            let mut n = 2;
            while taken.contains(&candidate) {
                candidate = format!("{base}{n}");
                n += 1;
            }
            taken.insert(candidate.clone());
            s.bind(*v, Term::var(candidate));
        }
        self.substitute(&s)
    }

    /// Every term appearing as a subgoal or head argument, deduplicated,
    /// in first-appearance order (head first).
    pub fn all_terms(&self) -> Vec<Term> {
        let mut out: Vec<Term> = Vec::new();
        let mut push = |t: &Term| {
            if !out.contains(t) {
                out.push(t.clone());
            }
        };
        for t in &self.head.args {
            push(t);
        }
        for a in &self.subgoals {
            for t in &a.args {
                push(t);
            }
        }
        for c in &self.comparisons {
            push(&c.lhs);
            push(&c.rhs);
        }
        out
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_rule())
    }
}

/// A union of conjunctive queries over a common answer predicate.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Ucq {
    /// Answer predicate name.
    pub pred: Symbol,
    /// Answer arity.
    pub arity: usize,
    /// The disjuncts. May be empty (the unsatisfiable query).
    pub disjuncts: Vec<ConjunctiveQuery>,
}

/// Errors constructing a [`Ucq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UcqError {
    /// A disjunct's head predicate differs from the union's.
    MixedPredicates {
        /// The expected predicate.
        expected: Symbol,
        /// The offending predicate.
        found: Symbol,
    },
    /// A disjunct's head arity differs from the union's.
    MixedArity {
        /// The expected arity.
        expected: usize,
        /// The offending arity.
        found: usize,
    },
}

impl fmt::Display for UcqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UcqError::MixedPredicates { expected, found } => {
                write!(f, "union mixes head predicates {expected} and {found}")
            }
            UcqError::MixedArity { expected, found } => {
                write!(f, "union mixes head arities {expected} and {found}")
            }
        }
    }
}

impl std::error::Error for UcqError {}

impl Ucq {
    /// Builds a union from disjuncts, validating head consistency.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Result<Ucq, UcqError> {
        let first = disjuncts
            .first()
            .expect("use Ucq::empty for the empty union");
        let pred = first.head.pred;
        let arity = first.head.arity();
        for d in &disjuncts {
            if d.head.pred != pred {
                return Err(UcqError::MixedPredicates {
                    expected: pred,
                    found: d.head.pred,
                });
            }
            if d.head.arity() != arity {
                return Err(UcqError::MixedArity {
                    expected: arity,
                    found: d.head.arity(),
                });
            }
        }
        Ok(Ucq {
            pred,
            arity,
            disjuncts,
        })
    }

    /// The empty union (the query with no answers) over a given head.
    pub fn empty(pred: impl AsRef<str>, arity: usize) -> Ucq {
        Ucq {
            pred: Symbol::new(pred),
            arity,
            disjuncts: Vec::new(),
        }
    }

    /// A single-disjunct union.
    pub fn single(cq: ConjunctiveQuery) -> Ucq {
        Ucq {
            pred: cq.head.pred,
            arity: cq.head.arity(),
            disjuncts: vec![cq],
        }
    }

    /// Whether the union has no disjuncts.
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Total number of relational subgoals across disjuncts.
    pub fn total_size(&self) -> usize {
        self.disjuncts.iter().map(ConjunctiveQuery::size).sum()
    }

    /// The maximum disjunct size.
    pub fn max_disjunct_size(&self) -> usize {
        self.disjuncts
            .iter()
            .map(ConjunctiveQuery::size)
            .max()
            .unwrap_or(0)
    }

    /// Whether every disjunct is comparison-free.
    pub fn is_comparison_free(&self) -> bool {
        self.disjuncts
            .iter()
            .all(ConjunctiveQuery::is_comparison_free)
    }

    /// All constants across disjuncts.
    pub fn consts(&self) -> BTreeSet<Const> {
        let mut s = BTreeSet::new();
        for d in &self.disjuncts {
            s.extend(d.consts());
        }
        s
    }

    /// Converts the union into an equivalent program (one rule per
    /// disjunct).
    pub fn to_rules(&self) -> Vec<Rule> {
        self.disjuncts
            .iter()
            .map(ConjunctiveQuery::to_rule)
            .collect()
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "{}/{} :- false.", self.pred, self.arity);
        }
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}", d.to_rule())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rule;

    fn cq(s: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::from_rule(&parse_rule(s).unwrap())
    }

    #[test]
    fn from_rule_splits_body() {
        let q = cq("q(X) :- r(X, Y), Y < 1970, s(Y).");
        assert_eq!(q.subgoals.len(), 2);
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.size(), 2);
        assert!(!q.is_comparison_free());
        assert!(q.is_semi_interval());
    }

    #[test]
    fn round_trip_to_rule() {
        let q = cq("q(X) :- r(X, Y), Y < 1970.");
        assert_eq!(q.to_rule().to_string(), "q(X) :- r(X, Y), Y < 1970.");
    }

    #[test]
    fn all_terms_dedup() {
        let q = cq("q(X) :- r(X, Y), r(Y, X).");
        let ts = q.all_terms();
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn tidy_names_restores_hints_and_letters() {
        // Generated hints come back; canonicalized vars get letters.
        let q =
            cq("q(_G12_CarNo, _G13_Review) :- r(_G12_CarNo, _G14__C0), s(_G14__C0, _G13_Review).");
        let t = q.tidy_names();
        assert_eq!(
            t.to_rule().to_string(),
            "q(CarNo, Review) :- r(CarNo, A), s(A, Review)."
        );
        // User names survive; collisions get numbered.
        let q2 = cq("q(X, _G5_X) :- r(X, _G5_X).");
        let t2 = q2.tidy_names();
        assert_eq!(t2.to_rule().to_string(), "q(X, X2) :- r(X, X2).");
        // Chained generations unwrap fully.
        let q3 = cq("q(_G7__G3_Year) :- r(_G7__G3_Year).");
        assert_eq!(q3.tidy_names().to_rule().to_string(), "q(Year) :- r(Year).");
        // Idempotent on clean queries.
        let clean = cq("q(X) :- r(X, Y).");
        assert_eq!(clean.tidy_names(), clean);
    }

    #[test]
    fn ucq_validation() {
        let a = cq("q(X) :- r(X).");
        let b = cq("q(X) :- s(X).");
        let u = Ucq::new(vec![a.clone(), b]).unwrap();
        assert_eq!(u.disjuncts.len(), 2);
        assert_eq!(u.total_size(), 2);
        let bad = cq("p(X) :- r(X).");
        assert!(matches!(
            Ucq::new(vec![a.clone(), bad]),
            Err(UcqError::MixedPredicates { .. })
        ));
        let bad2 = cq("q(X, Y) :- r(X, Y).");
        assert!(matches!(
            Ucq::new(vec![a, bad2]),
            Err(UcqError::MixedArity { .. })
        ));
    }

    #[test]
    fn empty_ucq() {
        let u = Ucq::empty("q", 2);
        assert!(u.is_empty());
        assert_eq!(u.max_disjunct_size(), 0);
    }
}
