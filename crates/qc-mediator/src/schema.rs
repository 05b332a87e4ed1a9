//! Mediated schemas and source descriptions.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use qc_datalog::{
    parse_rule, validate_rule, ConjunctiveQuery, Database, ParseError, Program, Relation, Rule,
    Symbol, ValidationError,
};

/// A binding-pattern adornment: one flag per argument of a source
/// relation. `b` (bound) positions must be supplied to call the source;
/// `f` (free) positions are returned (§4 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Adornment(Vec<bool>);

impl Adornment {
    /// Parses `"fbf"`-style adornment strings.
    pub fn parse(s: &str) -> Option<Adornment> {
        s.chars()
            .map(|c| match c {
                'b' => Some(true),
                'f' => Some(false),
                _ => None,
            })
            .collect::<Option<Vec<bool>>>()
            .map(Adornment)
    }

    /// An all-free adornment of the given arity.
    pub fn all_free(arity: usize) -> Adornment {
        Adornment(vec![false; arity])
    }

    /// The number of positions.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether position `i` is bound.
    pub fn is_bound(&self, i: usize) -> bool {
        self.0[i]
    }

    /// Indexes of bound positions.
    pub fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| i)
    }

    /// Indexes of free positions.
    pub fn free_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, b)| !**b)
            .map(|(i, _)| i)
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{}", if *b { 'b' } else { 'f' })?;
        }
        Ok(())
    }
}

/// A local-as-view source description `V(X̄) ⊇ Q(X̄)` (§2.2).
///
/// The source exports relation `name`; its contents are (a subset of, for
/// incomplete sources) the answers to `view` over the mediated schema.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SourceDescription {
    /// The exported relation name (equals `view.head.pred`).
    pub name: Symbol,
    /// The view definition over the mediated schema.
    pub view: ConjunctiveQuery,
    /// Complete (closed-world, `≡`) vs incomplete (open-world, `⊇`,
    /// the paper's default).
    pub complete: bool,
    /// Binding-pattern adornments (§4). Empty means unrestricted access;
    /// several adornments model a source with multiple access paths (the
    /// generalization the paper notes is straightforward).
    pub adornments: Vec<Adornment>,
}

impl SourceDescription {
    /// Builds a source description from view-definition syntax, e.g.
    /// `RedCars(C, M, Y) :- CarDesc(C, M, red, Y).`
    pub fn parse(src: &str) -> Result<SourceDescription, ParseError> {
        let rule = parse_rule(src)?;
        let view = ConjunctiveQuery::from_rule(&rule);
        Ok(SourceDescription {
            name: view.head.pred,
            view,
            complete: false,
            adornments: Vec::new(),
        })
    }

    /// Builder: marks the source complete (closed-world).
    pub fn complete(mut self) -> SourceDescription {
        self.complete = true;
        self
    }

    /// Builder: attaches a binding-pattern adornment (e.g. `"fbf"`).
    /// May be called several times to model multiple access paths. A
    /// pattern that is not one `b` or `f` per head position is
    /// [`InputError::Adornment`] (rule 5 of [`check_input`]).
    pub fn with_adornment(mut self, s: &str) -> Result<SourceDescription, InputError> {
        let bad = || InputError::Adornment {
            source: self.name,
            pattern: s.to_string(),
        };
        let a = Adornment::parse(s).ok_or_else(bad)?;
        self.adornments.push(a);
        adornments_fit(&self)?;
        Ok(self)
    }

    /// The effective adornments: the declared ones, or the single all-free
    /// adornment when unrestricted.
    pub fn effective_adornments(&self) -> Vec<Adornment> {
        if self.adornments.is_empty() {
            vec![Adornment::all_free(self.view.head.arity())]
        } else {
            self.adornments.clone()
        }
    }
}

impl fmt::Display for SourceDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.adornments {
            writeln!(f, "% adornment {a}")?;
        }
        write!(f, "{}", self.view.to_rule())
    }
}

/// The set of available sources — the `V` of `Q1 ⊑_V Q2`.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LavSetting {
    /// The source descriptions.
    pub sources: Vec<SourceDescription>,
}

impl LavSetting {
    /// Builds a setting from view-definition syntax, one per string.
    pub fn parse(views: &[&str]) -> Result<LavSetting, ParseError> {
        Ok(LavSetting {
            sources: views
                .iter()
                .map(|s| SourceDescription::parse(s))
                .collect::<Result<_, _>>()?,
        })
    }

    /// The source by exported relation name (an interned-id comparison
    /// per source).
    pub fn source(&self, name: Symbol) -> Option<&SourceDescription> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// Removes a source (returns a new setting) — Example 1 removes
    /// `RedCars` to flip a relative containment.
    pub fn without(&self, name: &str) -> LavSetting {
        LavSetting {
            sources: self
                .sources
                .iter()
                .filter(|s| s.name != name)
                .cloned()
                .collect(),
        }
    }

    /// The exported relation names.
    pub fn names(&self) -> Vec<Symbol> {
        self.sources.iter().map(|s| s.name).collect()
    }

    /// Whether every view definition is comparison-free.
    pub fn is_comparison_free(&self) -> bool {
        self.sources.iter().all(|s| s.view.is_comparison_free())
    }

    /// Whether every view comparison is semi-interval (§5).
    pub fn is_semi_interval(&self) -> bool {
        self.sources.iter().all(|s| s.view.is_semi_interval())
    }

    /// All constants mentioned by the view definitions.
    pub fn consts(&self) -> std::collections::BTreeSet<qc_datalog::Const> {
        self.sources.iter().flat_map(|s| s.view.consts()).collect()
    }
}

/// Why an input is not well formed: the one error of the input gate
/// [`check_input`]. Each variant names the rule it breaks and the
/// predicate, source or rule at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// Rule 1: a query rule or a view is unsafe, not range-restricted,
    /// or compares a non-numeric constant with `<`, `<=`, `>` or `>=`.
    Rule(ValidationError),
    /// Rule 2: a predicate is used at two arities.
    Arity {
        /// The predicate.
        pred: Symbol,
        /// The arity of its first use.
        first: usize,
        /// The arity of a later use.
        other: usize,
    },
    /// Rule 3: two sources share a name.
    DuplicateSource(Symbol),
    /// Rule 3: a view body or a query uses a source name as a predicate of
    /// its own.
    SourceNameUsed {
        /// The source name.
        source: Symbol,
        /// The rule that uses it.
        rule: String,
    },
    /// Rule 4: an answer predicate has no rules.
    NoRules(Symbol),
    /// Rule 4: the two answer predicates have different arities.
    AnswerArity {
        /// The first answer predicate and its arity.
        first: (Symbol, usize),
        /// The second answer predicate and its arity.
        other: (Symbol, usize),
    },
    /// Rule 5: an adornment is not one `b` or `f` per head position.
    Adornment {
        /// The source.
        source: Symbol,
        /// The adornment as written.
        pattern: String,
    },
    /// Rule 6: an instance relation named like a source has another arity.
    InstanceArity {
        /// The source.
        source: Symbol,
        /// The source's arity.
        expected: usize,
        /// The instance relation's arity.
        found: usize,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::Rule(e) => write!(f, "{e}"),
            InputError::Arity { pred, first, other } => write!(
                f,
                "predicate {pred} is used with arity {first} and with arity {other}"
            ),
            InputError::DuplicateSource(name) => write!(f, "source {name} is defined twice"),
            InputError::SourceNameUsed { source, rule } => {
                write!(f, "source name {source} is used as a predicate in: {rule}")
            }
            InputError::NoRules(ans) => write!(f, "no rules for query {ans}"),
            InputError::AnswerArity { first, other } => write!(
                f,
                "answer predicates {} and {} differ in arity ({} vs {})",
                first.0, other.0, first.1, other.1
            ),
            InputError::Adornment { source, pattern } => write!(
                f,
                "adornment {pattern:?} of source {source} must have one b or f per head position"
            ),
            InputError::InstanceArity {
                source,
                expected,
                found,
            } => write!(
                f,
                "instance relation {source} has arity {found}, but source {source} has arity {expected}"
            ),
        }
    }
}

impl std::error::Error for InputError {}

/// The input gate: checks that what one call reads is well formed, before
/// it plans, decides or evaluates. `queries` are the query programs with
/// their answer predicates (Q1 and Q2, one query, or none), `views` the
/// sources the call reads and `instance`, for certain answers, the source
/// facts. The rules, each a precondition of the paper's definitions:
///
/// 1. every query rule and every view passes [`validate_rule`]: safe and
///    range-restricted (§2.1), with well-typed comparisons;
/// 2. each predicate has one arity across the queries and the view bodies;
/// 3. source names are unique, and no view body or query uses one as a
///    predicate of its own: views are over a separate mediated schema
///    (§2.2), which is what keeps a decision's plan scope exact;
/// 4. every answer predicate has rules, and the answer predicates share
///    one arity (Definition 2.4 compares queries of the same arity);
/// 5. an adornment has one `b` or `f` per head position (§4);
/// 6. an instance relation named like a source has that source's arity.
///
/// ```
/// use qc_datalog::{parse_program, Symbol};
/// use qc_mediator::schema::{check_input, InputError, LavSetting};
///
/// let views = LavSetting::parse(&["V(X, Y) :- e(X, Y)."]).unwrap();
/// let q = parse_program("q(X) :- e(X).").unwrap();
/// let err = check_input(&[(&q, &Symbol::new("q"))], &views.sources, None).unwrap_err();
/// assert!(matches!(err, InputError::Arity { .. }), "{err}");
/// ```
pub fn check_input<'a>(
    queries: &[(&Program, &Symbol)],
    views: impl IntoIterator<Item = &'a SourceDescription>,
    instance: Option<&Database>,
) -> Result<(), InputError> {
    let views: Vec<&SourceDescription> = views.into_iter().collect();
    let view_rules: Vec<Rule> = views.iter().map(|s| s.view.to_rule()).collect();
    let query_rules = || queries.iter().flat_map(|(p, _)| p.rules());
    // Rule 1.
    for rule in query_rules().chain(&view_rules) {
        validate_rule(rule).map_err(InputError::Rule)?;
    }
    // Rules 3 and 2, over one table of source names and predicate arities.
    let mut table: BTreeMap<Symbol, Use> = BTreeMap::new();
    for s in &views {
        if table.insert(s.name, Use::Source).is_some() {
            return Err(InputError::DuplicateSource(s.name));
        }
    }
    let uses = query_rules()
        .flat_map(|r| {
            std::iter::once(&r.head)
                .chain(r.body_atoms())
                .map(move |a| (a, r))
        })
        .chain(
            view_rules
                .iter()
                .flat_map(|r| r.body_atoms().map(move |a| (a, r))),
        );
    for (atom, rule) in uses {
        match table.entry(atom.pred) {
            Entry::Vacant(e) => {
                e.insert(Use::Arity(atom.arity()));
            }
            Entry::Occupied(e) => match *e.get() {
                Use::Source => {
                    return Err(InputError::SourceNameUsed {
                        source: atom.pred,
                        rule: rule.to_string(),
                    })
                }
                Use::Arity(first) if first != atom.arity() => {
                    return Err(InputError::Arity {
                        pred: atom.pred,
                        first,
                        other: atom.arity(),
                    })
                }
                Use::Arity(_) => {}
            },
        }
    }
    // Rule 4.
    let mut first: Option<(Symbol, usize)> = None;
    for (program, ans) in queries {
        let rule = program
            .rules_for(ans)
            .next()
            .ok_or(InputError::NoRules(**ans))?;
        let this = (**ans, rule.head.arity());
        match first {
            Some(f) if f.1 != this.1 => {
                return Err(InputError::AnswerArity {
                    first: f,
                    other: this,
                })
            }
            Some(_) => {}
            None => first = Some(this),
        }
    }
    // Rule 5.
    for s in &views {
        adornments_fit(s)?;
    }
    // Rule 6.
    if let Some(db) = instance {
        for s in &views {
            let expected = s.view.head.arity();
            match db.relation(&s.name).and_then(Relation::arity) {
                Some(found) if found != expected => {
                    return Err(InputError::InstanceArity {
                        source: s.name,
                        expected,
                        found,
                    })
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Rule 5 of [`check_input`] for one source.
fn adornments_fit(s: &SourceDescription) -> Result<(), InputError> {
    match s
        .adornments
        .iter()
        .find(|a| a.arity() != s.view.head.arity())
    {
        Some(a) => Err(InputError::Adornment {
            source: s.name,
            pattern: a.to_string(),
        }),
        None => Ok(()),
    }
}

/// How [`check_input`]'s table knows a name: as a source, or as a
/// predicate of the arity it was first used at.
#[derive(Clone, Copy)]
enum Use {
    Source,
    Arity(usize),
}

/// The three sources of the paper's running example (Example 1).
pub fn example1_sources() -> LavSetting {
    let mut setting = LavSetting::parse(&[
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).",
        "AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.",
        "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    ])
    .expect("example sources parse");
    debug_assert_eq!(setting.sources.len(), 3);
    setting.sources.truncate(3);
    setting
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adornment_parsing() {
        let a = Adornment::parse("fbf").unwrap();
        assert_eq!(a.arity(), 3);
        assert!(!a.is_bound(0));
        assert!(a.is_bound(1));
        assert_eq!(a.bound_positions().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.free_positions().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(a.to_string(), "fbf");
        assert!(Adornment::parse("fxb").is_none());
    }

    #[test]
    fn source_description_parses() {
        let s = SourceDescription::parse("RedCars(C, M, Y) :- CarDesc(C, M, red, Y).").unwrap();
        assert_eq!(s.name, "RedCars");
        assert_eq!(s.view.subgoals.len(), 1);
        assert!(!s.complete);
        assert!(s.adornments.is_empty());
    }

    #[test]
    fn builders() {
        let s = SourceDescription::parse("V(X, Y) :- p(X, Y).")
            .unwrap()
            .complete()
            .with_adornment("bf")
            .unwrap();
        assert!(s.complete);
        assert_eq!(s.adornments[0].to_string(), "bf");
    }

    #[test]
    fn adornments_need_one_b_or_f_per_head_position() {
        let v = SourceDescription::parse("V(X, Y) :- p(X, Y).").unwrap();
        for bad in ["bfb", "b", "xz", ""] {
            let err = v.clone().with_adornment(bad).unwrap_err();
            assert_eq!(
                err,
                InputError::Adornment {
                    source: Symbol::new("V"),
                    pattern: bad.to_string()
                }
            );
            assert!(err.to_string().contains("source V"), "{err}");
        }
        // The gate checks adornments pushed without the builder too.
        let mut pushed = v.clone();
        pushed.adornments.push(Adornment::parse("f").unwrap());
        assert!(matches!(
            check_input(&[], [&pushed], None),
            Err(InputError::Adornment { .. })
        ));
    }

    fn gate(
        queries: &[(&str, &str)],
        views: &[&str],
        instance: Option<&str>,
    ) -> Result<(), InputError> {
        use qc_datalog::parse_program;
        let programs: Vec<(Program, Symbol)> = queries
            .iter()
            .map(|(p, a)| (parse_program(p).unwrap(), Symbol::new(a)))
            .collect();
        let pairs: Vec<(&Program, &Symbol)> = programs.iter().map(|(p, a)| (p, a)).collect();
        let views = LavSetting::parse(views).unwrap();
        let db = instance.map(|i| Database::parse(i).unwrap());
        check_input(&pairs, &views.sources, db.as_ref())
    }

    #[test]
    fn the_gate_checks_each_rule() {
        let v = ["V(X, Y) :- e(X, Y)."];
        let q = ("q(X) :- e(X, Y).", "q");
        assert_eq!(gate(&[q, q], &v, Some("V(1, 2).")), Ok(()));
        // 1: unsafe head, unrestricted comparison, ill-typed comparison.
        for bad in [
            "q(X, Y) :- e(X, Z).",
            "q(X) :- e(X, Z), W < 3.",
            "q(X) :- e(X, Z), X < red.",
        ] {
            assert!(
                matches!(gate(&[(bad, "q")], &v, None), Err(InputError::Rule(_))),
                "{bad}"
            );
        }
        assert!(matches!(
            gate(&[q], &["V(X, Y) :- e(X, Z)."], None),
            Err(InputError::Rule(_))
        ));
        // 2: across the queries and the view bodies.
        let err = gate(&[("q(X) :- e(X).", "q")], &v, None).unwrap_err();
        assert_eq!(
            err,
            InputError::Arity {
                pred: Symbol::new("e"),
                first: 1,
                other: 2
            }
        );
        assert!(matches!(
            gate(&[q, ("r(X) :- e(X, Y, Z).", "r")], &[], None),
            Err(InputError::Arity { .. })
        ));
        // 3: duplicate names, and source names used as predicates.
        assert_eq!(
            gate(&[], &["V(X, Y) :- e(X, Y).", "V(X, Y) :- f(X, Y)."], None),
            Err(InputError::DuplicateSource(Symbol::new("V")))
        );
        for (queries, views) in [
            (vec![("q(X) :- V(X, Y).", "q")], vec!["V(X, Y) :- e(X, Y)."]),
            (vec![("V(X) :- e(X, Y).", "V")], vec!["V(X, Y) :- e(X, Y)."]),
            (vec![], vec!["V(X, Y) :- e(X, Y).", "W(X) :- V(X, Y)."]),
            (vec![], vec!["V(X) :- V(X)."]),
        ] {
            assert!(
                matches!(
                    gate(&queries, &views, None),
                    Err(InputError::SourceNameUsed { .. })
                ),
                "{queries:?} {views:?}"
            );
        }
        // 4: answers with rules, of one arity.
        assert_eq!(
            gate(&[q, ("r(X) :- e(X, Y).", "zzz")], &v, None),
            Err(InputError::NoRules(Symbol::new("zzz")))
        );
        let err = gate(&[("u(X, Y) :- e(X, Y).", "u"), q], &v, None).unwrap_err();
        assert!(matches!(err, InputError::AnswerArity { .. }), "{err}");
        assert!(err.to_string().contains("u and q"), "{err}");
        // 6: instance relations named like a source.
        assert_eq!(
            gate(&[q], &v, Some("V(1). e(1, 2, 3).")),
            Err(InputError::InstanceArity {
                source: Symbol::new("V"),
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn example1_setting() {
        let v = example1_sources();
        assert_eq!(v.sources.len(), 3);
        assert!(v.source(Symbol::new("AntiqueCars")).is_some());
        assert!(!v.is_comparison_free());
        assert!(v.is_semi_interval());
        let without = v.without("RedCars");
        assert_eq!(without.sources.len(), 2);
        assert!(without.source(Symbol::new("RedCars")).is_none());
    }
}
