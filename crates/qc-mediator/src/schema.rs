//! Mediated schemas and source descriptions.

use std::fmt;

use qc_datalog::{parse_rule, ConjunctiveQuery, ParseError, Symbol};

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
    /// May be called several times to model multiple access paths.
    ///
    /// # Panics
    /// Panics if the string is not a valid adornment of the view's arity.
    pub fn with_adornment(mut self, s: &str) -> SourceDescription {
        let a = Adornment::parse(s).expect("adornment must be over {b, f}");
        assert_eq!(
            a.arity(),
            self.view.head.arity(),
            "adornment arity must match the view head"
        );
        self.adornments.push(a);
        self
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

/// A declared mediated schema: relation names with arities.
///
/// Purely optional — the algorithms infer vocabularies structurally — but
/// validating queries and view definitions against a declared schema
/// catches typos (wrong relation name, wrong arity) before they silently
/// become "no certain answers".
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MediatedSchema {
    relations: std::collections::BTreeMap<Symbol, usize>,
}

/// A schema-validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A body atom uses a relation the schema does not declare.
    UnknownRelation {
        /// The offending relation.
        relation: Symbol,
        /// Where it was used (display form of the rule).
        context: String,
    },
    /// A body atom uses a relation at the wrong arity.
    WrongArity {
        /// The offending relation.
        relation: Symbol,
        /// Declared arity.
        declared: usize,
        /// Used arity.
        used: usize,
        /// Where it was used.
        context: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownRelation { relation, context } => {
                write!(f, "unknown mediated relation {relation} in: {context}")
            }
            SchemaError::WrongArity {
                relation,
                declared,
                used,
                context,
            } => write!(
                f,
                "relation {relation} declared with arity {declared}, used with {used} in: {context}"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

impl MediatedSchema {
    /// Builds a schema from `(name, arity)` pairs.
    pub fn new(relations: impl IntoIterator<Item = (&'static str, usize)>) -> MediatedSchema {
        MediatedSchema {
            relations: relations
                .into_iter()
                .map(|(n, a)| (Symbol::new(n), a))
                .collect(),
        }
    }

    /// Declares a relation.
    pub fn declare(&mut self, name: impl AsRef<str>, arity: usize) {
        self.relations.insert(Symbol::new(name), arity);
    }

    /// The declared arity of a relation.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.relations.get(&Symbol::new(name)).copied()
    }

    /// Infers a schema from the view bodies of a setting (first use wins;
    /// inconsistent uses surface via [`MediatedSchema::validate_views`]).
    pub fn infer(views: &LavSetting) -> MediatedSchema {
        let mut s = MediatedSchema::default();
        for src in &views.sources {
            for a in &src.view.subgoals {
                s.relations.entry(a.pred).or_insert(a.arity());
            }
        }
        s
    }

    fn check_atoms<'a>(
        &self,
        atoms: impl Iterator<Item = &'a qc_datalog::Atom>,
        context: &str,
    ) -> Result<(), SchemaError> {
        for a in atoms {
            match self.relations.get(&a.pred) {
                None => {
                    return Err(SchemaError::UnknownRelation {
                        relation: a.pred,
                        context: context.to_string(),
                    })
                }
                Some(&declared) if declared != a.arity() => {
                    return Err(SchemaError::WrongArity {
                        relation: a.pred,
                        declared,
                        used: a.arity(),
                        context: context.to_string(),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Validates every view definition against the schema.
    pub fn validate_views(&self, views: &LavSetting) -> Result<(), SchemaError> {
        for src in &views.sources {
            let ctx = src.view.to_rule().to_string();
            self.check_atoms(src.view.subgoals.iter(), &ctx)?;
        }
        Ok(())
    }

    /// Validates a query program: every *EDB* body atom (an atom whose
    /// predicate the program does not define) must match the schema.
    pub fn validate_query(&self, query: &qc_datalog::Program) -> Result<(), SchemaError> {
        let idb = query.idb_preds();
        for rule in query.rules() {
            let ctx = rule.to_string();
            self.check_atoms(rule.body_atoms().filter(|a| !idb.contains(&a.pred)), &ctx)?;
        }
        Ok(())
    }
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
            .with_adornment("bf");
        assert!(s.complete);
        assert_eq!(s.adornments[0].to_string(), "bf");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn adornment_arity_checked() {
        let _ = SourceDescription::parse("V(X, Y) :- p(X, Y).")
            .unwrap()
            .with_adornment("bfb");
    }

    #[test]
    fn mediated_schema_validation() {
        use qc_datalog::parse_program;
        let schema = MediatedSchema::new([("CarDesc", 4), ("Review", 3)]);
        assert_eq!(schema.arity_of("CarDesc"), Some(4));
        assert_eq!(schema.arity_of("Nope"), None);
        let v = example1_sources();
        assert!(schema.validate_views(&v).is_ok());
        // Inference recovers the same schema from the views.
        let inferred = MediatedSchema::infer(&v);
        assert_eq!(inferred.arity_of("CarDesc"), Some(4));
        assert_eq!(inferred.arity_of("Review"), Some(3));
        // A typo'd query is caught.
        let typo = parse_program("q(X) :- CarDes(X, M, C, Y).").unwrap();
        assert!(matches!(
            schema.validate_query(&typo),
            Err(SchemaError::UnknownRelation { .. })
        ));
        let wrong = parse_program("q(X) :- CarDesc(X, M, C).").unwrap();
        assert!(matches!(
            schema.validate_query(&wrong),
            Err(SchemaError::WrongArity {
                declared: 4,
                used: 3,
                ..
            })
        ));
        // IDB helpers in the query are not checked against the schema.
        let helper = parse_program("q(X) :- h(X). h(X) :- CarDesc(X, M, C, Y).").unwrap();
        assert!(schema.validate_query(&helper).is_ok());
        // Errors render.
        let msg = schema.validate_query(&typo).unwrap_err().to_string();
        assert!(msg.contains("unknown"), "{msg}");
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
