//! A mutable, delta-maintained source catalog.
//!
//! The paper's data-integration setting assumes sources come and go
//! constantly; recomputing every compiled artifact from scratch on each
//! change throws away exactly the work the per-view structure of the
//! algorithms makes reusable: **inverse rules**
//! ([`crate::inverse_rules`](mod@crate::inverse_rules)) are generated per
//! source with no cross-view state, so the rules of an untouched view are
//! byte-identical before and after a delta.
//!
//! A [`CompiledCatalog`] caches them per view, each view behind an
//! [`Arc`] so a copy of the catalog shares every view's artifacts.
//! [`CompiledCatalog::apply`] recompiles only the views an op touches and
//! stamps them with the new catalog version; everything else is reused
//! by `Arc` identity (counted by `catalog_epoch_views_recompiled` /
//! `catalog_epoch_views_reused`). [`CompiledCatalog::compile`] is the
//! from-scratch build: a decision over a plain setting compiles it this
//! way, and it is the differential oracle for `apply`: for any delta
//! sequence, `apply` must land on exactly the artifacts `compile`
//! produces for the final setting (a property test pins this).
//!
//! ## Footprints
//!
//! A view's *footprint* is its exported name plus its body predicates.
//! A decision about a query can only depend on the views whose footprint
//! meets the query's predicates ([`CompiledView::meets`]): any other
//! view's inverse rules define predicates the query never reaches. Each
//! compiled view keeps its footprint as interned symbols, so the test is
//! integer comparisons, and the planner in [`crate::relative`] draws
//! only on the views a query meets, on every surface.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use qc_datalog::{Program, Rule, Symbol};

use crate::inverse_rules::inverse_rules_for_source;
use crate::schema::{check_input, InputError, LavSetting, SourceDescription};

/// One mutation of the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogOp {
    /// Adds a new source (error if the name is already present). The
    /// source is appended, so plan/disjunct order for untouched inputs is
    /// unchanged.
    Add(SourceDescription),
    /// Removes the named source (error if absent).
    Remove(String),
    /// Replaces the named source's definition in place, preserving its
    /// catalog position (error if absent).
    Replace(SourceDescription),
}

impl CatalogOp {
    /// Parses one line of churn-script / REPL syntax:
    ///
    /// ```text
    /// add V(X) :- p(X, Y).
    /// rm V
    /// replace V(X) :- p(X, Y), r(Y).
    /// ```
    ///
    /// (`remove` is accepted as a synonym for `rm`.)
    pub fn parse(line: &str) -> Result<CatalogOp, CatalogError> {
        let line = line.trim();
        let (verb, rest) = line.split_once(char::is_whitespace).ok_or_else(|| {
            CatalogError::Parse(format!("catalog op needs an argument: {line:?}"))
        })?;
        let rest = rest.trim();
        match verb {
            "add" => Ok(CatalogOp::Add(SourceDescription::parse(rest).map_err(
                |e| CatalogError::Parse(format!("add: bad view definition {rest:?}: {e}")),
            )?)),
            "replace" => Ok(CatalogOp::Replace(SourceDescription::parse(rest).map_err(
                |e| CatalogError::Parse(format!("replace: bad view definition {rest:?}: {e}")),
            )?)),
            "rm" | "remove" => {
                if rest.is_empty() || rest.contains(char::is_whitespace) {
                    return Err(CatalogError::Parse(format!(
                        "rm expects a single view name, got {rest:?}"
                    )));
                }
                Ok(CatalogOp::Remove(rest.to_string()))
            }
            other => Err(CatalogError::Parse(format!(
                "unknown catalog op {other:?} (expected add/rm/replace)"
            ))),
        }
    }

    /// The view name the op targets.
    pub fn name(&self) -> &str {
        match self {
            CatalogOp::Add(s) | CatalogOp::Replace(s) => s.name.as_str(),
            CatalogOp::Remove(n) => n,
        }
    }
}

/// An ordered batch of catalog mutations, applied atomically: either every
/// op validates and the catalog moves to the new version, or nothing
/// changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatalogDelta {
    /// The ops, applied in order (so `add V` followed by `replace V` in
    /// one delta is legal).
    pub ops: Vec<CatalogOp>,
}

impl CatalogDelta {
    /// A single-op delta.
    pub fn one(op: CatalogOp) -> CatalogDelta {
        CatalogDelta { ops: vec![op] }
    }
}

/// Why a delta (or one of its ops) was refused. Refusal is atomic: the
/// catalog is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// `add` named a view already in the catalog.
    Duplicate(String),
    /// `rm`/`replace` named a view not in the catalog.
    Unknown(String),
    /// Unparsable op syntax.
    Parse(String),
    /// An added or replacing view is not well formed on its own
    /// ([`check_input`]).
    Input(InputError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Duplicate(n) => write!(f, "view {n:?} already in the catalog"),
            CatalogError::Unknown(n) => write!(f, "no view {n:?} in the catalog"),
            CatalogError::Parse(m) => write!(f, "{m}"),
            CatalogError::Input(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// What a [`CompiledCatalog::apply`] did: the invalidation keys and the
/// reuse accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Names of views recompiled (added/replaced) or removed.
    pub touched_views: Vec<String>,
    /// Every predicate whose meaning the delta may have changed: the
    /// touched views' exported names plus every mediated-schema predicate
    /// in their bodies (old *and* new body for a replace). Cached results
    /// whose request mentions none of these predicates are unaffected.
    pub touched_preds: BTreeSet<String>,
    /// Views recompiled by this delta.
    pub views_recompiled: usize,
    /// Views left untouched (artifacts reused verbatim).
    pub views_reused: usize,
}

fn add_preds(out: &mut Vec<Symbol>, preds: impl IntoIterator<Item = Symbol>) {
    for p in preds {
        if !out.contains(&p) {
            out.push(p);
        }
    }
}

/// Appends to `out` every predicate `program` mentions — rule heads and
/// relational body atoms — that `out` does not already hold. This is a
/// query's side of the footprint test [`CompiledView::meets`].
pub fn extend_footprint(out: &mut Vec<Symbol>, program: &Program) {
    for rule in program.rules() {
        add_preds(
            out,
            std::iter::once(rule.head.pred).chain(rule.body_atoms().map(|a| a.pred)),
        );
    }
}

/// A source's footprint, with repeats: its exported name plus its body
/// predicates. A view's side of the test [`CompiledView::meets`].
fn source_footprint(source: &SourceDescription) -> impl Iterator<Item = Symbol> + '_ {
    std::iter::once(source.name).chain(source.view.subgoals.iter().map(|a| a.pred))
}

/// The sources of a plain setting whose footprint meets the predicates of
/// `queries`, in order: [`CompiledCatalog::scope`] without compiling.
pub fn setting_scope<'a>(
    views: &'a LavSetting,
    queries: &[&Program],
) -> Vec<&'a SourceDescription> {
    let mut preds = Vec::new();
    for query in queries {
        extend_footprint(&mut preds, query);
    }
    views
        .sources
        .iter()
        .filter(|s| source_footprint(s).any(|p| preds.contains(&p)))
        .collect()
}

/// One source with its compiled artifacts and the catalog version that
/// last touched it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledView {
    /// The source description as registered.
    pub source: SourceDescription,
    /// Catalog version (serve-side: epoch) at which this view was last
    /// added or replaced. Folded into request fingerprints so a touched
    /// view invalidates exactly the requests that depend on it.
    pub version: u64,
    /// The view's inverse-rule block (identical to what
    /// [`crate::inverse_rules::inverse_rules_for_source`] returns).
    pub inverse: Vec<Rule>,
    // Both derived from `source` once at compile time; private so they
    // cannot drift from it.
    footprint: Vec<Symbol>,
    rendered: String,
}

impl CompiledView {
    fn compile(source: SourceDescription, version: u64) -> CompiledView {
        let inverse = inverse_rules_for_source(&source);
        let mut footprint = Vec::new();
        add_preds(&mut footprint, source_footprint(&source));
        let rendered = source.to_string();
        CompiledView {
            source,
            version,
            inverse,
            footprint,
            rendered,
        }
    }

    /// Whether this view's footprint — the predicates its presence can
    /// influence: its exported name plus its body predicates — meets
    /// `preds`. The relevance rule shared by plan scoping and request
    /// fingerprints.
    pub fn meets(&self, preds: &[Symbol]) -> bool {
        self.footprint.iter().any(|p| preds.contains(p))
    }

    /// The source rendered as text (`source.to_string()`), cached.
    pub fn rendered(&self) -> &str {
        &self.rendered
    }
}

/// The compiled, versioned catalog: a [`LavSetting`] plus per-view cached
/// artifacts, maintained incrementally under [`CatalogOp`]s. Cloning it
/// copies the view list, not the views' compiled artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCatalog {
    entries: Vec<Arc<CompiledView>>,
    // Kept strictly in sync with `entries` (same sources, same order) so
    // the many APIs taking `&LavSetting` need no reconstruction.
    setting: LavSetting,
}

impl CompiledCatalog {
    /// Compiles every view of `views` from scratch at version 0: how a
    /// decision over a plain setting plans, and the differential oracle
    /// for [`CompiledCatalog::apply`].
    pub fn compile(views: &LavSetting) -> CompiledCatalog {
        let entries = views
            .sources
            .iter()
            .map(|s| Arc::new(CompiledView::compile(s.clone(), 0)))
            .collect();
        CompiledCatalog {
            entries,
            setting: views.clone(),
        }
    }

    /// The catalog as a plain LAV setting (entry order).
    pub fn views(&self) -> &LavSetting {
        &self.setting
    }

    /// The compiled per-view entries, in catalog order.
    pub fn entries(&self) -> &[Arc<CompiledView>] {
        &self.entries
    }

    /// The full inverse-rule program, assembled from the cached per-view
    /// blocks. Bit-for-bit equal to
    /// [`crate::inverse_rules::inverse_rules`] on [`Self::views`], because
    /// inversion is per-view and the blocks are concatenated in catalog
    /// order. Catalog plans draw only on the views a query meets; this is
    /// the full-catalog reference.
    pub fn inverse_program(&self) -> Program {
        let mut out = Program::default();
        for e in &self.entries {
            for rule in &e.inverse {
                out.push(rule.clone());
            }
        }
        out
    }

    /// The views whose footprint meets the predicates of `queries`, in
    /// catalog order: for one query, every view its maximally-contained
    /// plan can mention; for Q1 and Q2, every view a `qc-serve` request
    /// fingerprint covers.
    pub fn scope(&self, queries: &[&Program]) -> Vec<&CompiledView> {
        let mut preds = Vec::new();
        for query in queries {
            extend_footprint(&mut preds, query);
        }
        self.entries
            .iter()
            .filter(|e| e.meets(&preds))
            .map(|e| &**e)
            .collect()
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.source.name == name)
    }

    /// Checks every op of `delta` against the view names, in order: op
    /// K's validity can depend on the ops before it (`add V` then
    /// `replace V` is legal). Each added or replacing view must pass the
    /// input gate on its own; how it fits the rest of the catalog is
    /// gated where a decision reads it, so this costs the delta's views,
    /// not the catalog's.
    fn validate(&self, delta: &CatalogDelta) -> Result<(), CatalogError> {
        let mut present: BTreeMap<&str, bool> = BTreeMap::new();
        for op in &delta.ops {
            if let CatalogOp::Add(s) | CatalogOp::Replace(s) = op {
                check_input(&[], [s], None).map_err(CatalogError::Input)?;
            }
            let name = op.name();
            let here = *present
                .entry(name)
                .or_insert_with(|| self.index_of(name).is_some());
            match op {
                CatalogOp::Add(_) if here => return Err(CatalogError::Duplicate(name.to_string())),
                CatalogOp::Remove(_) | CatalogOp::Replace(_) if !here => {
                    return Err(CatalogError::Unknown(name.to_string()))
                }
                _ => {}
            }
            present.insert(name, !matches!(op, CatalogOp::Remove(_)));
        }
        Ok(())
    }

    /// Applies `delta` atomically, stamping every touched view with
    /// `version`. The ops are validated on view names first and only then
    /// committed in place, so on error the catalog is unchanged.
    pub fn apply(
        &mut self,
        delta: &CatalogDelta,
        version: u64,
    ) -> Result<DeltaReport, CatalogError> {
        self.validate(delta)?;
        let mut report = DeltaReport::default();
        let mut touch = |view: &CompiledView| {
            report
                .touched_preds
                .extend(view.footprint.iter().map(|p| p.to_string()));
        };
        let mut touched_views = Vec::new();
        for op in &delta.ops {
            match op {
                CatalogOp::Add(s) => {
                    let compiled = CompiledView::compile(s.clone(), version);
                    touch(&compiled);
                    self.setting.sources.push(s.clone());
                    self.entries.push(Arc::new(compiled));
                }
                CatalogOp::Remove(name) => {
                    let ix = self.index_of(name).expect("validate() found the view");
                    self.setting.sources.remove(ix);
                    touch(&self.entries.remove(ix));
                }
                CatalogOp::Replace(s) => {
                    let ix = self
                        .index_of(s.name.as_str())
                        .expect("validate() found the view");
                    let compiled = CompiledView::compile(s.clone(), version);
                    // Both the old and the new definition's footprint can
                    // be affected by the swap.
                    touch(&self.entries[ix]);
                    touch(&compiled);
                    self.setting.sources[ix] = s.clone();
                    self.entries[ix] = Arc::new(compiled);
                }
            }
            touched_views.push(op.name().to_string());
        }
        touched_views.sort();
        touched_views.dedup();
        report.views_recompiled = touched_views.len();
        report.views_reused = self
            .entries
            .iter()
            .filter(|e| !touched_views.iter().any(|t| e.source.name == t.as_str()))
            .count();
        report.touched_views = touched_views;
        qc_obs::count(
            qc_obs::Counter::CatalogEpochViewsRecompiled,
            report.views_recompiled as u64,
        );
        qc_obs::count(
            qc_obs::Counter::CatalogEpochViewsReused,
            report.views_reused as u64,
        );
        Ok(report)
    }

    /// Stamps every view with `version` (used when a restarted process
    /// cannot prove its catalog matches the journaled one: everything is
    /// treated as freshly changed).
    pub fn set_all_versions(&mut self, version: u64) {
        for e in &mut self.entries {
            Arc::make_mut(e).version = version;
        }
    }

    /// Restores per-view versions from a `(names, versions)` pair (a
    /// journaled epoch record). Names absent from the catalog are ignored;
    /// views absent from the record keep their current version.
    pub fn restore_versions(&mut self, names: &[String], versions: &[u64]) {
        for (name, v) in names.iter().zip(versions) {
            if let Some(ix) = self.index_of(name) {
                Arc::make_mut(&mut self.entries[ix]).version = *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse_rules::inverse_rules;
    use crate::schema::example1_sources;

    fn op(line: &str) -> CatalogOp {
        CatalogOp::parse(line).unwrap()
    }

    #[test]
    fn parse_ops() {
        assert!(matches!(op("add V(X) :- p(X, Y)."), CatalogOp::Add(_)));
        assert!(matches!(op("  rm V "), CatalogOp::Remove(n) if n == "V"));
        assert!(matches!(op("remove V"), CatalogOp::Remove(_)));
        assert!(matches!(op("replace V(X) :- p(X)."), CatalogOp::Replace(_)));
        assert!(CatalogOp::parse("rm").is_err());
        assert!(CatalogOp::parse("rm two names").is_err());
        assert!(CatalogOp::parse("frobnicate V").is_err());
        assert!(CatalogOp::parse("add not a rule").is_err());
    }

    #[test]
    fn strict_errors_leave_catalog_unchanged() {
        let mut cat = CompiledCatalog::compile(&example1_sources());
        let before = cat.clone();
        let dup = CatalogDelta::one(op("add RedCars(C, M, Y) :- CarDesc(C, M, red, Y)."));
        assert!(matches!(
            cat.apply(&dup, 1),
            Err(CatalogError::Duplicate(_))
        ));
        let missing = CatalogDelta::one(op("rm NoSuchView"));
        assert!(matches!(
            cat.apply(&missing, 1),
            Err(CatalogError::Unknown(_))
        ));
        // A multi-op delta failing mid-way must not half-apply.
        let partial = CatalogDelta {
            ops: vec![op("add W(X) :- CarDesc(X, M, C, Y)."), op("rm NoSuchView")],
        };
        assert!(cat.apply(&partial, 1).is_err());
        assert_eq!(cat, before, "atomicity");
    }

    #[test]
    fn validation_replays_ops_in_order() {
        let mut cat = CompiledCatalog::compile(&example1_sources());
        let before = cat.clone();
        // Each op sees the ones before it: removing twice fails on the
        // second, even though the name exists when the delta starts.
        let twice = CatalogDelta {
            ops: vec![op("rm RedCars"), op("rm RedCars")],
        };
        assert_eq!(
            cat.apply(&twice, 1),
            Err(CatalogError::Unknown("RedCars".into()))
        );
        assert_eq!(cat, before, "atomicity");
        // ...and an op may rely on an earlier one.
        let legal = CatalogDelta {
            ops: vec![
                op("add W(X) :- p(X)."),
                op("replace W(X) :- p(X), r(X)."),
                op("rm RedCars"),
                op("add RedCars(C) :- CarDesc(C, M, red, Y)."),
            ],
        };
        let report = cat.apply(&legal, 1).unwrap();
        assert_eq!(report.touched_views, vec!["RedCars", "W"]);
        let names: Vec<String> = cat
            .entries()
            .iter()
            .map(|e| e.source.name.to_string())
            .collect();
        assert_eq!(names, ["AntiqueCars", "CarAndDriver", "W", "RedCars"]);
        assert_eq!(cat.entries()[2].rendered(), "W(X) :- p(X), r(X).");
    }

    #[test]
    fn scope_keeps_the_views_a_query_meets_in_catalog_order() {
        let mut views = example1_sources();
        views
            .sources
            .push(SourceDescription::parse("W(A) :- wsrc(A, B).").unwrap());
        let cat = CompiledCatalog::compile(&views);
        let scoped = |query: &str| -> Vec<String> {
            cat.scope(&[&qc_datalog::parse_program(query).unwrap()])
                .iter()
                .map(|e| e.source.name.to_string())
                .collect()
        };
        assert_eq!(
            scoped("q(C) :- Review(M, C, R), CarDesc(C, M, X, Y)."),
            ["RedCars", "AntiqueCars", "CarAndDriver"]
        );
        assert_eq!(scoped("q(C) :- Review(M, C, R)."), ["CarAndDriver"]);
        // A view's exported name is part of its footprint.
        assert_eq!(scoped("q(A) :- W(A)."), ["W"]);
        assert!(scoped("q(A) :- elsewhere(A).").is_empty());
    }

    #[test]
    fn assembled_inverse_program_matches_plain_inverse_rules() {
        let cat = CompiledCatalog::compile(&example1_sources());
        assert_eq!(
            format!("{:?}", cat.inverse_program().rules()),
            format!("{:?}", inverse_rules(&example1_sources()).rules()),
        );
    }

    #[test]
    fn apply_touches_only_affected_views_and_reports_keys() {
        let mut cat = CompiledCatalog::compile(&example1_sources());
        let before_antique = cat.entries()[1].clone();
        let report = cat
            .apply(
                &CatalogDelta::one(op(
                    "replace RedCars(C, M, Y) :- CarDesc(C, M, red, Y), Review(M, R, 10).",
                )),
                7,
            )
            .unwrap();
        assert_eq!(report.touched_views, vec!["RedCars".to_string()]);
        assert_eq!(report.views_recompiled, 1);
        assert_eq!(report.views_reused, 2);
        assert!(report.touched_preds.contains("RedCars"));
        assert!(report.touched_preds.contains("CarDesc"));
        assert!(report.touched_preds.contains("Review"), "new body counts");
        // Untouched entries reused verbatim, version included — shared,
        // not copied.
        assert!(Arc::ptr_eq(&cat.entries()[1], &before_antique));
        assert_eq!(cat.entries()[0].version, 7);
        // The sync invariant: setting mirrors entries.
        assert_eq!(cat.views().sources.len(), cat.entries().len());
        for (s, e) in cat.views().sources.iter().zip(cat.entries()) {
            assert_eq!(format!("{s}"), format!("{}", e.source));
        }
    }

    #[test]
    fn delta_maintenance_matches_from_scratch_oracle() {
        // The differential oracle on a hand-picked sequence; the proptest
        // below generalizes to random sequences.
        let mut cat = CompiledCatalog::compile(&example1_sources());
        let script = [
            "add Cheap(M) :- Review(M, R, 1).",
            "rm AntiqueCars",
            "replace Cheap(M) :- Review(M, R, 2).",
            "add AntiqueCars(C, M, Y) :- CarDesc(C, M, Col, Y), Y < 1960.",
        ];
        for (i, line) in script.iter().enumerate() {
            cat.apply(&CatalogDelta::one(op(line)), (i + 1) as u64)
                .unwrap();
        }
        let mut oracle = CompiledCatalog::compile(cat.views());
        // Versions are maintenance metadata, not compiled artifacts:
        // align them before the bit-for-bit comparison.
        oracle.restore_versions(
            &cat.entries()
                .iter()
                .map(|e| e.source.name.to_string())
                .collect::<Vec<_>>(),
            &cat.entries().iter().map(|e| e.version).collect::<Vec<_>>(),
        );
        assert_eq!(format!("{cat:?}"), format!("{oracle:?}"));
    }
}
