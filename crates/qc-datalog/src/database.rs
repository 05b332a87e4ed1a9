//! In-memory databases: flat interned-id relations with per-position
//! indexes.

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::BuildHasher;

use crate::fx::{FxBuildHasher, FxHashMap};
use crate::{value, Atom, ParseError, Symbol, Term};

/// A ground tuple. Values are ground [`Term`]s: constants, or function
/// terms (the labelled nulls produced by inverse-rule plans).
pub type Tuple = Vec<Term>;

/// A relation instance: a duplicate-free, insertion-ordered set of ground
/// tuples stored as a flat `Vec<u32>` of interned value ids.
///
/// Row `r` of an arity-`a` relation occupies `flat[r*a .. (r+1)*a]`, so
/// every row of one relation must have the same arity. Two index
/// structures ride on top of the flat array, both maintained incrementally
/// on insert (relations are append-only during evaluation):
///
/// * a dedup table mapping each row hash to the first row with that hash,
///   plus a side table for rows whose 64-bit hash collides with an earlier
///   row's (tuple set membership without storing a second copy of any
///   row, and without a heap allocation per row);
/// * per-position hash indexes `index[i]: value id → ascending row ids`,
///   which keep join lookups constant-time per candidate.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Row-major value ids; `rows * arity` entries.
    flat: Vec<u32>,
    /// Number of rows (tracked explicitly so zero-arity relations work).
    rows: usize,
    /// Arity, fixed by the first insert.
    arity: Option<usize>,
    /// Row hash → the first row id with that hash.
    dedup: FxHashMap<u64, u32>,
    /// Row hash → later row ids whose hash equals an earlier row's.
    collisions: FxHashMap<u64, Vec<u32>>,
    /// `index[i][v]` = ascending row ids whose position `i` equals `v`.
    index: Vec<FxHashMap<u32, Vec<u32>>>,
}

fn row_hash(row: &[u32]) -> u64 {
    FxBuildHasher::default().hash_one(row)
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The arity fixed by the first insert, or `None` if empty.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// The tuples, materialized from the flat id array, in insertion
    /// order.
    pub fn tuples(&self) -> Vec<Tuple> {
        (0..self.rows as u32).map(|id| self.row(id)).collect()
    }

    /// The value ids of row `id`.
    pub fn row_ids(&self, id: u32) -> &[u32] {
        let a = self.arity.unwrap_or(0);
        let start = id as usize * a;
        &self.flat[start..start + a]
    }

    /// The tuple at a row id, materialized.
    pub fn row(&self, id: u32) -> Tuple {
        self.row_ids(id)
            .iter()
            .map(|&v| value::resolve(v).clone())
            .collect()
    }

    fn find_row(&self, hash: u64, row: &[u32]) -> Option<u32> {
        let &first = self.dedup.get(&hash)?;
        if self.row_ids(first) == row {
            return Some(first);
        }
        self.collisions
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| self.row_ids(id) == row)
    }

    /// Whether the relation contains a tuple.
    pub fn contains(&self, t: &Tuple) -> bool {
        if self.arity != Some(t.len()) {
            return false;
        }
        let mut row = Vec::with_capacity(t.len());
        for term in t {
            // A value no database has ever seen cannot be stored here.
            match value::lookup(term) {
                Some(v) => row.push(v),
                None => return false,
            }
        }
        self.contains_ids(&row)
    }

    /// Whether the relation contains a row of value ids.
    pub fn contains_ids(&self, row: &[u32]) -> bool {
        self.arity == Some(row.len()) && self.find_row(row_hash(row), row).is_some()
    }

    /// Inserts a ground tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple's arity disagrees with previously inserted
    /// tuples, and (debug builds) if the tuple is not ground.
    pub fn insert(&mut self, t: Tuple) -> bool {
        debug_assert!(t.iter().all(Term::is_ground), "non-ground tuple {t:?}");
        let row: Vec<u32> = t.iter().map(value::intern).collect();
        self.insert_ids(&row)
    }

    /// Inserts a row of value ids; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the arity disagrees with previously inserted rows: the
    /// flat row layout depends on one arity per relation.
    pub fn insert_ids(&mut self, row: &[u32]) -> bool {
        self.insert_hashed(row_hash(row), row)
    }

    fn insert_hashed(&mut self, hash: u64, row: &[u32]) -> bool {
        let a = row.len();
        match self.arity {
            Some(arity) => assert!(
                arity == a,
                "arity mismatch: row {row:?} inserted into a relation of arity {arity}"
            ),
            None => {
                self.arity = Some(a);
                self.index.resize_with(a, FxHashMap::default);
            }
        }
        let id = u32::try_from(self.rows).expect("relation row ids fit in u32");
        match self.dedup.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(id);
            }
            Entry::Occupied(e) => {
                let flat = &self.flat;
                let same = |other: u32| &flat[other as usize * a..][..a] == row;
                if same(*e.get())
                    || self
                        .collisions
                        .get(&hash)
                        .is_some_and(|chain| chain.iter().any(|&other| same(other)))
                {
                    return false;
                }
                self.collisions.entry(hash).or_default().push(id);
            }
        }
        self.flat.extend_from_slice(row);
        self.rows += 1;
        for (i, &v) in row.iter().enumerate() {
            self.index[i].entry(v).or_default().push(id);
        }
        true
    }

    /// Row ids whose position `pos` holds the value id `v`.
    pub fn rows_with_id(&self, pos: usize, v: u32) -> &[u32] {
        self.index
            .get(pos)
            .and_then(|m| m.get(&v))
            .map_or(&[], Vec::as_slice)
    }

    /// The rows that hold no labelled null, i.e. whose value ids all have
    /// function depth 0, in insertion order. Returns `self` unchanged when
    /// no row holds a null.
    pub fn without_nulls(self) -> Relation {
        let null_free = |row: &[u32]| row.iter().all(|&v| value::depth(v) == 0);
        if null_free(&self.flat) {
            return self;
        }
        let mut out = Relation::new();
        for id in 0..self.rows as u32 {
            let row = self.row_ids(id);
            if null_free(row) {
                out.insert_ids(row);
            }
        }
        out
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Relation {
        let mut r = Relation::new();
        for t in iter {
            r.insert(t);
        }
        r
    }
}

/// A database: a map from predicate names to relation instances.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: FxHashMap<Symbol, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The relation for a predicate (empty if absent).
    pub fn relation(&self, pred: &Symbol) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// Consumes the database and returns the relation for a predicate
    /// (empty if absent), moved out rather than copied.
    pub fn into_relation(mut self, pred: &Symbol) -> Relation {
        self.relations.remove(pred).unwrap_or_default()
    }

    /// Number of tuples for a predicate.
    pub fn len_of(&self, pred: &Symbol) -> usize {
        self.relations.get(pred).map_or(0, Relation::len)
    }

    /// Total number of tuples.
    pub fn total_len(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The predicates with at least one tuple recorded (or registered).
    pub fn preds(&self) -> impl Iterator<Item = &Symbol> {
        self.relations.keys()
    }

    /// Inserts a ground fact; returns `true` if new.
    ///
    /// # Panics
    /// Panics if the tuple's arity disagrees with the facts already stored
    /// for `pred` (see [`Database::check_arity`]).
    pub fn insert(&mut self, pred: impl AsRef<str>, tuple: Tuple) -> bool {
        self.relations
            .entry(Symbol::new(pred))
            .or_default()
            .insert(tuple)
    }

    /// Inserts a row of value ids for a predicate; returns `true` if new.
    pub fn insert_ids(&mut self, pred: Symbol, row: &[u32]) -> bool {
        self.relations.entry(pred).or_default().insert_ids(row)
    }

    /// Inserts a ground atom as a fact.
    ///
    /// # Panics
    /// Panics if the atom is not ground, or if its arity disagrees with
    /// the facts already stored for its predicate.
    pub fn insert_atom(&mut self, atom: &Atom) -> bool {
        assert!(atom.is_ground(), "fact must be ground: {atom}");
        self.insert(atom.pred.as_str(), atom.args.clone())
    }

    /// Checks that a fact with `arity` arguments fits the facts already
    /// stored for `pred`: on a mismatch, an error naming the predicate and
    /// both arities. Check before inserting facts from user input — one
    /// relation stores rows of one arity.
    pub fn check_arity(&self, pred: &Symbol, arity: usize) -> Result<(), String> {
        match self.relations.get(pred).and_then(Relation::arity) {
            Some(have) if have != arity => Err(format!(
                "predicate {pred} has arity {have}, but this fact has {arity} argument(s)"
            )),
            _ => Ok(()),
        }
    }

    /// Whether a ground atom is present.
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        self.relations
            .get(&atom.pred)
            .is_some_and(|r| r.contains(&atom.args))
    }

    /// All facts as ground atoms, sorted for deterministic output.
    pub fn facts(&self) -> Vec<Atom> {
        let mut out: Vec<Atom> = self
            .relations
            .iter()
            .flat_map(|(p, r)| {
                r.tuples()
                    .into_iter()
                    .map(move |t| Atom { pred: *p, args: t })
            })
            .collect();
        out.sort();
        out
    }

    /// Merges another database into this one.
    pub fn merge(&mut self, other: &Database) {
        for (p, r) in &other.relations {
            let dst = self.relations.entry(*p).or_default();
            for id in 0..r.len() as u32 {
                dst.insert_ids(r.row_ids(id));
            }
        }
    }

    /// Parses a database from fact syntax, e.g.
    /// `edge(1, 2). edge(2, 3). color(1, red).` Every fact of one
    /// predicate must have the same arity.
    pub fn parse(src: &str) -> Result<Database, ParseError> {
        let program = crate::parse_program(src)?;
        let mut db = Database::new();
        let error = |message: String| ParseError {
            message,
            line: 1,
            col: 1,
        };
        for rule in program.rules() {
            if !rule.body.is_empty() {
                return Err(error(format!("expected a fact, found rule {rule}")));
            }
            if !rule.head.is_ground() {
                return Err(error(format!("fact must be ground: {}", rule.head)));
            }
            db.check_arity(&rule.head.pred, rule.head.args.len())
                .map_err(|e| error(format!("{e}: {}", rule.head)))?;
            db.insert_atom(&rule.head);
        }
        Ok(db)
    }

    /// Loads tuples for one relation from CSV-ish text: one tuple per
    /// line, comma-separated values. Values parse as numbers when they
    /// look numeric, as symbolic constants otherwise; surrounding
    /// whitespace is trimmed; empty lines and `#`-comment lines are
    /// skipped. Every row must have the relation's arity: that of the
    /// facts already stored for `pred`, else that of the first row.
    ///
    /// ```
    /// use qc_datalog::{Database, Symbol};
    /// let mut db = Database::new();
    /// db.load_csv("car", "c1, corolla, 1988\n# a comment\nc2, ford, 1955\n")
    ///     .unwrap();
    /// assert_eq!(db.len_of(&Symbol::new("car")), 2);
    /// ```
    pub fn load_csv(&mut self, pred: &str, text: &str) -> Result<usize, ParseError> {
        let pred = Symbol::new(pred);
        let mut n = 0;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let values: Vec<Term> = line
                .split(',')
                .map(|field| {
                    let f = field.trim();
                    match f.parse::<i64>() {
                        Ok(i) => Term::int(i),
                        Err(_) => Term::sym(f),
                    }
                })
                .collect();
            self.check_arity(&pred, values.len())
                .map_err(|message| ParseError {
                    message: format!("csv row: {message}"),
                    line: lineno + 1,
                    col: 1,
                })?;
            self.relations.entry(pred).or_default().insert(values);
            n += 1;
        }
        Ok(n)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in self.facts() {
            writeln!(f, "{a}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(t: Term) -> u32 {
        value::intern(&t)
    }

    #[test]
    fn insert_dedup_and_index() {
        let mut r = Relation::new();
        assert!(r.insert(vec![Term::int(1), Term::int(2)]));
        assert!(!r.insert(vec![Term::int(1), Term::int(2)]));
        assert!(r.insert(vec![Term::int(1), Term::int(3)]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows_with_id(0, id(Term::int(1))).len(), 2);
        assert_eq!(r.rows_with_id(1, id(Term::int(2))).len(), 1);
        assert!(r.rows_with_id(1, id(Term::int(9))).is_empty());
    }

    #[test]
    fn duplicate_inserts_leave_relation_consistent() {
        // The dedup table must reject duplicates without touching the
        // flat array or any per-position index.
        let mut r = Relation::new();
        let t = vec![Term::int(7), Term::sym("a")];
        assert!(r.insert(t.clone()));
        for _ in 0..3 {
            assert!(!r.insert(t.clone()), "duplicate insert must return false");
        }
        assert_eq!(r.len(), 1);
        assert!(r.contains(&t));
        assert_eq!(r.tuples(), std::slice::from_ref(&t));
        assert_eq!(r.rows_with_id(0, id(Term::int(7))), &[0]);
        assert_eq!(r.rows_with_id(1, id(Term::sym("a"))), &[0]);
        // Interleaved duplicates keep row ids dense and in insertion order.
        let u = vec![Term::int(7), Term::sym("b")];
        assert!(r.insert(u.clone()));
        assert!(!r.insert(t.clone()));
        assert!(!r.insert(u.clone()));
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows_with_id(0, id(Term::int(7))), &[0, 1]);
        assert_eq!(r.row(1), u);
    }

    #[test]
    fn hash_collisions_keep_distinct_rows_apart() {
        // Force every row onto one hash: the first row sits in the dedup
        // table, the others in the collision side table, and duplicates of
        // either kind are still rejected.
        let mut r = Relation::new();
        let rows = [[1, 2], [3, 4], [5, 6]];
        for row in &rows {
            assert!(r.insert_hashed(7, row));
        }
        for row in &rows {
            assert!(!r.insert_hashed(7, row), "{row:?} is already stored");
        }
        assert_eq!(r.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(r.find_row(7, row), Some(i as u32));
            assert_eq!(r.row_ids(i as u32), row);
        }
        assert_eq!(r.find_row(7, &[1, 4]), None);
        assert_eq!(r.find_row(8, &[1, 2]), None);
    }

    #[test]
    fn zero_arity_relation() {
        let mut r = Relation::new();
        assert!(r.insert(vec![]));
        assert!(!r.insert(vec![]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&vec![]));
        assert_eq!(r.arity(), Some(0));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn mixed_arity_insert_panics() {
        let mut r = Relation::new();
        r.insert(vec![Term::int(1), Term::int(2)]);
        r.insert(vec![Term::int(3)]);
    }

    #[test]
    fn without_nulls_drops_exactly_the_rows_holding_a_skolem_value() {
        let null = Term::app("f", vec![Term::sym("a")]);
        let rows = [
            vec![Term::sym("a"), Term::int(1)],
            vec![null.clone(), Term::int(2)],
            vec![Term::sym("b"), Term::int(3)],
            vec![Term::sym("c"), Term::app("g", vec![null])],
        ];
        let r: Relation = rows.iter().cloned().collect();
        let kept = r.without_nulls();
        assert_eq!(kept.tuples(), vec![rows[0].clone(), rows[2].clone()]);
        assert!(kept.contains(&rows[2]));
        assert!(!kept.contains(&rows[1]));
        assert_eq!(kept.rows_with_id(0, id(Term::sym("b"))), &[1]);
        // Every row null: an empty relation.
        let all_null: Relation = [vec![Term::app("f", vec![Term::int(1)])]]
            .into_iter()
            .collect();
        assert!(all_null.without_nulls().is_empty());
    }

    #[test]
    fn without_nulls_keeps_a_null_free_relation_as_is() {
        let rows: Vec<Tuple> = (0..5).map(|i| vec![Term::int(i), Term::sym("x")]).collect();
        let r: Relation = rows.iter().cloned().collect();
        let kept = r.without_nulls();
        assert_eq!(kept.tuples(), rows);
        assert_eq!(kept.rows_with_id(1, id(Term::sym("x"))), &[0, 1, 2, 3, 4]);
        assert!(Relation::new().without_nulls().is_empty());
    }

    #[test]
    fn database_parse_and_facts() {
        let db = Database::parse("edge(1, 2). edge(2, 3). color(1, red).").unwrap();
        assert_eq!(db.total_len(), 3);
        assert_eq!(db.len_of(&Symbol::new("edge")), 2);
        assert!(db.contains_atom(&Atom::new("color", vec![Term::int(1), Term::sym("red")])));
        assert!(Database::parse("p(X).").is_err());
        assert!(Database::parse("p(X) :- q(X).").is_err());
    }

    #[test]
    fn parse_rejects_facts_of_two_arities() {
        for src in ["p(1). p(1, 2).", "p(1, 2). p(3).", "p(1, 2). p(3). p(4)."] {
            let err = Database::parse(src).expect_err(src);
            let msg = err.message;
            assert!(msg.contains("predicate p"), "{src}: {msg}");
            assert!(msg.contains("arity 1") || msg.contains("arity 2"), "{msg}");
            assert!(
                msg.contains("1 argument") || msg.contains("2 argument"),
                "{msg}"
            );
        }
        // Same name, same arity across facts is fine.
        assert_eq!(Database::parse("p(1). p(2).").unwrap().total_len(), 2);
    }

    #[test]
    fn load_csv_checks_the_stored_arity() {
        let mut db = Database::parse("p(1, 2).").unwrap();
        let err = db.load_csv("p", "3, 4\n5\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message.contains("predicate p has arity 2"),
            "{}",
            err.message
        );
        let err = db.load_csv("p", "# header\n6\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(db.len_of(&Symbol::new("p")), 2);
        assert!(db.check_arity(&Symbol::new("p"), 2).is_ok());
        assert!(db.check_arity(&Symbol::new("fresh"), 5).is_ok());
    }

    #[test]
    fn merge_unions_relations() {
        let mut a = Database::parse("p(1).").unwrap();
        let b = Database::parse("p(2). q(red).").unwrap();
        a.merge(&b);
        assert_eq!(a.total_len(), 3);
    }

    #[test]
    fn into_relation_moves_one_relation_out() {
        let db = Database::parse("p(1). p(2). q(red).").unwrap();
        let p = db.clone().into_relation(&Symbol::new("p"));
        assert_eq!(p.tuples(), vec![vec![Term::int(1)], vec![Term::int(2)]]);
        assert!(db.into_relation(&Symbol::new("absent")).is_empty());
    }

    #[test]
    fn display_round_trips() {
        let db = Database::parse("edge(1, 2). color(1, red).").unwrap();
        let printed = db.to_string();
        let db2 = Database::parse(&printed).unwrap();
        assert_eq!(db.facts(), db2.facts());
    }
}
