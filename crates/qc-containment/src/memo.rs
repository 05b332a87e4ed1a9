//! Canonical containment memo: a bounded cache of CQ ⊑ CQ verdicts.
//!
//! The rewriting pipelines (`minicon`, Theorem 3.1 enumeration, and the
//! datalog ⊆ UCQ type fixpoint) re-test the same (candidate, query) pairs
//! across partitions and iterations. Containment verdicts are invariant
//! under variable renaming and head-predicate renaming, so verdicts are
//! cached under *canonical keys*: [`qc_datalog::Rule::canonicalize`] forms
//! of both queries with head predicates normalized to a fixed symbol.
//! α-equivalent pairs therefore share one cache entry, and a cache hit is
//! verdict-preserving by construction (see DESIGN.md §Join-aware engine).
//!
//! The cache is *thread-local* (each worker of the parallel fan-out warms
//! its own, keeping lookups lock-free and counter totals deterministic)
//! and bounded by a two-generation LRU approximation: when the current
//! generation fills up it becomes the previous generation and the oldest
//! entries are discarded wholesale. Lookups promote previous-generation
//! hits, so the resident set stays within `2 × 4 096` verdicts with O(1)
//! operations. Questions with fewer than 16 subgoals between their two
//! sides skip the cache: canonicalizing and hashing the key costs more
//! than re-deciding them.

use std::cell::RefCell;
use std::collections::HashMap;

use qc_datalog::{ConjunctiveQuery, Rule, Symbol};

use crate::cq::cq_contained;

/// Verdicts per generation; at most twice this many are resident.
const CAPACITY: usize = 4096;

/// Questions with fewer subgoals than this between their two sides are
/// decided directly, without the cache.
const MIN_SUBGOALS: usize = 16;

/// A canonical containment question: canonical forms of both sides.
type Key = (Rule, Rule);

#[derive(Debug)]
struct GenCache {
    current: HashMap<Key, bool>,
    previous: HashMap<Key, bool>,
    capacity: usize,
}

impl GenCache {
    fn new(capacity: usize) -> GenCache {
        GenCache {
            current: HashMap::new(),
            previous: HashMap::new(),
            capacity,
        }
    }

    fn lookup(&mut self, key: &Key) -> Option<bool> {
        if let Some(&v) = self.current.get(key) {
            return Some(v);
        }
        if let Some(v) = self.previous.remove(key) {
            // Promote: recently used entries survive the next rotation.
            self.store(key.clone(), v);
            return Some(v);
        }
        None
    }

    fn store(&mut self, key: Key, verdict: bool) {
        if self.current.len() >= self.capacity {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(key, verdict);
    }

    fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }
}

thread_local! {
    static MEMO: RefCell<GenCache> = RefCell::new(GenCache::new(CAPACITY));
}

/// The canonical form of one side: α-renamed apart and head predicate
/// normalized (containment ignores head predicate names, so `p1(X) :- …`
/// and `q1(A) :- …` share an entry whenever their bodies α-match).
fn canonical_key(q: &ConjunctiveQuery) -> Rule {
    let mut r = q.to_rule();
    r.head.pred = Symbol::new("_memo_q");
    r.canonicalize()
}

/// Decides `q1 ⊆ q2` through the memo: answers from cache when the
/// canonical pair has been decided before on this thread, otherwise
/// computes via [`cq_contained`] and records the verdict. Questions with
/// fewer than 16 subgoals between their two sides go straight to
/// [`cq_contained`] (no key construction, no cache access).
pub fn cq_contained_memo(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    // One work unit per containment question asked through the memo (hits
    // and misses both — the canonicalization alone is real work).
    qc_guard::trip(qc_guard::stage::MEMO, 1);
    if q1.subgoals.len() + q2.subgoals.len() < MIN_SUBGOALS {
        return cq_contained(q1, q2);
    }
    let key = (canonical_key(q1), canonical_key(q2));
    let cached = MEMO.with(|m| m.borrow_mut().lookup(&key));
    if let Some(verdict) = cached {
        qc_obs::count(qc_obs::Counter::MemoHits, 1);
        return verdict;
    }
    qc_obs::count(qc_obs::Counter::MemoMisses, 1);
    // Decide outside the borrow (the check can be deep and may itself
    // consult the memo through nested engine calls).
    let verdict = cq_contained(q1, q2);
    MEMO.with(|m| m.borrow_mut().store(key, verdict));
    verdict
}

/// Empties this thread's memo (fresh counter baselines between bench
/// scenarios).
pub fn clear() {
    MEMO.with(|m| *m.borrow_mut() = GenCache::new(CAPACITY));
}

/// Number of resident verdicts (both generations) on this thread.
pub fn resident() -> usize {
    MEMO.with(|m| m.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_datalog::{parse_query, Atom, Term};
    use std::sync::Arc;

    fn q(s: &str) -> ConjunctiveQuery {
        parse_query(s).unwrap()
    }

    /// `s` with 8 atoms over fresh predicates and fresh variables
    /// appended: two padded sides have at least `MIN_SUBGOALS` subgoals
    /// between them, so the question goes through the cache, and the
    /// common block maps onto itself, so the verdict is `s`'s.
    fn padded(s: &str) -> ConjunctiveQuery {
        let mut cq = q(s);
        cq.subgoals.extend(
            (0..8).map(|i| Atom::new(format!("pad{i}"), vec![Term::var(format!("Pad{i}"))])),
        );
        cq
    }

    /// Hits and misses of `f` under a fresh recorder and an empty memo.
    fn memo_counters(f: impl FnOnce()) -> (u64, u64) {
        clear();
        let rec = Arc::new(qc_obs::PipelineRecorder::new());
        {
            let _g = qc_obs::install(rec.clone());
            f();
        }
        clear();
        (
            rec.counters().get(qc_obs::Counter::MemoHits),
            rec.counters().get(qc_obs::Counter::MemoMisses),
        )
    }

    #[test]
    fn memo_agrees_with_direct_check() {
        let pairs = [
            ("q(X) :- r(X, Y).", "q(A) :- r(A, B)."),
            ("q(X) :- r(X, X).", "q(A) :- r(A, B)."),
            ("q(X) :- r(X, Y).", "q(A) :- r(A, A)."),
            ("q(X) :- r(X, 10).", "q(A) :- r(A, B)."),
            ("q(X) :- r(X, Y), Y < 5.", "q(A) :- r(A, B)."),
        ];
        for (a, b) in pairs {
            let (qa, qb) = (padded(a), padded(b));
            let direct = cq_contained(&qa, &qb);
            assert_eq!(direct, cq_contained(&q(a), &q(b)), "{a} ⊆ {b} (padding)");
            let (hits, misses) = memo_counters(|| {
                assert_eq!(direct, cq_contained_memo(&qa, &qb), "{a} ⊆ {b}");
                // Second ask hits the cache and still agrees.
                assert_eq!(direct, cq_contained_memo(&qa, &qb), "{a} ⊆ {b} (cached)");
            });
            assert_eq!((hits, misses), (1, 1), "{a} ⊆ {b}");
        }
    }

    #[test]
    fn alpha_equivalent_pairs_share_an_entry() {
        let counts = memo_counters(|| {
            assert!(cq_contained_memo(
                &padded("q(X) :- e(X, Y), e(Y, Z)."),
                &padded("q(U) :- e(U, V).")
            ));
            // α-renamed and head-renamed variant of the same question.
            assert!(cq_contained_memo(
                &padded("p(A) :- e(A, B), e(B, C)."),
                &padded("r(M) :- e(M, N).")
            ));
        });
        assert_eq!(counts, (1, 1));
    }

    #[test]
    fn small_questions_bypass_the_memo() {
        // 1 + 1 subgoals < MIN_SUBGOALS: decided directly, nothing cached.
        let counts = memo_counters(|| {
            assert!(cq_contained_memo(
                &q("q(X) :- r(X, X)."),
                &q("q(A) :- r(A, B).")
            ));
            assert_eq!(resident(), 0);
        });
        assert_eq!(counts, (0, 0));
    }

    #[test]
    fn capacity_bound_holds() {
        let mut cache = GenCache::new(8);
        for i in 0..100 {
            let a = q(&format!("q(X) :- r{i}(X, Y).")).to_rule();
            cache.store((a.clone(), a), true);
        }
        assert!(cache.len() <= 16, "resident = {}", cache.len());
        // The newest entry survives every rotation.
        let last = q("q(X) :- r99(X, Y).").to_rule();
        assert_eq!(cache.lookup(&(last.clone(), last)), Some(true));
    }
}
