//! The literal Theorem 3.1 procedure: bounded enumeration of candidate
//! conjunctive query plans.
//!
//! The proof of Theorem 3.1 decides `Q1 ⊑_V Q2` by quantifying over every
//! conjunctive plan of at most `n` subgoals whose expansion is contained
//! in `Q1` (by \[31\] it suffices to consider plans no longer than the
//! query) — the Π₂ᵖ structure is a ∀∃ alternation over such candidates.
//! This module implements that enumeration *literally*: generate every
//! candidate plan over the view vocabulary up to a size bound (a choice of
//! view atoms plus a set partition of their argument positions, optionally
//! refined with constants), keep the sound ones, and return their union.
//!
//! It is exponential and only usable on small inputs, but it is a third,
//! independent construction of the maximally-contained plan — the property
//! tests pit it against the inverse-rules and MiniCon routes.

use qc_containment::{cq_contained_memo, engine, minimize};
use qc_datalog::{Atom, ConjunctiveQuery, Const, Term, Ucq};

use crate::expansion::expand_cq;
use crate::schema::LavSetting;

/// Limits for the enumeration.
#[derive(Debug, Clone, Copy)]
pub struct EnumerationLimits {
    /// Maximum number of view atoms per candidate (the paper's `n` — the
    /// subgoal count of the query — when `None`).
    pub max_atoms: Option<usize>,
    /// Include candidates that pin argument blocks to constants of
    /// `Q ∪ V`.
    pub with_constants: bool,
    /// Hard cap on generated candidates (guards the exponential blowup).
    pub max_candidates: usize,
}

impl Default for EnumerationLimits {
    fn default() -> EnumerationLimits {
        EnumerationLimits {
            max_atoms: None,
            with_constants: true,
            max_candidates: 2_000_000,
        }
    }
}

/// Builds the maximally-contained plan of a conjunctive query by literal
/// candidate enumeration (the Theorem 3.1 proof procedure). Comparison
/// predicates in the query/views are handled by the dense-order soundness
/// check, but candidates themselves are comparison-free — use
/// [`crate::relative::semi_interval_plan`] when the *plan* needs
/// constraints.
///
/// Returns `None` if the candidate cap was hit.
pub fn enumerated_plan(
    query: &ConjunctiveQuery,
    views: &LavSetting,
    limits: &EnumerationLimits,
) -> Option<Ucq> {
    let n = limits.max_atoms.unwrap_or_else(|| query.size().max(1));
    let head_arity = query.head.arity();

    // Constants available to candidates: those of Q ∪ V.
    let mut consts: Vec<Const> = query.consts().into_iter().collect();
    if limits.with_constants {
        for c in views.consts() {
            if !consts.contains(&c) {
                consts.push(c);
            }
        }
    } else {
        consts.clear();
    }

    let mut sound: Vec<ConjunctiveQuery> = Vec::new();
    // Candidates are generated in a deterministic order and buffered; each
    // full batch is soundness-checked through [`flush_candidates`] (memoized
    // containment, fanned out across worker threads when the engine's
    // parallelism allows). Verdicts are consumed in candidate order, so the
    // plan is identical for any parallelism.
    let mut pending: Vec<ConjunctiveQuery> = Vec::new();
    let mut budget = limits.max_candidates;

    // Choose a multiset of views of each size 1..=n (by non-decreasing
    // index to avoid permutations of the same multiset).
    let nviews = views.sources.len();
    let mut stack: Vec<Vec<usize>> = (0..nviews).map(|i| vec![i]).collect();
    while let Some(combo) = stack.pop() {
        // Extend later (depth-first over multiset sizes).
        if combo.len() < n {
            for j in *combo.last().expect("nonempty")..nviews {
                let mut c2 = combo.clone();
                c2.push(j);
                stack.push(c2);
            }
        }
        // Argument positions of this combo.
        let arities: Vec<usize> = combo
            .iter()
            .map(|&i| views.sources[i].view.head.arity())
            .collect();
        let total: usize = arities.iter().sum();
        if total == 0 && head_arity > 0 {
            continue;
        }
        // Enumerate set partitions of the positions; each block becomes a
        // variable or (optionally) a constant; then choose head arguments
        // among blocks/constants.
        if !enumerate_partitions(total, &mut |block_of, nblocks| {
            // Block value assignment: variable, or each constant.
            // Represent choice per block: 0 = variable, 1.. = const idx+1.
            let mut choice = vec![0usize; nblocks];
            loop {
                // One work unit per candidate generated; `trip` unwinds to
                // the nearest `qc_guard::guarded` boundary (the built-in
                // `max_candidates` cap below stays a `None` return).
                qc_guard::trip(qc_guard::stage::ENUMERATION, 1);
                budget = match budget.checked_sub(1) {
                    Some(b) => b,
                    None => return false,
                };
                // Build the candidate body.
                let term_of_block = |b: usize| -> Term {
                    match choice[b] {
                        0 => Term::var(format!("B{b}")),
                        k => Term::Const(consts[k - 1]),
                    }
                };
                let mut body = Vec::new();
                let mut pos = 0usize;
                for (ci, &vi) in combo.iter().enumerate() {
                    let arity = arities[ci];
                    let args: Vec<Term> = (0..arity)
                        .map(|k| term_of_block(block_of[pos + k]))
                        .collect();
                    body.push(Atom {
                        pred: views.sources[vi].name,
                        args,
                    });
                    pos += arity;
                }
                // Head choices: each head position picks a variable block.
                // (A constant head argument cannot match the query's head
                // variables under a containment mapping unless the query
                // pins them — covered by variable blocks bound to the
                // same candidate anyway, so we only enumerate blocks.)
                let var_blocks: Vec<usize> = (0..nblocks).filter(|b| choice[*b] == 0).collect();
                if head_arity == 0 {
                    pending.push(make_candidate(query, Vec::new(), &body));
                    if pending.len() >= CHECK_BATCH {
                        flush_candidates(&mut pending, query, views, &mut sound);
                    }
                } else if !var_blocks.is_empty() {
                    let mut head_sel = vec![0usize; head_arity];
                    loop {
                        let head_args: Vec<Term> = head_sel
                            .iter()
                            .map(|&k| Term::var(format!("B{}", var_blocks[k])))
                            .collect();
                        pending.push(make_candidate(query, head_args, &body));
                        if pending.len() >= CHECK_BATCH {
                            flush_candidates(&mut pending, query, views, &mut sound);
                        }
                        // Odometer over head selections.
                        let mut k = 0;
                        loop {
                            if k == head_arity {
                                break;
                            }
                            head_sel[k] += 1;
                            if head_sel[k] < var_blocks.len() {
                                break;
                            }
                            head_sel[k] = 0;
                            k += 1;
                        }
                        if k == head_arity {
                            break;
                        }
                    }
                }
                // Odometer over block choices.
                let mut k = 0;
                loop {
                    if k == nblocks {
                        break;
                    }
                    choice[k] += 1;
                    if choice[k] <= consts.len() {
                        break;
                    }
                    choice[k] = 0;
                    k += 1;
                }
                if k == nblocks {
                    break;
                }
            }
            true
        }) {
            return None; // budget exhausted
        }
    }

    flush_candidates(&mut pending, query, views, &mut sound);

    // Drop candidates subsumed by another sound candidate.
    Some(if sound.is_empty() {
        Ucq::empty(query.head.pred.as_str(), head_arity)
    } else {
        qc_containment::minimize_union(&Ucq::new(sound).expect("candidates share the query head"))
    })
}

/// Candidates buffered between soundness-check batches.
const CHECK_BATCH: usize = 1024;

/// Assembles a candidate plan from a head/body choice.
fn make_candidate(
    query: &ConjunctiveQuery,
    head_args: Vec<Term>,
    body: &[Atom],
) -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        Atom {
            pred: query.head.pred,
            args: head_args,
        },
        body.to_vec(),
        Vec::new(),
    )
}

/// Soundness-checks a batch of candidates — expansion plus memoized
/// containment in the query, fanned out across worker threads when the
/// engine's parallelism allows — then inserts the sound ones (minimized,
/// deduped) in candidate order. Clears the buffer.
fn flush_candidates(
    pending: &mut Vec<ConjunctiveQuery>,
    query: &ConjunctiveQuery,
    views: &LavSetting,
    sound: &mut Vec<ConjunctiveQuery>,
) {
    if pending.is_empty() {
        return;
    }
    let verdicts = engine::parallel_map(pending, |c| {
        expand_cq(c, views).is_some_and(|exp| cq_contained_memo(&exp, query))
    });
    for (c, ok) in pending.iter().zip(verdicts) {
        if ok {
            let min = minimize(c);
            if !sound.contains(&min) {
                sound.push(min);
            }
        }
    }
    pending.clear();
}

/// Enumerates set partitions of `0..n` via restricted growth strings.
/// The callback receives (block index per position, number of blocks) and
/// returns `false` to abort. Returns `false` if aborted.
fn enumerate_partitions(n: usize, f: &mut impl FnMut(&[usize], usize) -> bool) -> bool {
    if n == 0 {
        return f(&[], 0);
    }
    let mut rgs = vec![0usize; n];
    loop {
        let nblocks = rgs.iter().copied().max().unwrap_or(0) + 1;
        if !f(&rgs, nblocks) {
            return false;
        }
        // Next restricted growth string.
        let mut i = n;
        loop {
            if i == 1 {
                return true; // done
            }
            i -= 1;
            let max_prefix = rgs[..i].iter().copied().max().unwrap_or(0);
            if rgs[i] <= max_prefix {
                rgs[i] += 1;
                for r in rgs.iter_mut().skip(i + 1) {
                    *r = 0;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicon::minicon_rewritings;
    use qc_containment::cq::ucq_equivalent;
    use qc_datalog::parse_query;

    #[test]
    fn partitions_counted_by_bell_numbers() {
        for (n, bell) in [(1usize, 1usize), (2, 2), (3, 5), (4, 15)] {
            let mut count = 0;
            enumerate_partitions(n, &mut |_, _| {
                count += 1;
                true
            });
            assert_eq!(count, bell, "B({n})");
        }
    }

    #[test]
    fn enumeration_matches_minicon_on_simple_cases() {
        let cases: Vec<(&str, Vec<&str>)> = vec![
            (
                "q(X) :- p(X, Y).",
                vec!["v0(A, B) :- p(A, B).", "v1(A) :- p(A, B)."],
            ),
            ("q(X, Z) :- p(X, Y), p(Y, Z).", vec!["v0(A, B) :- p(A, B)."]),
            (
                "q(X) :- p(X, Y), r(Y).",
                vec!["v0(A) :- p(A, B), r(B).", "v1(A, B) :- p(A, B)."],
            ),
        ];
        for (qs, vs) in cases {
            let q = parse_query(qs).unwrap();
            let views = LavSetting::parse(&vs).unwrap();
            let enumerated =
                enumerated_plan(&q, &views, &EnumerationLimits::default()).expect("within budget");
            let mc = minicon_rewritings(&q, &views);
            assert!(
                ucq_equivalent(&enumerated, &mc),
                "{qs}:\nenumerated: {enumerated}\nminicon: {mc}"
            );
        }
    }

    #[test]
    fn enumeration_finds_constant_refinements() {
        // The only sound plan pins the view's output to the constant.
        let q = parse_query("q(X) :- p(X, 10).").unwrap();
        let views = LavSetting::parse(&["v(A, B) :- p(A, B)."]).unwrap();
        let enumerated =
            enumerated_plan(&q, &views, &EnumerationLimits::default()).expect("within budget");
        assert_eq!(enumerated.disjuncts.len(), 1, "{enumerated}");
        let d = &enumerated.disjuncts[0];
        assert!(d.subgoals[0].args.contains(&Term::int(10)), "{d}");
        // MiniCon agrees.
        let mc = minicon_rewritings(&q, &views);
        assert!(ucq_equivalent(&enumerated, &mc));
    }

    #[test]
    fn budget_abort_is_reported() {
        let q = parse_query("q(X) :- p(X, Y), p(Y, Z), p(Z, W).").unwrap();
        let views = LavSetting::parse(&[
            "v0(A, B) :- p(A, B).",
            "v1(A, B) :- p(B, A).",
            "v2(A) :- p(A, A).",
        ])
        .unwrap();
        let tiny = EnumerationLimits {
            max_candidates: 10,
            ..EnumerationLimits::default()
        };
        assert!(enumerated_plan(&q, &views, &tiny).is_none());
    }

    #[test]
    fn empty_when_views_cannot_answer() {
        let q = parse_query("q(X, Y) :- p(X, Y).").unwrap();
        let views = LavSetting::parse(&["v(A) :- p(A, B)."]).unwrap();
        let enumerated =
            enumerated_plan(&q, &views, &EnumerationLimits::default()).expect("within budget");
        assert!(enumerated.is_empty());
    }
}
