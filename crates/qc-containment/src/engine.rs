//! The containment engine's one setting: the parallel fan-out width.
//!
//! The containment procedures ([`crate::cq`], [`crate::homomorphism`],
//! [`crate::datalog_ucq`]) keep their small, paper-shaped signatures; how
//! many threads their independent checks may fan out over is configured
//! out-of-band through a scoped, thread-local [`EngineOptions`], mirroring
//! the `qc-obs` recorder pattern.
//!
//! Every other engine choice is made from the size of the input, against
//! a constant kept beside the decision it drives: which homomorphism
//! kernel runs ([`crate::homomorphism`]), whether the canonical memo is
//! consulted ([`crate::memo`]), and whether a batch is big enough to fan
//! out ([`parallel_map`]).

use std::cell::Cell;

use qc_datalog::eval::EvalOptions;

/// [`parallel_map`] keeps batches smaller than this on the calling thread:
/// spawning scoped workers costs more than the items.
const PARALLEL_MIN_ITEMS: usize = 8;

/// The containment engine's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads for the embarrassingly parallel outer loops
    /// (UCQ-disjunct containment checks, per-candidate rewriting checks).
    /// `1` keeps everything on the calling thread — the deterministic
    /// sequential path.
    pub parallelism: usize,
}

impl Default for EngineOptions {
    /// As many workers as the host has available parallelism.
    fn default() -> EngineOptions {
        EngineOptions {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl EngineOptions {
    /// The engine pinned to one thread (deterministic counters).
    pub fn sequential() -> EngineOptions {
        EngineOptions { parallelism: 1 }
    }

    /// This configuration with the given parallelism (at least 1).
    pub fn with_parallelism(self, parallelism: usize) -> EngineOptions {
        EngineOptions {
            parallelism: parallelism.max(1),
        }
    }

    /// The [`EvalOptions`] the engine's datalog fixpoints run with
    /// (canonical-database evaluation, certain answers): the evaluator
    /// defaults, so `relcont`, the REPL and `qc-serve` route fixpoints
    /// through one policy.
    pub fn eval_options(&self) -> EvalOptions {
        EvalOptions::default()
    }
}

thread_local! {
    static CURRENT: Cell<EngineOptions> = Cell::new(EngineOptions::default());
}

/// The options in effect on this thread.
pub fn current() -> EngineOptions {
    CURRENT.with(Cell::get)
}

/// Runs `f` with `opts` in effect on this thread; the previous options are
/// restored afterwards (also on unwind).
pub fn with_options<R>(opts: EngineOptions, f: impl FnOnce() -> R) -> R {
    struct Restore(EngineOptions);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = CURRENT.with(|c| {
        let prev = c.get();
        c.set(opts);
        Restore(prev)
    });
    f()
}

/// Maps `f` over `items`, fanning out across scoped worker threads when
/// [`EngineOptions::parallelism`] allows and the batch has at least 8
/// items (`PARALLEL_MIN_ITEMS`). Results come back in input order
/// regardless of scheduling.
///
/// * `parallelism == 1` (or a smaller batch) runs on the calling thread
///   with **zero** behavioral difference from a plain `map` — the
///   deterministic reference path.
/// * Workers run [`EngineOptions::sequential`] (no nested fan-out) and,
///   because `qc-obs` recorders are thread-local, each installs a private
///   [`qc_obs::PipelineRecorder`]; after the scope joins, worker counter
///   totals are merged into the parent's recorder in worker order, so
///   aggregate counters are deterministic for a fixed parallelism.
///   (Worker span trees are not reparented — only counters merge.)
/// * Workers re-install the parent's [`qc_guard::Guard`] (guards are
///   thread-local but share their budget/deadline state), so a limit set
///   on the caller governs the whole fan-out.
/// * A panic inside `f` on a worker is isolated to that item: the slot is
///   left empty and the item is retried sequentially on the calling thread
///   after the scope joins. Transient faults (including injected ones)
///   heal; a persistent panic — and any [`qc_guard::trip`] unwind —
///   surfaces on the calling thread, where `qc_guard::guarded` or the
///   caller's panic handling can see it.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = current().parallelism.max(1).min(items.len());
    // A scoped-thread fan-out costs tens of microseconds before any item
    // runs; tiny batches never win it back.
    if workers <= 1 || items.len() < PARALLEL_MIN_ITEMS {
        return items.iter().map(f).collect();
    }
    let parent_active = qc_obs::is_active();
    let parent_guard = qc_guard::current();
    // Contiguous chunking: ceil(len / workers) keeps chunk assignment a
    // pure function of (len, parallelism).
    let chunk = items.len().div_ceil(workers);
    let mut recorders: Vec<std::sync::Arc<qc_obs::PipelineRecorder>> = Vec::new();
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (slice, out) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let rec = std::sync::Arc::new(qc_obs::PipelineRecorder::new());
            recorders.push(rec.clone());
            let f = &f;
            let guard = parent_guard.clone();
            handles.push(scope.spawn(move || {
                let _install = parent_active.then(|| qc_obs::install(rec));
                let mut body = || {
                    with_options(EngineOptions::sequential(), || {
                        for (t, slot) in slice.iter().zip(out.iter_mut()) {
                            // Panic isolation: a poisoned item leaves its
                            // slot empty for the sequential retry below.
                            if let Ok(v) =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t)))
                            {
                                *slot = Some(v);
                            }
                        }
                    })
                };
                match guard {
                    Some(g) => qc_guard::with_guard(&g, body),
                    None => body(),
                }
            }));
        }
        for h in handles {
            // A panic outside the per-item isolation (recorder install,
            // scope plumbing) is re-raised on the caller, not swallowed.
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    if parent_active {
        // Merge worker counters into the parent recorder, worker order.
        for rec in &recorders {
            let snapshot = rec.counters().snapshot();
            for c in qc_obs::Counter::ALL {
                let n = snapshot[c as usize];
                if n != 0 {
                    qc_obs::count(c, n);
                }
            }
        }
    }
    results
        .into_iter()
        .zip(items)
        .map(|(r, t)| match r {
            Some(v) => v,
            // Sequential retry of the items whose worker run panicked.
            None => f(t),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_the_only_knob() {
        assert!(EngineOptions::default().parallelism >= 1);
        assert_eq!(EngineOptions::sequential().parallelism, 1);
        assert_eq!(
            EngineOptions::sequential().with_parallelism(0).parallelism,
            1
        );
        assert_eq!(
            EngineOptions::sequential().with_parallelism(4).parallelism,
            4
        );
        // The fixpoint options are the evaluator defaults at any width.
        let (d, e) = (
            EvalOptions::default(),
            EngineOptions::sequential()
                .with_parallelism(4)
                .eval_options(),
        );
        assert_eq!(
            (e.strategy, e.reorder, e.engine, e.magic_sets, e.trace),
            (d.strategy, d.reorder, d.engine, d.magic_sets, d.trace)
        );
        assert_eq!(
            (e.max_iterations, e.max_derived, e.max_term_depth),
            (d.max_iterations, d.max_derived, d.max_term_depth)
        );
    }

    #[test]
    fn parallel_map_preserves_input_order_and_merges_counters() {
        let items: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        // Sequential path (parallelism = 1) is a plain map.
        let seq = with_options(EngineOptions::sequential(), || {
            parallel_map(&items, |x| x * x)
        });
        assert_eq!(seq, expect);
        // Fanned out: same results, in input order, and worker-side counter
        // increments merged back into the parent recorder.
        let rec = std::sync::Arc::new(qc_obs::PipelineRecorder::new());
        let par = with_options(EngineOptions::sequential().with_parallelism(4), || {
            let _g = qc_obs::install(rec.clone());
            parallel_map(&items, |x| {
                qc_obs::count(qc_obs::Counter::MemoHits, 1);
                x * x
            })
        });
        assert_eq!(par, expect);
        assert_eq!(
            rec.counters().get(qc_obs::Counter::MemoHits),
            items.len() as u64
        );
        // Workers run with parallelism pinned to 1 (no nested fan-out); a
        // batch of PARALLEL_MIN_ITEMS is the smallest that fans out.
        let nested = with_options(EngineOptions::sequential().with_parallelism(2), || {
            parallel_map(&[0u8; PARALLEL_MIN_ITEMS], |_| current().parallelism)
        });
        assert_eq!(nested, vec![1; PARALLEL_MIN_ITEMS]);
    }

    #[test]
    fn small_batches_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |n: usize| -> Vec<bool> {
            with_options(EngineOptions::sequential().with_parallelism(4), || {
                parallel_map(&vec![0u8; n], |_| std::thread::current().id() == caller)
            })
        };
        // Below the threshold: the closure observes the caller's thread.
        assert_eq!(
            on_caller(PARALLEL_MIN_ITEMS - 1),
            vec![true; PARALLEL_MIN_ITEMS - 1]
        );
        // At the threshold the batch fans out to workers.
        assert_eq!(
            on_caller(PARALLEL_MIN_ITEMS),
            vec![false; PARALLEL_MIN_ITEMS]
        );
    }

    #[test]
    fn parallel_map_heals_a_transient_worker_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let attempts = AtomicUsize::new(0);
        let items: Vec<u64> = (0..8).collect();
        let out = with_options(EngineOptions::sequential().with_parallelism(4), || {
            parallel_map(&items, |&x| {
                if x == 3 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient worker fault");
                }
                x + 1
            })
        });
        let expect: Vec<u64> = (1..=8).collect();
        assert_eq!(out, expect);
        // The poisoned item was attempted twice: once on the worker, once
        // on the sequential retry path.
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn parallel_map_workers_share_the_parent_guard() {
        let guard = qc_guard::Guard::unlimited().with_budget(10);
        let items: Vec<u64> = (0..64).collect();
        let res = qc_guard::with_guard(&guard, || {
            qc_guard::guarded(|| {
                with_options(EngineOptions::sequential().with_parallelism(4), || {
                    parallel_map(&items, |&x| {
                        qc_guard::trip(qc_guard::stage::HOM_SEARCH, 1);
                        x
                    })
                })
            })
        });
        let err = res.expect_err("a 10-unit budget cannot cover 64 items");
        assert_eq!(err.stage, qc_guard::stage::HOM_SEARCH);
        assert_eq!(err.kind, qc_guard::ResourceKind::Budget);
        assert!(guard.consumed() > 10);
    }

    #[test]
    fn with_options_is_scoped_and_restores() {
        let base = current();
        let wide = EngineOptions::sequential().with_parallelism(3);
        let inner = with_options(wide, || {
            let nested = with_options(EngineOptions::sequential(), current);
            assert_eq!(nested, EngineOptions::sequential());
            current()
        });
        assert_eq!(inner, wide);
        assert_eq!(current(), base);
    }
}
