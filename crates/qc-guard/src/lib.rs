//! Resource governance for the containment engine.
//!
//! Every decision procedure in this reproduction sits on a Π₂ᵖ-hard core
//! (Theorem 3.3): a single adversarial input can stall the Theorem 3.1
//! enumeration, the homomorphism search, or the datalog ⊆ UCQ type
//! fixpoint indefinitely. This crate provides the cooperative guard the
//! engine threads through those loops so execution stays bounded,
//! cancellable, and gracefully degradable:
//!
//! * a [`Guard`] carries a wall-clock **deadline**, a **work-unit
//!   budget**, and a **cancellation** flag. Work units are consumed at the
//!   same sites that increment the `qc-obs` counters, so a budget of `N`
//!   units is reproducible: the same input trips at the same point on
//!   every sequential run;
//! * guards install scoped and thread-local ([`with_guard`]), mirroring
//!   the `qc-obs` recorder pattern; engine loops call [`tick`] /
//!   [`check`], which are no-ops (one `Cell` read) when no guard is
//!   installed — the unguarded path stays bit-for-bit identical;
//! * exhaustion is reported as a [`ResourceError`] with provenance: the
//!   *stage* that tripped, the units *consumed*, and the *limit*;
//! * loops without fallible plumbing (the homomorphism search, the
//!   containment memo, MiniCon) use [`trip`], which unwinds with a
//!   private payload that the nearest [`guarded`] boundary catches and
//!   converts back into `Err(ResourceError)` — a cooperative interrupt,
//!   not a crash. Non-guard panics pass through `guarded` untouched;
//! * a deterministic [`FaultPlan`] can be attached to a guard to inject a
//!   panic, budget exhaustion, or cancellation at the Nth tick of a named
//!   stage — the substrate of the fault-injection differential suite in
//!   `qc-bench`.
//!
//! The crate sits below `qc-datalog` in the dependency graph and depends
//! only on `std`.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Canonical stage names used for [`ResourceError`] provenance and
/// [`FaultPlan`] targeting. Free-form stages are allowed; these constants
/// cover the engine's interruptible loops.
pub mod stage {
    /// Bottom-up datalog evaluation (rule firings).
    pub const EVAL: &str = "eval";
    /// Homomorphism / containment-mapping search (nodes expanded).
    pub const HOM_SEARCH: &str = "hom_search";
    /// Canonical containment memo lookups.
    pub const MEMO: &str = "memo";
    /// Datalog ⊆ UCQ type fixpoint (iterations, compositions, types).
    pub const FIXPOINT: &str = "fixpoint";
    /// MiniCon rewriting (MCDs formed and combined).
    pub const MINICON: &str = "minicon";
    /// Function-term elimination (rules emitted).
    pub const FN_ELIM: &str = "fn_elim";
    /// Theorem 3.1 literal enumeration (candidates formed).
    pub const ENUMERATION: &str = "enumeration";
    /// Counterexample-expansion search (unfoldings explored).
    pub const WITNESS: &str = "witness";
    /// Checkpoint-journal appends (qc-serve durability layer). Exists so
    /// a [`crate::FaultPlan`] can kill a process mid-append: the journal
    /// ticks this stage between the partial and the final write of a
    /// record, and an injected panic there leaves a torn tail on disk —
    /// exactly the crash geometry the tolerant replay must recover from.
    pub const JOURNAL: &str = "journal";
}

/// Which resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The work-unit budget was exhausted.
    Budget,
    /// The wall-clock deadline passed.
    Deadline,
    /// The guard's [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Budget => write!(f, "budget exhausted"),
            ResourceKind::Deadline => write!(f, "deadline exceeded"),
            ResourceKind::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A resource limit was hit: which stage was executing, what kind of
/// limit tripped, and how much had been consumed against it.
///
/// The single provenance type for every bounded procedure in the engine —
/// the fixpoint budget, evaluation limits, enumeration caps, and guard
/// deadlines/budgets/cancellation all surface through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceError {
    /// The engine stage that was executing when the limit tripped (see
    /// [`stage`] for the canonical names).
    pub stage: &'static str,
    /// Which resource ran out.
    pub kind: ResourceKind,
    /// Units consumed when the limit tripped (work units for budgets,
    /// elapsed milliseconds for deadlines).
    pub consumed: u64,
    /// The configured limit (same unit as `consumed`; `0` when the limit
    /// has no meaningful magnitude, e.g. cancellation).
    pub limit: u64,
}

impl ResourceError {
    /// A budget-exhaustion error.
    pub fn budget(stage: &'static str, consumed: u64, limit: u64) -> ResourceError {
        ResourceError {
            stage,
            kind: ResourceKind::Budget,
            consumed,
            limit,
        }
    }
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ResourceKind::Cancelled => write!(f, "{} in stage '{}'", self.kind, self.stage),
            ResourceKind::Deadline => write!(
                f,
                "{} in stage '{}' ({} of {} ms)",
                self.kind, self.stage, self.consumed, self.limit
            ),
            ResourceKind::Budget => write!(
                f,
                "{} in stage '{}' ({} of {} units)",
                self.kind, self.stage, self.consumed, self.limit
            ),
        }
    }
}

impl std::error::Error for ResourceError {}

/// What a deterministic [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the trigger tick (exercises panic isolation).
    Panic,
    /// Report budget exhaustion at the trigger tick.
    Budget,
    /// Flip the guard's cancellation flag at the trigger tick.
    Cancel,
}

/// A deterministic fault to inject: at the `at_tick`-th work unit of
/// `stage`, fire `kind` — once. Firing once (rather than persistently)
/// lets the panic-isolation retry path heal an injected panic, which is
/// exactly the behavior the differential suite wants to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Stage whose ticks are counted (see [`stage`]).
    pub stage: &'static str,
    /// Fire when this stage's cumulative tick count reaches this value.
    pub at_tick: u64,
    /// What to inject.
    pub kind: FaultKind,
}

#[derive(Debug)]
struct Fault {
    plan: FaultPlan,
    ticks: AtomicU64,
    fired: AtomicBool,
}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    started: Instant,
    budget: Option<u64>,
    consumed: AtomicU64,
    cancelled: AtomicBool,
    fault: Option<Fault>,
    trace: Option<u64>,
}

/// How many work units elapse between wall-clock polls on the [`tick`]
/// fast path. [`check`] polls unconditionally.
const DEADLINE_POLL_UNITS: u64 = 1024;

/// A handle bundling the resource limits of one engine invocation:
/// wall-clock deadline, work-unit budget, cooperative cancellation, and
/// (for the test harness) an injected fault.
///
/// Configure with the builder-style `with_*` methods **before**
/// installing; clones share the same consumption state.
#[derive(Debug, Clone)]
pub struct Guard {
    inner: Arc<Inner>,
}

impl Default for Guard {
    fn default() -> Guard {
        Guard::unlimited()
    }
}

impl Guard {
    /// A guard with no limits: ticks are counted but never trip. Useful
    /// for the zero-overhead-when-idle check and for obtaining a
    /// [`CancelToken`] without imposing static limits.
    pub fn unlimited() -> Guard {
        Guard {
            inner: Arc::new(Inner {
                deadline: None,
                started: Instant::now(),
                budget: None,
                consumed: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                fault: None,
                trace: None,
            }),
        }
    }

    fn rebuild(self, f: impl FnOnce(&mut Inner)) -> Guard {
        let mut inner = Inner {
            deadline: self.inner.deadline,
            started: self.inner.started,
            budget: self.inner.budget,
            consumed: AtomicU64::new(self.inner.consumed.load(Ordering::Relaxed)),
            cancelled: AtomicBool::new(self.inner.cancelled.load(Ordering::Relaxed)),
            fault: self.inner.fault.as_ref().map(|f| Fault {
                plan: f.plan,
                ticks: AtomicU64::new(f.ticks.load(Ordering::Relaxed)),
                fired: AtomicBool::new(f.fired.load(Ordering::Relaxed)),
            }),
            trace: self.inner.trace,
        };
        f(&mut inner);
        Guard {
            inner: Arc::new(inner),
        }
    }

    /// This guard with a work-unit budget (total ticks across all stages).
    ///
    /// The budget is a *limit*, not an allowance: work units already
    /// consumed by this guard are kept, so calling `with_budget` on a
    /// guard that has consumed `c` units leaves only `units - c` of
    /// headroom (and trips immediately when `c >= units`). That is the
    /// right semantics for tightening a limit mid-flight; for retry
    /// loops that want to grant a *fresh* allowance, use
    /// [`Guard::renew`], which zeroes the consumption first.
    pub fn with_budget(self, units: u64) -> Guard {
        self.rebuild(|i| i.budget = Some(units))
    }

    /// A fresh allowance for a retry: this guard with its consumed-unit
    /// count reset to zero and the budget set to `units`.
    ///
    /// Unlike [`Guard::with_budget`] — which keeps the consumed count, so
    /// an exhausted guard stays exhausted — `renew` is the retry-loop
    /// primitive: a request that tripped its budget can be re-run under
    /// `guard.renew(fresh_units)` and gets the full `fresh_units` of
    /// headroom. The deadline, cancellation flag, and any injected fault
    /// are carried over unchanged (a cancelled guard stays cancelled; use
    /// [`Guard::with_timeout`] to also extend a deadline).
    pub fn renew(self, units: u64) -> Guard {
        self.rebuild(|i| {
            i.budget = Some(units);
            i.consumed = AtomicU64::new(0);
        })
    }

    /// This guard with a wall-clock timeout from now.
    pub fn with_timeout(self, timeout: Duration) -> Guard {
        self.rebuild(|i| i.deadline = Some(Instant::now() + timeout))
    }

    /// This guard with an absolute wall-clock deadline.
    pub fn with_deadline(self, deadline: Instant) -> Guard {
        self.rebuild(|i| i.deadline = Some(deadline))
    }

    /// This guard with a deterministic injected fault.
    pub fn with_fault(self, plan: FaultPlan) -> Guard {
        self.rebuild(|i| {
            i.fault = Some(Fault {
                plan,
                ticks: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            })
        })
    }

    /// This guard tagged with a request trace ID. Trip events surfaced
    /// from this guard (budget/deadline/cancel) can then be correlated to
    /// the request's flight-recorder timeline by the layer that owns the
    /// guard.
    pub fn with_trace(self, trace: u64) -> Guard {
        self.rebuild(|i| i.trace = Some(trace))
    }

    /// The request trace ID this guard is tagged with, if any.
    pub fn trace(&self) -> Option<u64> {
        self.inner.trace
    }

    /// Work units consumed so far (across all clones of this guard).
    pub fn consumed(&self) -> u64 {
        self.inner.consumed.load(Ordering::Relaxed)
    }

    /// The configured work-unit budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.inner.budget
    }

    /// A token that cancels this guard from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            inner: self.inner.clone(),
        }
    }

    /// Whether the guard has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.inner.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn deadline_error(&self, stage: &'static str) -> ResourceError {
        let limit = self
            .inner
            .deadline
            .map(|d| d.saturating_duration_since(self.inner.started))
            .unwrap_or_default();
        ResourceError {
            stage,
            kind: ResourceKind::Deadline,
            consumed: self.elapsed_ms(),
            limit: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// Consumes `n` work units against this guard in stage `stage`.
    ///
    /// Checks, in order: the injected fault, cancellation, the budget,
    /// and (every `DEADLINE_POLL_UNITS` units, or always when `n == 0`)
    /// the deadline.
    pub fn tick(&self, stage: &'static str, n: u64) -> Result<(), ResourceError> {
        let inner = &*self.inner;
        if let Some(fault) = &inner.fault {
            if fault.plan.stage == stage {
                let before = fault.ticks.fetch_add(n, Ordering::Relaxed);
                let after = before + n;
                if after >= fault.plan.at_tick && !fault.fired.swap(true, Ordering::Relaxed) {
                    match fault.plan.kind {
                        FaultKind::Panic => panic!(
                            "injected fault: panic in stage '{stage}' at tick {}",
                            fault.plan.at_tick
                        ),
                        FaultKind::Budget => {
                            return Err(ResourceError::budget(stage, after, fault.plan.at_tick))
                        }
                        FaultKind::Cancel => inner.cancelled.store(true, Ordering::Relaxed),
                    }
                }
            }
        }
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(ResourceError {
                stage,
                kind: ResourceKind::Cancelled,
                consumed: inner.consumed.load(Ordering::Relaxed),
                limit: 0,
            });
        }
        let before = inner.consumed.fetch_add(n, Ordering::Relaxed);
        let after = before + n;
        if let Some(budget) = inner.budget {
            if after > budget {
                return Err(ResourceError::budget(stage, after, budget));
            }
        }
        if let Some(deadline) = inner.deadline {
            // Poll the clock only when crossing a poll boundary (or on an
            // explicit n == 0 check): Instant::now() per tick would swamp
            // the loops the guard is protecting.
            let poll = n == 0 || before / DEADLINE_POLL_UNITS != after / DEADLINE_POLL_UNITS;
            if poll && Instant::now() >= deadline {
                return Err(self.deadline_error(stage));
            }
        }
        Ok(())
    }
}

/// Cancels the associated [`Guard`] from any thread.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// Flips the cancellation flag; every subsequent [`tick`] / [`check`]
    /// under the guard reports [`ResourceKind::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Guard>> = const { RefCell::new(None) };
    /// Fast-path flag: `tick`/`check` read one `Cell` when no guard is
    /// installed.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// The guard installed on this thread, if any. Workers of a parallel
/// fan-out clone the parent's guard through this and re-install it, so
/// consumption aggregates across threads.
pub fn current() -> Option<Guard> {
    if !ACTIVE.with(Cell::get) {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` with `guard` installed on this thread; the previous guard is
/// restored afterwards (also on unwind).
pub fn with_guard<R>(guard: &Guard, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Guard>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| a.set(prev.is_some()));
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = CURRENT.with(|c| {
        let prev = c.borrow_mut().replace(guard.clone());
        ACTIVE.with(|a| a.set(true));
        Restore(prev)
    });
    f()
}

/// Consumes `n` work units in `stage` against the installed guard; a
/// no-op returning `Ok(())` when no guard is installed.
///
/// Call this at the same sites that increment `qc-obs` counters so that
/// budgets are expressed in the engine's reproducible work units.
#[inline]
pub fn tick(stage: &'static str, n: u64) -> Result<(), ResourceError> {
    if !ACTIVE.with(Cell::get) {
        return Ok(());
    }
    match CURRENT.with(|c| c.borrow().clone()) {
        Some(g) => g.tick(stage, n),
        None => Ok(()),
    }
}

/// Checks cancellation and the deadline without consuming budget. Use at
/// coarse loop boundaries (evaluation rounds, fixpoint iterations).
#[inline]
pub fn check(stage: &'static str) -> Result<(), ResourceError> {
    tick(stage, 0)
}

/// The unwind payload of [`trip`]; caught and unwrapped by [`guarded`].
struct Trip(ResourceError);

/// Like [`tick`], for loops without fallible plumbing (the homomorphism
/// search, the memo, MiniCon): on exhaustion it unwinds with a private
/// payload instead of returning an error. The nearest [`guarded`] call
/// converts the unwind back into `Err(ResourceError)`.
#[inline]
pub fn trip(stage: &'static str, n: u64) {
    if let Err(e) = tick(stage, n) {
        raise(e);
    }
}

/// Unwinds with `e` as a guard trip (see [`trip`] / [`guarded`]).
pub fn raise(e: ResourceError) -> ! {
    silence_trip_panics();
    panic::panic_any(Trip(e))
}

/// Installs (once) a panic hook that stays silent for guard trips — they
/// are cooperative interrupts, not failures — and chains to the previous
/// hook for every other panic.
fn silence_trip_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Trip>().is_none() {
                prev(info);
            }
        }));
    });
}

/// If `payload` (from `catch_unwind` or a joined thread) is a guard trip,
/// returns its [`ResourceError`].
pub fn trip_error(payload: &(dyn Any + Send)) -> Option<ResourceError> {
    payload.downcast_ref::<Trip>().map(|t| t.0.clone())
}

/// Runs `f`, converting a guard [`trip`] that unwinds out of it into
/// `Err(ResourceError)`. All other panics resume unwinding unchanged.
///
/// This is the boundary at which "interrupted" becomes a value: callers
/// receive either `f`'s result or the provenance of the limit that
/// stopped it — never a crash.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, ResourceError> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match trip_error(payload.as_ref()) {
            Some(e) => Err(e),
            None => panic::resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unguarded_ticks_are_free_and_ok() {
        assert_eq!(tick(stage::EVAL, 10), Ok(()));
        assert_eq!(check(stage::EVAL), Ok(()));
        assert!(current().is_none());
    }

    #[test]
    fn budget_trips_with_provenance() {
        let g = Guard::unlimited().with_budget(10);
        let err = with_guard(&g, || {
            for i in 0..100u64 {
                if let Err(e) = tick(stage::HOM_SEARCH, 1) {
                    return Some((i, e));
                }
            }
            None
        })
        .expect("budget must trip");
        let (at, e) = err;
        assert_eq!(at, 10); // ticks 0..=9 consume 1..=10; the 11th trips
        assert_eq!(e.stage, stage::HOM_SEARCH);
        assert_eq!(e.kind, ResourceKind::Budget);
        assert_eq!(e.consumed, 11);
        assert_eq!(e.limit, 10);
        assert_eq!(g.consumed(), 11);
    }

    #[test]
    fn budget_is_reproducible_across_runs() {
        let run = || {
            let g = Guard::unlimited().with_budget(5);
            with_guard(&g, || {
                let mut ok = 0;
                while tick(stage::FIXPOINT, 1).is_ok() {
                    ok += 1;
                }
                ok
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn with_budget_keeps_consumption_and_renew_resets_it() {
        // Exhaust a small budget.
        let g = Guard::unlimited().with_budget(5);
        let consumed = with_guard(&g, || {
            while tick(stage::EVAL, 1).is_ok() {}
            current().unwrap().consumed()
        });
        assert!(consumed > 5);
        // `with_budget` keeps the consumed count: the same (or a smaller)
        // budget trips on the very first tick.
        let still_spent = g.clone().with_budget(5);
        assert_eq!(still_spent.consumed(), consumed);
        let e = with_guard(&still_spent, || tick(stage::EVAL, 1)).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Budget);
        // `renew` grants a fresh allowance: consumption restarts at zero
        // and the full budget is available again.
        let renewed = g.renew(5);
        assert_eq!(renewed.consumed(), 0);
        assert_eq!(renewed.budget(), Some(5));
        let ok = with_guard(&renewed, || {
            let mut n = 0;
            while tick(stage::EVAL, 1).is_ok() {
                n += 1;
            }
            n
        });
        assert_eq!(ok, 5);
        // Cancellation survives a renew (renew is not a reset).
        let g = Guard::unlimited().with_budget(1);
        g.cancel_token().cancel();
        let renewed = g.renew(100);
        let e = with_guard(&renewed, || tick(stage::EVAL, 1)).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Cancelled);
    }

    #[test]
    fn deadline_trips() {
        let g = Guard::unlimited().with_timeout(Duration::from_millis(0));
        let e = with_guard(&g, || check(stage::EVAL)).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Deadline);
        assert_eq!(e.stage, stage::EVAL);
    }

    #[test]
    fn cancellation_is_cross_thread() {
        let g = Guard::unlimited();
        let token = g.cancel_token();
        std::thread::spawn(move || token.cancel()).join().unwrap();
        assert!(g.is_cancelled());
        let e = with_guard(&g, || tick(stage::MINICON, 1)).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Cancelled);
    }

    #[test]
    fn guarded_converts_trips_and_passes_values() {
        let g = Guard::unlimited().with_budget(3);
        let r: Result<u64, ResourceError> = with_guard(&g, || {
            guarded(|| {
                let mut n = 0;
                loop {
                    trip(stage::ENUMERATION, 1);
                    n += 1;
                    if n > 100 {
                        return n;
                    }
                }
            })
        });
        let e = r.unwrap_err();
        assert_eq!(e.kind, ResourceKind::Budget);
        assert_eq!(e.stage, stage::ENUMERATION);
        assert_eq!(guarded(|| 42), Ok(42));
    }

    #[test]
    fn guarded_passes_real_panics_through() {
        let caught = panic::catch_unwind(|| guarded(|| panic!("boom")));
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn with_guard_restores_previous() {
        let outer = Guard::unlimited().with_budget(1);
        let inner = Guard::unlimited().with_budget(100);
        with_guard(&outer, || {
            assert_eq!(current().unwrap().budget(), Some(1));
            with_guard(&inner, || {
                assert_eq!(current().unwrap().budget(), Some(100));
            });
            assert_eq!(current().unwrap().budget(), Some(1));
        });
        assert!(current().is_none());
    }

    #[test]
    fn fault_panic_fires_once() {
        let g = Guard::unlimited().with_fault(FaultPlan {
            stage: stage::EVAL,
            at_tick: 3,
            kind: FaultKind::Panic,
        });
        let r = with_guard(&g, || {
            panic::catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..5 {
                    trip(stage::EVAL, 1);
                }
            }))
        });
        assert!(r.is_err(), "injected panic fires");
        // Fired once: subsequent ticks are clean (the retry path heals).
        assert!(with_guard(&g, || tick(stage::EVAL, 1)).is_ok());
    }

    #[test]
    fn fault_budget_and_cancel() {
        let g = Guard::unlimited().with_fault(FaultPlan {
            stage: stage::FIXPOINT,
            at_tick: 2,
            kind: FaultKind::Budget,
        });
        let e = with_guard(&g, || {
            tick(stage::FIXPOINT, 1)?;
            tick(stage::FIXPOINT, 1)
        })
        .unwrap_err();
        assert_eq!(e.kind, ResourceKind::Budget);
        assert_eq!(e.stage, stage::FIXPOINT);

        let g = Guard::unlimited().with_fault(FaultPlan {
            stage: stage::MINICON,
            at_tick: 1,
            kind: FaultKind::Cancel,
        });
        let e = with_guard(&g, || tick(stage::MINICON, 1)).unwrap_err();
        assert_eq!(e.kind, ResourceKind::Cancelled);
        assert!(g.is_cancelled());
    }

    #[test]
    fn fault_ignores_other_stages() {
        let g = Guard::unlimited().with_fault(FaultPlan {
            stage: stage::EVAL,
            at_tick: 1,
            kind: FaultKind::Budget,
        });
        assert!(with_guard(&g, || tick(stage::HOM_SEARCH, 100)).is_ok());
    }

    #[test]
    fn display_formats() {
        let e = ResourceError::budget(stage::EVAL, 11, 10);
        assert_eq!(
            e.to_string(),
            "budget exhausted in stage 'eval' (11 of 10 units)"
        );
        let c = ResourceError {
            stage: stage::EVAL,
            kind: ResourceKind::Cancelled,
            consumed: 0,
            limit: 0,
        };
        assert_eq!(c.to_string(), "cancelled in stage 'eval'");
    }
}
