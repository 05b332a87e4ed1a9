//! Deterministic, attempt-bounded retry for service callers.
//!
//! The service's error taxonomy splits cleanly into one *retryable*
//! pressure signal ([`crate::ServiceError::ShedUnderLoad`]) and terminal
//! answers. A [`RetryPolicy`] drives a request through that taxonomy:
//!
//! * Shed → sleep an exponential backoff and resubmit.
//! * `Unknown` with a checkpoint → resubmit *immediately* with the
//!   checkpoint attached (no backoff: the service answered, it just ran
//!   out of budget — the retry continues from the proven disjuncts
//!   instead of recomputing them).
//! * Anything else (definite verdict, rejection, lost worker,
//!   non-resumable `Unknown`) → return as-is.
//!
//! The schedule is fully deterministic — attempts are capped by
//! `max_attempts`, and the backoff before shed retry `i` is
//! 50 ms · 2^i, capped at 1 s — so tests (and chaos harnesses) can pin
//! the exact sleep sequence. [`RetryPolicy::run_with`] takes the sleep
//! function as an argument for that purpose; [`RetryPolicy::run`] uses
//! [`std::thread::sleep`].

use std::time::Duration;

use qc_mediator::relative::Verdict;

use crate::checkpoint::Checkpoint;
use crate::{Response, ServiceError};

/// Backoff before the first shed retry.
const BASE_BACKOFF: Duration = Duration::from_millis(50);
/// Multiplier between consecutive backoffs.
const BACKOFF_FACTOR: u32 = 2;
/// Upper clamp on any single backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// The backoff before shed retry number `retry` (0-based):
/// [`BASE_BACKOFF`] · [`BACKOFF_FACTOR`]^`retry`, clamped to
/// [`MAX_BACKOFF`].
fn backoff(retry: u32) -> Duration {
    let mut d = BASE_BACKOFF;
    for _ in 0..retry {
        d = d.saturating_mul(BACKOFF_FACTOR);
        if d >= MAX_BACKOFF {
            return MAX_BACKOFF;
        }
    }
    d
}

/// A bounded, deterministic retry schedule (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries, 0 is treated
    /// as 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy with `attempts` total attempts.
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
        }
    }

    /// Drives `attempt` through the schedule, sleeping with
    /// [`std::thread::sleep`]. `attempt` receives the checkpoint to
    /// resume from (`None` on the first try, the previous answer's
    /// checkpoint after a resumable `Unknown`).
    pub fn run<F>(&self, attempt: F) -> Result<Response, ServiceError>
    where
        F: FnMut(Option<Checkpoint>) -> Result<Response, ServiceError>,
    {
        self.run_with(attempt, std::thread::sleep)
    }

    /// [`RetryPolicy::run`] with an injectable sleep function, so tests
    /// can record the schedule instead of waiting it out.
    pub fn run_with<F, S>(&self, mut attempt: F, mut sleep: S) -> Result<Response, ServiceError>
    where
        F: FnMut(Option<Checkpoint>) -> Result<Response, ServiceError>,
        S: FnMut(Duration),
    {
        let max_attempts = self.max_attempts.max(1);
        let mut checkpoint: Option<Checkpoint> = None;
        let mut backoffs: u32 = 0;
        let mut attempts: u32 = 0;
        loop {
            let result = attempt(checkpoint.clone());
            attempts += 1;
            if attempts >= max_attempts {
                return result;
            }
            match &result {
                Ok(resp) => match (&resp.verdict, &resp.checkpoint) {
                    // Resumable partial progress: hand the checkpoint
                    // straight back. No backoff — the service is not
                    // under pressure, the request just needs more budget.
                    (Verdict::Unknown(_), Some(cp)) => checkpoint = Some(cp.clone()),
                    _ => return result,
                },
                Err(ServiceError::ShedUnderLoad { .. }) => {
                    sleep(backoff(backoffs));
                    backoffs += 1;
                }
                Err(_) => return result,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceId;
    use qc_guard::ResourceError;
    use qc_mediator::relative::Partial;

    fn unknown_response(cp: Option<Checkpoint>) -> Result<Response, ServiceError> {
        Ok(Response {
            verdict: Verdict::Unknown(Partial {
                resource: ResourceError::budget("test", 10, 10),
                disjuncts_proven: cp.as_ref().map(|c| c.proven.clone()).unwrap_or_default(),
                disjuncts_total: cp.as_ref().map_or(4, |c| c.disjuncts_total),
                partial_plan: None,
            }),
            resumed: false,
            consumed: 10,
            checkpoint: cp,
            checkpoint_rejected: None,
            trace: TraceId(1),
            queue_wait_ns: 0,
            epoch: 0,
        })
    }

    fn contained_response() -> Result<Response, ServiceError> {
        Ok(Response {
            verdict: Verdict::Contained,
            resumed: true,
            consumed: 5,
            checkpoint: None,
            checkpoint_rejected: None,
            trace: TraceId(2),
            queue_wait_ns: 0,
            epoch: 0,
        })
    }

    fn shed() -> Result<Response, ServiceError> {
        Err(ServiceError::ShedUnderLoad {
            trace: TraceId(3),
            queue_len: 9,
        })
    }

    #[test]
    fn backoff_doubles_from_50_ms_and_caps_at_1_s() {
        let ms = |n| Duration::from_millis(n);
        let schedule: Vec<Duration> = (0..6).map(backoff).collect();
        assert_eq!(
            schedule,
            vec![ms(50), ms(100), ms(200), ms(400), ms(800), ms(1000)]
        );
        assert_eq!(backoff(30), ms(1000), "stays capped");
        assert_eq!(backoff(u32::MAX), ms(1000), "no overflow");
    }

    #[test]
    fn shed_errors_retry_with_recorded_backoffs_then_give_up() {
        let p = RetryPolicy::with_attempts(4);
        let mut calls = 0u32;
        let mut slept: Vec<Duration> = Vec::new();
        let out = p.run_with(
            |_| {
                calls += 1;
                shed()
            },
            |d| slept.push(d),
        );
        assert!(matches!(out, Err(ServiceError::ShedUnderLoad { .. })));
        assert_eq!(calls, 4, "exactly max_attempts attempts");
        assert_eq!(
            slept,
            vec![
                Duration::from_millis(50),
                Duration::from_millis(100),
                Duration::from_millis(200),
            ],
            "deterministic exponential schedule"
        );
    }

    #[test]
    fn resumable_unknown_retries_immediately_with_checkpoint() {
        let p = RetryPolicy::with_attempts(3);
        let mut seen: Vec<Option<Vec<usize>>> = Vec::new();
        let mut slept = 0u32;
        let out = p.run_with(
            |cp| {
                seen.push(cp.as_ref().map(|c| c.proven.clone()));
                if cp.is_none() {
                    unknown_response(Some(Checkpoint {
                        fingerprint: 7,
                        disjuncts_total: 4,
                        proven: vec![0, 1],
                        epoch: 0,
                        preds: vec!["e".into()],
                    }))
                } else {
                    contained_response()
                }
            },
            |_| slept += 1,
        );
        assert!(matches!(out, Ok(ref r) if r.verdict == Verdict::Contained));
        assert_eq!(
            seen,
            vec![None, Some(vec![0, 1])],
            "second attempt got the first attempt's checkpoint"
        );
        assert_eq!(slept, 0, "checkpoint hand-back never sleeps");
    }

    #[test]
    fn exhausted_attempts_return_the_last_partial_answer() {
        let p = RetryPolicy::with_attempts(2);
        let out = p.run_with(
            |cp| {
                unknown_response(Some(Checkpoint {
                    fingerprint: 7,
                    disjuncts_total: 4,
                    proven: cp.map(|c| c.proven).unwrap_or_default(),
                    epoch: 0,
                    preds: vec!["e".into()],
                }))
            },
            |_| {},
        );
        let resp = out.unwrap();
        assert!(matches!(resp.verdict, Verdict::Unknown(_)));
        assert!(
            resp.checkpoint.is_some(),
            "caller still gets the checkpoint to try later"
        );
    }

    #[test]
    fn terminal_errors_and_definite_verdicts_do_not_retry() {
        let p = RetryPolicy::with_attempts(5);
        let mut calls = 0u32;
        let out = p.run_with(
            |_| {
                calls += 1;
                Err(ServiceError::Rejected {
                    trace: TraceId(4),
                    why: "nope".into(),
                })
            },
            |_| panic!("no sleeping on terminal errors"),
        );
        assert!(matches!(out, Err(ServiceError::Rejected { .. })));
        assert_eq!(calls, 1);

        let mut calls = 0u32;
        let out = p.run_with(
            |_| {
                calls += 1;
                contained_response()
            },
            |_| {},
        );
        assert!(out.is_ok());
        assert_eq!(calls, 1);
    }
}
