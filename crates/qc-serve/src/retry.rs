//! Deterministic, budget-bounded retry for service callers.
//!
//! The service's error taxonomy splits cleanly into *retryable* pressure
//! signals ([`crate::ServiceError::ShedUnderLoad`],
//! [`crate::ServiceError::Timeout`]) and terminal answers. A
//! [`RetryPolicy`] drives a request through that taxonomy:
//!
//! * Shed / queue-timeout → sleep an exponential backoff and resubmit.
//! * `Unknown` with a checkpoint → resubmit *immediately* with the
//!   checkpoint attached (no backoff: the service answered, it just ran
//!   out of budget — the retry continues from the proven disjuncts
//!   instead of recomputing them).
//! * Anything else (definite verdict, rejection, lost worker,
//!   non-resumable `Unknown`) → return as-is.
//!
//! The schedule is fully deterministic — attempts are capped by
//! `max_attempts`, backoff is `base_backoff * backoff_factor^i` clamped
//! to `max_backoff` — so tests (and chaos harnesses) can pin the exact
//! sleep sequence. [`RetryPolicy::run_with`] takes the sleep function as
//! an argument for that purpose; [`RetryPolicy::run`] uses
//! [`std::thread::sleep`].

use std::time::Duration;

use qc_mediator::relative::Verdict;

use crate::checkpoint::Checkpoint;
use crate::{Response, ServiceError};

/// A bounded, deterministic retry schedule (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries, 0 is treated
    /// as 1).
    pub max_attempts: u32,
    /// Backoff before the first pressure retry.
    pub base_backoff: Duration,
    /// Multiplier between consecutive backoffs.
    pub backoff_factor: u32,
    /// Upper clamp on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            backoff_factor: 2,
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A policy with `attempts` total attempts and the default backoff
    /// curve.
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before pressure-retry number `retry` (0-based):
    /// `base * factor^retry`, clamped to `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = self.backoff_factor.max(1);
        let mut d = self.base_backoff;
        for _ in 0..retry {
            d = match d.checked_mul(factor) {
                Some(next) => next,
                None => return self.max_backoff,
            };
            if d >= self.max_backoff {
                return self.max_backoff;
            }
        }
        d.min(self.max_backoff)
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
                Err(ServiceError::ShedUnderLoad { .. }) | Err(ServiceError::Timeout { .. }) => {
                    sleep(self.backoff(backoffs));
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
    fn backoff_schedule_is_exponential_and_clamped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(50),
            backoff_factor: 2,
            max_backoff: Duration::from_millis(300),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(50));
        assert_eq!(p.backoff(1), Duration::from_millis(100));
        assert_eq!(p.backoff(2), Duration::from_millis(200));
        assert_eq!(p.backoff(3), Duration::from_millis(300), "clamped");
        assert_eq!(p.backoff(30), Duration::from_millis(300), "stays clamped");
    }

    #[test]
    fn pressure_errors_retry_with_recorded_backoffs_then_give_up() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            backoff_factor: 3,
            max_backoff: Duration::from_secs(1),
        };
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
                Duration::from_millis(10),
                Duration::from_millis(30),
                Duration::from_millis(90),
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
                        epoch: None,
                        preds: None,
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
                    epoch: None,
                    preds: None,
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
