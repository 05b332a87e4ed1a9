//! Serializable resumption checkpoints for anytime verdicts.
//!
//! A [`qc_mediator::relative::Partial`] already records *which* plan
//! disjuncts were proven contained before a resource limit hit. A
//! [`Checkpoint`] packages those indices with a fingerprint of the request
//! that produced them, so a retried request with fresh budget can hand
//! the proven set back to [`qc_mediator::relative::decide`] (as a
//! [`qc_mediator::relative::Resume`]) and continue where it stopped instead of recomputing — the differential
//! guarantee is that the resumed run reaches exactly the verdict an
//! unlimited one-shot run would.
//!
//! Checkpoints are plain data (JSON round-trippable) so a daemon can hand
//! them to clients and accept them back on retry without holding state.

use serde::{Deserialize, Serialize};

/// Where a tripped anytime run stopped, keyed to the request that ran.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Fingerprint of `(Q1, ans1, Q2, ans2, V)` (see
    /// [`crate::Request::fingerprint`]). A checkpoint is only honored for
    /// the request it was cut from: the proven indices refer to the
    /// maximally-contained plan's disjunct order, which is deterministic
    /// per input but meaningless across inputs.
    pub fingerprint: u64,
    /// Total disjuncts of the maximally-contained plan, as a secondary
    /// consistency check against the rebuilt plan.
    pub disjuncts_total: usize,
    /// Enumeration cursor: indices of plan disjuncts already proven
    /// contained, ascending.
    pub proven: Vec<usize>,
    /// Catalog epoch the checkpoint was cut under. A checkpoint is only
    /// honored at the *current* epoch: when a catalog delta leaves a
    /// request's relevant views untouched, the serve core re-tags its
    /// journaled checkpoint to the new epoch; anything still carrying an
    /// older epoch is stale by construction and always rejected.
    pub epoch: u64,
    /// Predicate names the originating request mentions — the precise
    /// invalidation key: a catalog delta retires the checkpoint iff its
    /// touched-predicate set intersects this one.
    pub preds: Vec<String>,
}

/// The typed cause of a checkpoint refusal, machine-matchable (the churn
/// chaos suite asserts stale-epoch resumes are rejected *as such*, not
/// merely rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The checkpoint's fingerprint is not this request's fingerprint
    /// (foreign checkpoint, or a relevant view changed underneath it).
    FingerprintMismatch,
    /// The checkpoint's `disjuncts_total` contradicts the plan rebuilt
    /// for this run.
    PlanShapeMismatch,
    /// The checkpoint was cut under a catalog epoch other than the
    /// current one.
    StaleEpoch,
}

/// Why a supplied checkpoint was refused (and the run recomputed from
/// scratch). Surfaced in [`crate::Response::checkpoint_rejected`] and the
/// flight-recorder timeline so stale checkpoints are observable instead
/// of silently eaten.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointRejected {
    /// The machine-matchable cause.
    pub kind: RejectReason,
    /// Human-readable mismatch description (fingerprint, plan shape, or
    /// epoch numbers).
    pub reason: String,
}

impl std::fmt::Display for CheckpointRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint rejected: {}", self.reason)
    }
}

impl Checkpoint {
    /// JSON rendering (the daemon wire format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Parses [`Checkpoint::to_json`] output.
    pub fn from_json(s: &str) -> Result<Checkpoint, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let cp = Checkpoint {
            fingerprint: 0xdead_beef_cafe,
            disjuncts_total: 7,
            proven: vec![0, 2, 5],
            epoch: 3,
            preds: vec!["CarDesc".into(), "Review".into()],
        };
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
    }
}
