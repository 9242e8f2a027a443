//! Cooperative cancellation for simulated runs.
//!
//! A [`CancelToken`] carries a caller's intent to stop a run: an explicit
//! [`CancelToken::cancel`] call, a wall-clock deadline, or (for tests) a
//! deterministic round trigger. The token is a
//! [`crate::observe::RoundObserver`]: installed with
//! [`crate::Cluster::observe`] (sub-clusters created by `split` share
//! it), it is polled at **round boundaries only** — the top of
//! [`crate::Cluster::exchange`] and [`crate::Cluster::broadcast`], before
//! any delivery of that round. Observers are consulted in installation
//! order and the first stop wins, so a token installed first (as
//! `QueryEngine` does) also pre-empts that round's fault-plane work.
//!
//! Firing at a round boundary is what makes cancellation safe: no
//! partially-delivered exchange ever exists, so discarding the run leaves
//! nothing half-moved, and because `QueryEngine::run` builds a fresh
//! cluster (ledger, RNG, fault plane) per call, a rerun of the same query
//! after cancellation is bit-identical to a run that was never cancelled
//! — output *and* cost ledger (pinned by `tests/tests/cancel.rs`).
//!
//! Mechanically, a fired token halts the cluster: the boundary records
//! `(round, cause)` in state every `split` child shares, and from then on
//! every exchange and broadcast delivers nothing — empty parts, no ledger
//! credit, no observer call. The algorithm never learns of it; it returns
//! through its remaining local code on empty data, and the caller reads
//! [`crate::Cluster::halted`] once after the run's last cluster operation
//! (`QueryEngine::run` turns it into [`crate::MpcError::Cancelled`] /
//! [`crate::MpcError::DeadlineExceeded`] with [`CancelCause::error`]).
//! The halted run still spends the local passes over data already on
//! each server; stopping at a boundary never interrupted local work
//! anyway.

use crate::observe::{Proceed, RoundCtx, RoundObserver};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// The caller asked for cancellation (explicitly or via a round
    /// trigger).
    Cancelled,
    /// The token's wall-clock deadline passed.
    DeadlineExceeded,
}

impl CancelCause {
    /// The structured error a run stopped for this cause at the boundary
    /// of global round `round` surfaces as (no deliveries of that round
    /// happened).
    pub fn error(self, round: u64) -> crate::MpcError {
        match self {
            CancelCause::Cancelled => crate::MpcError::Cancelled { round },
            CancelCause::DeadlineExceeded => crate::MpcError::DeadlineExceeded { round },
        }
    }
}

/// A cloneable, thread-safe cancellation handle. All clones share the
/// explicit-cancel flag; deadline and round trigger are per-value
/// configuration set at construction time.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    at_round: Option<u64>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fire with [`CancelCause::DeadlineExceeded`] once the wall clock
    /// reaches `at`.
    #[must_use]
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Fire with [`CancelCause::DeadlineExceeded`] after `budget` from
    /// now.
    #[must_use]
    pub fn deadline_in(self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Fire with [`CancelCause::Cancelled`] at the first round boundary
    /// whose global round is `>= round`. Deterministic — this is the
    /// trigger the cancellation-determinism tests sweep.
    #[must_use]
    pub fn at_round(mut self, round: u64) -> Self {
        self.at_round = Some(round);
        self
    }

    /// Request cancellation. Takes effect at the next round boundary of
    /// any run the token (or a clone of it) is installed on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Poll the token at a round boundary: the cause it fires with, or
    /// `None` to keep running. Explicit cancellation and the round
    /// trigger win over the deadline so deterministic triggers stay
    /// deterministic under wall-clock jitter.
    pub fn fired(&self, round: u64) -> Option<CancelCause> {
        if self.is_cancelled() {
            return Some(CancelCause::Cancelled);
        }
        if let Some(at) = self.at_round {
            if round >= at {
                return Some(CancelCause::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(CancelCause::DeadlineExceeded);
            }
        }
        None
    }
}

impl RoundObserver for CancelToken {
    fn before_round(&mut self, ctx: &RoundCtx<'_>, _: usize) -> Result<Proceed, CancelCause> {
        self.fired(ctx.round).map_or(Ok(Proceed::default()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_fires_everywhere() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert_eq!(token.fired(0), None);
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.fired(7), Some(CancelCause::Cancelled));
    }

    #[test]
    fn round_trigger_is_deterministic() {
        let token = CancelToken::new().at_round(3);
        assert_eq!(token.fired(0), None);
        assert_eq!(token.fired(2), None);
        assert_eq!(token.fired(3), Some(CancelCause::Cancelled));
        assert_eq!(token.fired(9), Some(CancelCause::Cancelled));
    }

    #[test]
    fn deadline_fires_as_deadline_exceeded() {
        let expired = CancelToken::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(expired.fired(0), Some(CancelCause::DeadlineExceeded));
        let generous = CancelToken::new().deadline_in(Duration::from_secs(3600));
        assert_eq!(generous.fired(0), None);
        // Explicit cancellation wins over an expired deadline.
        expired.cancel();
        assert_eq!(expired.fired(0), Some(CancelCause::Cancelled));
    }
}
