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
//! Mechanically, a fired token unwinds the run with a [`CancelSignal`]
//! payload; [`catch_cancel`] converts the unwind back into a structured
//! value at the caller's boundary (`QueryEngine::run` turns it into
//! [`crate::MpcError::Cancelled`] / [`crate::MpcError::DeadlineExceeded`]).
//! A process-wide panic hook shim keeps cancellation unwinds silent while
//! delegating every real panic to the previously-installed hook.

use crate::observe::{Proceed, RoundCtx, RoundObserver};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
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

/// The payload a cancelled run unwinds with: which round boundary fired
/// and why. Convert to an [`crate::MpcError`] with
/// [`CancelSignal::to_error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelSignal {
    /// Global round of the boundary the token fired at (no deliveries of
    /// this round happened).
    pub round: u64,
    /// Why the token fired.
    pub cause: CancelCause,
}

impl CancelSignal {
    /// The structured error this signal surfaces as at an engine
    /// boundary.
    pub fn to_error(self) -> crate::MpcError {
        match self.cause {
            CancelCause::Cancelled => crate::MpcError::Cancelled { round: self.round },
            CancelCause::DeadlineExceeded => {
                crate::MpcError::DeadlineExceeded { round: self.round }
            }
        }
    }
}

static SILENT_HOOK: Once = Once::new();

/// Install (once, process-wide) a panic-hook shim that suppresses the
/// default "thread panicked" report for [`CancelSignal`] unwinds and
/// delegates every other panic to the hook that was installed before.
fn install_silent_hook() {
    SILENT_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Unwind the current run with a cancellation signal. Called by the
/// cluster at a round boundary once an observer stops the run; callers
/// recover the signal with [`catch_cancel`].
pub(crate) fn cancel_unwind(round: u64, cause: CancelCause) -> ! {
    install_silent_hook();
    panic::panic_any(CancelSignal { round, cause });
}

/// Run `f`, converting a cancellation unwind into `Err(signal)`. Any
/// other panic is resumed unchanged (same payload, same abort-on-double-
/// panic semantics), so this wrapper is invisible to real bugs.
pub fn catch_cancel<R>(f: impl FnOnce() -> R) -> Result<R, CancelSignal> {
    install_silent_hook();
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => match payload.downcast::<CancelSignal>() {
            Ok(signal) => Err(*signal),
            Err(other) => panic::resume_unwind(other),
        },
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

    #[test]
    fn catch_cancel_round_trips_the_signal() {
        let out = catch_cancel(|| 42u32);
        assert_eq!(out, Ok(42));
        let err = catch_cancel(|| -> u32 { cancel_unwind(5, CancelCause::DeadlineExceeded) });
        assert_eq!(
            err,
            Err(CancelSignal {
                round: 5,
                cause: CancelCause::DeadlineExceeded
            })
        );
        assert!(matches!(
            err.unwrap_err().to_error(),
            crate::MpcError::DeadlineExceeded { round: 5 }
        ));
    }

    #[test]
    fn foreign_panics_are_resumed() {
        let caught = panic::catch_unwind(|| {
            let _ = catch_cancel(|| -> u32 { panic!("a real bug") });
        });
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a real bug"));
    }
}
