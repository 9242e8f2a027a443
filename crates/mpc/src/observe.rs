//! The round-boundary observer seam.
//!
//! §1.3 of the paper defines cost at exactly one place — what each
//! server *receives* in each *round* — so the simulator has exactly one
//! event worth observing. Everything that watches or perturbs a run
//! (tracing, fault injection, cancellation) is a [`RoundObserver`]
//! installed with [`crate::Cluster::observe`] — metrics are a fold over
//! the trace, not an observer of their own; the
//! cost ledger is the one mandatory client of the same event and is
//! credited from the very vector the observers are shown:
//!
//! ```text
//! exchange / broadcast
//!   │  round boundary
//!   ├─▶ halted already? ─▶ return p empty parts: no delivery, no credit,
//!   │                      no observer call (see Cluster::halted)
//!   ├─▶ before_round(ctx, messages)   installation order; first stop wins,
//!   │       │                         delays add up and are slept once
//!   │       └─ Err(cause) ─▶ halt = (round, cause); return p empty parts
//!   ├─▶ deliver: bounds-check, count into received[dst], push
//!   │       └─ bad destination ─▶ violation(ctx, detail)  absorbed? else panic
//!   ├─▶ ledger.credit(dst, round, received[dst])          once per destination
//!   └─▶ delivered(ctx, &Delivery)     only when units > 0, like the ledger
//!
//! par_run / par_map_parts / par_consume   (tasks run even when halted)
//!   ├─▶ before_compute(ctx)           delays add up and are slept once
//!   ├─▶ run the tasks on the exec backend (timed)
//!   └─▶ computed(ctx, tasks, elapsed)
//! ```
//!
//! With no observer installed none of this runs: no context strings are
//! built and no clock is read. Observers never see or touch the ledger
//! during a run, which is why every combination of them leaves output
//! and [`crate::CostReport`] bit-identical (pinned by the test suites).

use crate::cancel::CancelCause;
use std::time::Duration;

/// Which cluster operation produced a delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A point-to-point [`crate::Cluster::exchange`].
    Exchange,
    /// A [`crate::Cluster::broadcast`] (every server receives everything).
    Broadcast,
}

impl EventKind {
    /// Stable lowercase name (used in the JSON export).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Exchange => "exchange",
            EventKind::Broadcast => "broadcast",
        }
    }
}

/// Where on the timeline a callback fires: the global round, the
/// innermost phase mark (`"(preamble)"` before the first
/// [`crate::Cluster::mark_phase`]) and the operation-scope path
/// (`"(unlabeled)"` outside any [`crate::Cluster::op`] scope).
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx<'a> {
    /// Global round of the boundary / span.
    pub round: u64,
    /// Innermost phase mark.
    pub phase: &'a str,
    /// `"/"`-joined operation-scope path.
    pub label: &'a str,
}

/// An observer's go-ahead for a round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Proceed {
    /// Wall-clock delay the round must absorb first (stragglers, retry
    /// backoff). Never reaches the ledger.
    pub delay: Duration,
    /// Whether this observer wants [`Delivery::traffic`] for the round;
    /// the `n × n` matrix is only built when someone asks.
    pub traffic: bool,
}

/// One costed communication step, as shown to observers after the
/// ledger was credited from the same `received` vector.
#[derive(Clone, Copy, Debug)]
pub struct Delivery<'a> {
    /// Exchange or broadcast.
    pub kind: EventKind,
    /// Units received per *physical* server (index = physical id); never
    /// all zero — empty events are not reported, mirroring the ledger.
    pub received: &'a [u64],
    /// Row-major `n × n` matrix, `traffic[src * n + dst]` = units sent
    /// from physical `src` to physical `dst`; `Some` only when an
    /// observer asked via [`Proceed::traffic`].
    pub traffic: Option<&'a [u64]>,
}

/// A client of the round boundary. Every method is defaulted to "not
/// interested"; observers are consulted in installation order.
pub trait RoundObserver: std::fmt::Debug {
    /// The round boundary, before any delivery of `messages` messages.
    /// `Err(cause)` stops the run here: later observers are not
    /// consulted, the cluster halts (see [`crate::Cluster::halted`]) and
    /// no observer is called again.
    fn before_round(
        &mut self,
        _ctx: &RoundCtx<'_>,
        _messages: usize,
    ) -> Result<Proceed, CancelCause> {
        Ok(Proceed::default())
    }

    /// The round's deliveries, after the ledger was credited.
    fn delivered(&mut self, _ctx: &RoundCtx<'_>, _delivery: &Delivery<'_>) {}

    /// Before a span of backend-executed local computation; returns the
    /// wall-clock delay to absorb first.
    fn before_compute(&mut self, _ctx: &RoundCtx<'_>) -> Duration {
        Duration::ZERO
    }

    /// A finished span of `tasks` per-server tasks.
    fn computed(&mut self, _ctx: &RoundCtx<'_>, _tasks: usize, _elapsed: Duration) {}

    /// A contract violation inside the round (an out-of-range exchange
    /// destination). Return `true` to absorb it — the message is
    /// discarded and the observer owns reporting it — or `false` to let
    /// it stay the hard panic it is on a bare cluster.
    fn violation(&mut self, _ctx: &RoundCtx<'_>, _detail: &str) -> bool {
        false
    }
}
