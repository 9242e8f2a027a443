//! An instrumented simulator for the Massively Parallel Computation (MPC)
//! model of Hu & Yi (PODS 2020), §1.3.
//!
//! The MPC model has `p` servers on a complete network computing in
//! synchronous rounds; the complexity of an algorithm is its round count
//! (required to be `O(1)`) and its *load* `L` — the maximum message volume
//! received by any server in any round, with one tuple / semiring element /
//! machine word costing one unit. This crate executes such algorithms
//! faithfully and *measures* `L` exactly:
//!
//! * [`Cluster`] — `p` logical servers on a shared round timeline and cost
//!   ledger; [`Cluster::exchange`] is the sole data-movement operation and
//!   the unit of both rounds and cost; [`Cluster::split`] models the
//!   paper's "allocate `p_i` servers to subproblem `i`" parallel regions,
//! * [`Distributed`] — per-server local state, manipulated freely by local
//!   Rust code (local computation is uncosted, as in the model),
//! * [`CostReport`] — the measured `(load, rounds, total traffic)`,
//! * [`observe`] — the one seam everything else hangs off: a
//!   [`RoundObserver`] installed with [`Cluster::observe`] is consulted
//!   at every round boundary (`before_round` → deliver → ledger credit →
//!   `delivered`) and around every local-compute span; the three
//!   observers below ([`trace`], [`fault`], [`cancel`]) are its
//!   implementations, composed in installation order and free when none
//!   is installed,
//! * [`trace`] — round-level execution tracing ([`trace::Tracer`], the
//!   one recording observer): per-exchange traffic matrices,
//!   primitive/phase labels, and wall-clock compute spans, with a JSON
//!   export,
//! * [`metrics`] — aggregate metrics as a fold over a finished trace
//!   ([`Trace::metrics`]): counters, ledger gauges, log₂ histograms of
//!   per-primitive exchange volumes, and the per-server received-load
//!   distribution (p50/p95/max/skew),
//! * [`fault`] — deterministic fault injection and recovery
//!   ([`fault::FaultPlane`]): seeded crash-stop failures, message
//!   drop/duplication/reordering, stragglers, and transient compute
//!   faults, recovered by a simulated reliable-delivery layer; a
//!   recovered run's output and ledger are bit-identical to the
//!   fault-free run,
//! * [`cancel`] — cooperative cancellation: a deadline- or caller-driven
//!   [`CancelToken`] polled at round boundaries only; a fired token halts
//!   the cluster ([`Cluster::halted`]), so a cancelled run leaves no
//!   partially-delivered exchange and a rerun is bit-identical to a
//!   fresh run,
//! * [`primitives`] — the §2.1 toolbox: sorting, reduce-by-key,
//!   multi-search, prefix sums, parallel-packing,
//! * [`DistRelation`] — annotated relations partitioned over a cluster,
//!   with skew-proof distributed semijoin / aggregation / statistics,
//! * [`join`] — the worst-case optimal two-way join of §1.4's references
//!   [5, 13], the building block the paper's baseline plugs into
//!   Yannakakis.
//!
//! The simulator is deterministic (stable hashing, explicit tiebreaks),
//! so measured loads are exactly reproducible. Per-server *local*
//! computation can optionally run on a thread pool (see [`exec`]); the
//! execution backend changes wall-clock time only, never results or
//! measured costs.
//!
//! ```
//! use mpcjoin_mpc::Cluster;
//!
//! let mut cluster = Cluster::new(4);
//! let data = cluster.scatter_initial((0..100u64).collect::<Vec<_>>());
//! // Route every item to the server its value hashes to (one round).
//! let outboxes = data
//!     .into_parts()
//!     .into_iter()
//!     .map(|local| local.into_iter().map(|v| ((v % 4) as usize, v)).collect())
//!     .collect();
//! let routed = cluster.exchange(outboxes);
//! assert_eq!(routed.total_len(), 100);
//! let report = cluster.report();
//! assert_eq!(report.rounds, 1);
//! assert_eq!(report.load, 25); // perfectly balanced here
//! ```

pub mod cancel;
mod cluster;
mod cost;
pub mod drel;
mod error;
pub mod exec;
pub mod fault;
pub mod hash;
pub mod join;
pub mod json;
pub mod metrics;
pub mod observe;
pub mod primitives;
pub mod rng;
pub mod trace;

pub use cancel::{CancelCause, CancelToken};
pub use cluster::{Cluster, Distributed, OpScope};
pub use cost::{CostReport, CostTracker, PhaseReport};
pub use drel::DistRelation;
pub use error::{MpcError, ERROR_FRAME_SCHEMA};
pub use exec::{ExecBackend, SerialBackend, ThreadPoolBackend};
pub use fault::{
    FaultKind, FaultPlan, FaultPlane, FaultSpec, RecoveryEvent, RecoveryKind, RecoveryReport,
    RetryPolicy,
};
pub use metrics::{LoadSummary, LogHistogram, MetricsSnapshot};
pub use observe::RoundObserver;
pub use rng::DetRng;
pub use trace::{CriticalCell, Trace, TraceBreakdown, TraceEvent, TraceReport, Tracer};
