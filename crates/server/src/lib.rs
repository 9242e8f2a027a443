//! # mpcjoin-server
//!
//! A multi-tenant query *service* over the simulated MPC engine: the
//! `mpcjoin-serve` binary speaks a JSONL-over-TCP protocol
//! (`mpcjoin-wire-v1`, [`wire`]), schedules query jobs on a bounded
//! worker pool with per-session admission quotas ([`sched`]), and caches
//! canonical results keyed by a request digest ([`cache`]) — cache hits
//! are bit-identical to cold runs by construction. The `loadgen` binary
//! replays mixed workloads against a running server and reports
//! throughput and latency as a `mpcjoin-bench-server-v1` artifact.
//!
//! Everything is `std`-only (TCP via `std::net`, concurrency via
//! `Mutex`/`Condvar`), in keeping with the workspace's
//! zero-third-party-dependency rule.
//!
//! ## Layering
//!
//! ```text
//! serve.rs (TCP accept loop, connection framing)
//!    │ submit(QueryRequest, respond)
//! sched.rs (admission queue → worker pool → drain)
//!    │ execute(&QueryRequest) → frame
//! run.rs  (digest → cache | QueryEngine run → canonical body)
//!    │
//! wire.rs (frame parsing/rendering)   cache.rs (LRU digest → bytes)
//! ```
//!
//! The serving layer never touches engine internals: it goes through
//! `mpcjoin::QueryEngine` exactly like the CLI does, and leans on the
//! engine's documented determinism guarantees (see `crates/core`) for
//! cache soundness.
//!
//! The observability plane ([`obs`]) is threaded through every layer —
//! request ids at the wire, queue-wait spans in the scheduler, cache /
//! engine / serialization spans and the bound-regression watchdog in
//! the executor — and is *measurement-only*: results and the cost
//! ledger are bit-identical with it enabled or disabled.

pub mod cache;
pub mod obs;
pub mod run;
pub mod sched;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use obs::{Obs, RequestSpans, RequestTag, LOG_SCHEMA, SERVERSTATS_SCHEMA};
pub use run::{Executor, RequestCtx};
pub use sched::{SchedStats, Scheduler, ServerConfig};
