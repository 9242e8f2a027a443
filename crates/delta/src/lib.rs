//! Incremental evaluation for join-aggregate queries: delta batches,
//! per-query materialized views, and the semiring delta rules.
//!
//! The paper's algorithms are one-shot: any change to a base relation
//! forces a full recompute. This crate adds the algebra that makes
//! results *maintainable* under insert/delete streams, in the
//! output-sensitive spirit of Hu & Yi's instance/output-optimal acyclic
//! joins — when a delta touches few tuples, the work (and, upstream, the
//! MPC cost ledger of `QueryEngine::apply_delta`) scales with the delta,
//! not the instance.
//!
//! ## The delta rules
//!
//! A join-aggregate query is **multilinear** in its relation arguments:
//! over any commutative semiring,
//!
//! ```text
//! Q(R_1, …, R_k ⊎ Δ_k, …, R_n) = Q(R_1, …, R_k, …, R_n) ⊕ Q(R_1, …, Δ_k, …, R_n)
//! ```
//!
//! because bag union distributes through ⊗ and ⊕. Telescoping over the
//! edges a batch touches (edges before `k` already updated, edges after
//! `k` still old) turns one multi-edge batch into a sum of single-edge
//! delta queries, each evaluated on a delta-sized relation. Hence:
//!
//! * **insert-only batches** are exactly maintainable over *every*
//!   semiring ([`Maintainability::InsertOnly`]);
//! * **deletes** additionally need additive inverses: a delete is the
//!   insert of a negated annotation, which exists exactly when
//!   [`mpcjoin_semiring::Semiring::HAS_SUBTRACTION`] holds (`Count`, `SumInt`, `XorRing` —
//!   [`Maintainability::RingDelta`]);
//! * **deletes over idempotent semirings** (`BoolRing`, `TropicalMin`)
//!   are not invertible — `a ⊕ a = a` forbids inverses — so the view is
//!   deterministically recomputed from the updated instance
//!   ([`Maintainability::RerunFallback`]); the rerun is bit-identical to
//!   a cold evaluation by the engine's determinism.
//!
//! The decision is surfaced per batch in an explain-style artifact
//! (schema [`DELTA_SCHEMA`], see [`DeltaReport`]).
//!
//! ## Pieces
//!
//! * [`DeltaBatch`] — canonicalized inserts/deletes per edge, with the
//!   single authoritative definition of the *updated instance*
//!   ([`DeltaBatch::apply_to`]);
//! * [`MaterializedView`] — the per-query state kept between batches:
//!   coalesced base relations and the canonical output;
//! * [`MaterializedView::apply`] — classify, patch (or rebuild) the
//!   view, and return the per-edge delta relations plus the delta output
//!   so a caller can route exactly the delta traffic through costed
//!   exchanges (`QueryEngine::apply_delta` in the core crate does).

mod batch;
mod report;
mod view;

pub use batch::{DeltaBatch, EdgeDelta};
pub use mpcjoin_compiler::{maintainability, Maintainability};
pub use report::{DeltaReport, DELTA_SCHEMA};
pub use view::{AppliedDelta, MaterializedView};
