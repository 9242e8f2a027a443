//! # mpcjoin
//!
//! Massively parallel algorithms for sparse matrix multiplication and
//! join-aggregate queries — a from-scratch Rust reproduction of
//!
//! > Xiao Hu and Ke Yi. *Parallel Algorithms for Sparse Matrix
//! > Multiplication and Join-Aggregate Queries.* PODS 2020.
//!
//! The library evaluates join-aggregate queries over annotated relations
//! (any commutative semiring) whose hypergraph is a tree with arbitrary
//! output attributes, on an instrumented simulator of the MPC model that
//! measures the *load* — the paper's cost metric — exactly.
//!
//! ## Quick start
//!
//! ```
//! use mpcjoin::prelude::*;
//!
//! // ∑_B R1(A,B) ⋈ R2(B,C): sparse matrix multiplication, counting the
//! // two-hop paths between each (a, c) pair.
//! let (a, b, c) = (Attr(0), Attr(1), Attr(2));
//! let q = TreeQuery::new(vec![Edge::binary(a, b), Edge::binary(b, c)], [a, c]);
//! let r1: Relation<Count> = Relation::binary_ones(a, b, [(1, 10), (1, 11), (2, 10)]);
//! let r2: Relation<Count> = Relation::binary_ones(b, c, [(10, 7), (11, 7)]);
//!
//! let result = mpcjoin::QueryEngine::new(8).run(&q, &[r1, r2]).unwrap();
//! assert_eq!(result.plan, mpcjoin::PlanKind::MatMul);
//! // (1,7) is reachable via b=10 and b=11: count 2.
//! assert!(result
//!     .output
//!     .canonical()
//!     .contains(&(vec![1, 7], Count(2))));
//! println!("{result}"); // plan, load, rounds, traffic, elapsed, skew
//! ```
//!
//! ## Crate map
//!
//! | module | contents | paper |
//! |---|---|---|
//! | [`semiring`] | the [`Semiring`](semiring::Semiring) trait + instances | §1.1 |
//! | [`relation`] | annotated relations, local operators | §1.1 |
//! | [`mpc`] | the instrumented MPC simulator and §2.1 primitives | §1.3, §2.1 |
//! | [`sketch`] | KMV output-size estimation | §2.2 |
//! | [`query`] | tree queries, classification, twigs, skeletons | §1.1, §7 |
//! | [`compiler`] | logical plan IR, enumeration, cost-based selection | Table 1 |
//! | [`yannakakis`] | sequential oracle + distributed baseline | §1.2, §1.4 |
//! | [`matmul`] | Theorem 1 matrix multiplication + hard instances | §3 |
//! | [`joinagg`] | line / star / star-like / tree algorithms | §4–§7 |
//! | [`workload`] | deterministic instance generators | experiments |

pub use mpcjoin_compiler as compiler;
pub use mpcjoin_joinagg as joinagg;
pub use mpcjoin_matmul as matmul;
pub use mpcjoin_mpc as mpc;
pub use mpcjoin_query as query;
pub use mpcjoin_relation as relation;
pub use mpcjoin_semiring as semiring;
pub use mpcjoin_sketch as sketch;
pub use mpcjoin_workload as workload;
pub use mpcjoin_yannakakis as yannakakis;

pub use mpcjoin_delta as delta;

pub mod audit;
mod incremental;
mod planner;
mod verify;

/// The closed-form load bounds of Table 1 / Theorems 1–6 (re-exported
/// from `mpcjoin_matmul::theory` so bound consumers — the auditor, the
/// bench harness — share one set of formulas).
pub use mpcjoin_matmul::theory;

pub use audit::{AuditVerdict, BoundAuditor, DEFAULT_SLACK};
pub use incremental::DeltaOutcome;
pub use mpcjoin_delta::{DeltaBatch, DeltaReport, Maintainability, MaterializedView};
pub use planner::{
    execute_on, execute_sequential, parse_plan_choice, with_semiring, ExecutionResult, PlanChoice,
    PlanKind, QueryEngine, SemiringVisitor, PLAN_NAMES, SEMIRING_NAMES,
};
pub use verify::{verify_instance, Verification};

/// The common imports for applications.
pub mod prelude {
    pub use crate::audit::{AuditVerdict, BoundAuditor};
    pub use crate::incremental::DeltaOutcome;
    pub use crate::planner::{
        parse_plan_choice, ExecutionResult, PlanChoice, PlanKind, QueryEngine,
    };
    pub use mpcjoin_compiler::{Explain, Stats};
    pub use mpcjoin_delta::{DeltaBatch, DeltaReport, Maintainability, MaterializedView};
    pub use mpcjoin_mpc::{
        CancelCause, CancelToken, Cluster, CostReport, DistRelation, FaultKind, FaultPlan,
        MetricsSnapshot, MpcError, RecoveryReport, Trace,
    };
    pub use mpcjoin_query::{Edge, TreeQuery};
    pub use mpcjoin_relation::{Attr, Relation, Schema, Value};
    pub use mpcjoin_semiring::{
        BoolRing, Bottleneck, Count, MaxPlus, MinCount, Prod, Semiring, SumInt, TropicalMin,
        Viterbi, WhyProv, XorRing,
    };
}
