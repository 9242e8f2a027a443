//! The query planner: classify a tree join-aggregate query and dispatch
//! to the algorithm with the best known load bound.
//!
//! The single entry point is [`QueryEngine`], a builder that owns every
//! execution knob (server count, worker threads, tracing, plan choice)
//! and returns a [`Result`] instead of aborting on bad input:
//!
//! ```
//! use mpcjoin::prelude::*;
//!
//! let (a, b, c) = (Attr(0), Attr(1), Attr(2));
//! let q = TreeQuery::new(vec![Edge::binary(a, b), Edge::binary(b, c)], [a, c]);
//! let r1: Relation<Count> = Relation::binary_ones(a, b, [(1, 10)]);
//! let r2: Relation<Count> = Relation::binary_ones(b, c, [(10, 7)]);
//!
//! let result = QueryEngine::new(4).trace(true).run(&q, &[r1, r2]).unwrap();
//! assert_eq!(result.plan, PlanKind::MatMul);
//! let trace = result.trace.as_ref().unwrap();
//! assert_eq!(trace.cost, result.cost);
//! ```

use crate::audit::{AuditVerdict, BoundAuditor};
use mpcjoin_compiler as compiler;
use mpcjoin_joinagg::{line_query, star_like_query, star_query, tree_query};
use mpcjoin_matmul::matmul;
use mpcjoin_mpc::join::join_aggregate;
use mpcjoin_mpc::{
    CancelToken, Cluster, CostReport, DistRelation, FaultPlan, FaultPlane, MpcError,
    RecoveryReport, Trace, Tracer,
};
use mpcjoin_query::{classify, plan_reduction, Shape, TreeQuery};
use mpcjoin_relation::{Attr, Relation, Row, Schema};
use mpcjoin_semiring::{BoolRing, Count, MinCount, Semiring, TropicalMin};
use mpcjoin_yannakakis::{distributed_yannakakis, sequential_join_aggregate, validate_instance};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Which top-level plan the engine chose. Defined in the compiler crate
/// (the enumeration is the compiler's candidate space) and re-exported
/// here so engine users keep writing `mpcjoin::PlanKind`.
pub use mpcjoin_compiler::PlanKind;

/// How [`QueryEngine`] picks the algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlanChoice {
    /// The default: cost-based selection. Enumerate every applicable
    /// strategy, price each with the shared Table-1 cost model
    /// (`mpcjoin_compiler`), and run the winner. Selection is hysteretic
    /// (see `mpcjoin_compiler::PREFERENCE_MARGIN`), so the structural
    /// pick runs unless an alternative is predicted decisively cheaper.
    #[default]
    CostBased,
    /// The pre-compiler dispatch: classify the query and run its shape's
    /// algorithm unconditionally, consulting no statistics.
    Heuristic,
    /// The distributed Yannakakis baseline (§1.4), regardless of shape.
    Baseline,
    /// Force a specific algorithm. [`QueryEngine::run`] returns
    /// [`MpcError::UnsupportedPlan`] if the query's shape does not admit
    /// it ([`PlanKind::Tree`], [`PlanKind::FreeConnexYannakakis`], and
    /// [`PlanKind::CanonicalEdgeCover`] accept every tree query).
    Force(PlanKind),
}

/// The canonical wire names accepted by [`parse_plan_choice`] (`auto`,
/// the wire default, is the cost-based selection too).
pub const PLAN_NAMES: &str =
    "auto|costbased|heuristic|baseline|yannakakis|matmul|line|star|starlike|tree|cec";

/// Map a plan name from the wire (CLI `--plan`, server `plan` field) to a
/// [`PlanChoice`]. Accepts [`PLAN_NAMES`]; anything else is
/// [`MpcError::UnknownPlan`].
pub fn parse_plan_choice(name: &str) -> Result<PlanChoice, MpcError> {
    Ok(match name {
        "auto" | "costbased" => PlanChoice::CostBased,
        "heuristic" => PlanChoice::Heuristic,
        "baseline" => PlanChoice::Baseline,
        "yannakakis" => PlanChoice::Force(PlanKind::FreeConnexYannakakis),
        "matmul" => PlanChoice::Force(PlanKind::MatMul),
        "line" => PlanChoice::Force(PlanKind::Line),
        "star" => PlanChoice::Force(PlanKind::Star),
        "starlike" => PlanChoice::Force(PlanKind::StarLike),
        "tree" => PlanChoice::Force(PlanKind::Tree),
        "cec" => PlanChoice::Force(PlanKind::CanonicalEdgeCover),
        other => {
            return Err(MpcError::UnknownPlan(format!(
                "`{other}` (expected one of {PLAN_NAMES})"
            )))
        }
    })
}

/// The wire's semiring vocabulary (CLI `--semiring`, server `semiring`
/// member). A name's index is the tag the server's cache digest records
/// and the arm [`with_semiring`] runs, so entries are only ever appended.
pub const SEMIRING_NAMES: [&str; 4] = ["count", "bool", "minplus", "mincount"];

/// A computation generic over the semiring a wire name selects.
pub trait SemiringVisitor {
    /// What the computation returns.
    type Out;
    /// Run under `S`; `weight` turns an input row's optional trailing
    /// weight into its annotation.
    fn visit<S: Semiring>(self, weight: fn(Option<i64>) -> S) -> Self::Out;
}

/// The one place a wire semiring name becomes a type: run `v` under the
/// semiring `name` selects from [`SEMIRING_NAMES`]. `Err` carries the
/// detail text every surface answers an unknown name with.
pub fn with_semiring<V: SemiringVisitor>(name: &str, v: V) -> Result<V::Out, String> {
    Ok(match SEMIRING_NAMES.iter().position(|n| *n == name) {
        Some(0) => v.visit(|w| Count(w.unwrap_or(1).max(0) as u64)),
        Some(1) => v.visit(|_| BoolRing(true)),
        Some(2) => v.visit(|w| TropicalMin::finite(w.unwrap_or(0))),
        Some(3) => v.visit(|w| MinCount::path(w.unwrap_or(0))),
        _ => {
            return Err(format!(
                "unknown semiring `{name}` (expected {})",
                SEMIRING_NAMES.join("|")
            ))
        }
    })
}

/// Builder-style entry point for executing a join-aggregate query on the
/// simulated MPC cluster: one builder, every knob (server count, worker
/// threads, tracing, plan choice, fault injection), and a
/// `Result` at the boundary instead of a panic.
#[derive(Clone, Debug)]
pub struct QueryEngine {
    pub(crate) p: usize,
    pub(crate) threads: Option<usize>,
    pub(crate) trace: bool,
    pub(crate) plan: PlanChoice,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) cancel: Option<CancelToken>,
}

impl QueryEngine {
    /// An engine over `p` simulated servers, serial local computation,
    /// tracing off, automatic plan choice, no fault plan, no cancellation
    /// token.
    pub fn new(p: usize) -> Self {
        Self {
            p,
            threads: None,
            trace: false,
            plan: PlanChoice::default(),
            faults: None,
            cancel: None,
        }
    }

    /// Use `n` worker threads for per-server local computation. Results
    /// and measured costs are identical for every thread count (see
    /// `mpcjoin_mpc::exec`); only wall-clock timings change.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Record a round-level execution trace; the run's
    /// [`ExecutionResult::trace`] is `Some` and ledger costs stay
    /// bit-identical to an untraced run. Aggregate metrics are a view of
    /// it ([`Trace::metrics`]).
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Choose the plan: automatic dispatch, the baseline, or a forced
    /// algorithm.
    #[must_use]
    pub fn plan(mut self, choice: PlanChoice) -> Self {
        self.plan = choice;
        self
    }

    /// Inject a deterministic fault schedule (see `mpcjoin_mpc::fault`).
    /// The run recovers transparently — output, cost ledger, and per-phase
    /// loads stay bit-identical to the fault-free run; only wall-clock
    /// time absorbs the recovery work — and [`ExecutionResult::recovery`]
    /// carries the [`RecoveryReport`]. A schedule the retry policy cannot
    /// absorb surfaces as [`MpcError::Unrecoverable`], never a panic.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Install a cancellation token (see `mpcjoin_mpc::cancel`): the run
    /// polls it at every round boundary and stops with
    /// [`MpcError::Cancelled`] or [`MpcError::DeadlineExceeded`] once it
    /// fires. Cancellation only takes effect *between* rounds, so no
    /// partially-delivered exchange ever exists: the cluster halts
    /// ([`Cluster::halted`]), its remaining exchanges deliver nothing,
    /// and the run returns through its remaining local code on empty
    /// data before the error surfaces. The engine stays fully reusable
    /// (every run builds a fresh cluster) and a rerun of the same query
    /// is bit-identical — output and cost ledger — to a run that was
    /// never cancelled.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Place `instance` on a fresh cluster, execute `q`, and gather the
    /// output plus the measured cost (and trace, if enabled).
    ///
    /// Errors with [`MpcError::InvalidInstance`] when `instance` does not
    /// match the query's edges, [`MpcError::UnsupportedPlan`] when a
    /// forced plan does not apply to the query's shape,
    /// [`MpcError::Cancelled`] / [`MpcError::DeadlineExceeded`] when an
    /// installed cancellation token fires at a round boundary (see
    /// [`QueryEngine::cancel`]), and otherwise
    /// [`MpcError::Unrecoverable`] when an injected fault schedule
    /// exhausts the retry policy (see [`QueryEngine::faults`]).
    pub fn run<S: Semiring>(
        &self,
        q: &TreeQuery,
        instance: &[Relation<S>],
    ) -> Result<ExecutionResult<S>, MpcError> {
        validate_instance(q, instance)?;
        let mut run = self.observed_cluster(self.faults.as_ref(), self.cancel.as_ref());
        let cluster = &mut run.cluster;
        let dist: Vec<DistRelation<S>> = instance
            .iter()
            .map(|r| DistRelation::scatter(cluster, r))
            .collect();
        let plan = match self.plan {
            // Statistics are collected locally (no cluster, no simulated
            // load): planning never perturbs the ledger.
            PlanChoice::CostBased => {
                let stats = compiler::Stats::collect(q, instance);
                compiler::select_plan(q, &stats, self.p as u64)
            }
            PlanChoice::Heuristic => compiler::heuristic_kind(q),
            PlanChoice::Baseline => PlanKind::FreeConnexYannakakis,
            PlanChoice::Force(kind) => kind,
        };
        let output: Vec<Attr> = q.output().iter().copied().collect();
        let result = normalize(run_forced(cluster, plan, q, &dist)?, &output);
        // The run's last cluster operation is behind us. A token that
        // fired halted the cluster and the run came back on empty
        // exchanges: report the stop, ahead of a fault plane that
        // poisoned the run earlier. Returning drops the cluster (ledger,
        // RNG, fault plane), so the next `run` starts exactly as fresh.
        if let Some((round, cause)) = cluster.halted() {
            return Err(cause.error(round));
        }
        let output_skew = result.data().skew();
        let output = result.gather();
        let cost = run.cluster.report();
        let (trace, recovery) = run.finish();
        // A schedule the retry policy could not absorb: delivery stayed
        // faithful, but the output must not be trusted.
        if let Some((round, detail)) = recovery.as_ref().and_then(|r| r.unrecoverable.clone()) {
            return Err(MpcError::Unrecoverable { round, detail });
        }
        // Audit the measured load against the bound of the plan that
        // actually ran (sizes from the original instance, OUT from the
        // actual output — the output-sensitive form of the theorems).
        let audit =
            BoundAuditor::new().audit(plan, q, instance, self.p, output.len() as u64, cost.load);
        Ok(ExecutionResult {
            output,
            cost,
            plan,
            output_skew,
            audit,
            trace,
            recovery,
        })
    }

    /// A fresh cluster with this engine's observers installed — the one
    /// place planes compose. Installation order is consultation order
    /// (first stop wins), so the cancel token goes first: a fired token
    /// pre-empts that round's fault-plane work. The fault plan and token
    /// are arguments because [`QueryEngine::apply_delta`] installs
    /// neither on its delta-sized cluster.
    pub(crate) fn observed_cluster(
        &self,
        faults: Option<&FaultPlan>,
        cancel: Option<&CancelToken>,
    ) -> ObservedCluster {
        let mut cluster = match self.threads {
            Some(n) => Cluster::with_threads(self.p, n),
            None => Cluster::new(self.p),
        };
        if let Some(token) = cancel {
            cluster.observe(token.clone());
        }
        let faults = faults.map(|plan| cluster.observe(FaultPlane::new(plan.clone(), self.p)));
        let tracer = self.trace.then(|| cluster.observe(Tracer::new(self.p)));
        ObservedCluster {
            cluster,
            tracer,
            faults,
        }
    }

    /// Compile `q` for this engine's cluster size without executing it:
    /// collect local statistics, enumerate and price every applicable
    /// strategy with the shared Table-1 cost model, and lower the winner
    /// to the logical plan IR. The returned [`compiler::Explain`]
    /// serializes to the stable `mpcjoin-plan-v1` JSON document.
    ///
    /// Errors with [`MpcError::InvalidInstance`] exactly when
    /// [`QueryEngine::run`] would.
    pub fn explain<S: Semiring>(
        &self,
        q: &TreeQuery,
        instance: &[Relation<S>],
    ) -> Result<compiler::Explain, MpcError> {
        validate_instance(q, instance)?;
        let stats = compiler::Stats::collect(q, instance);
        Ok(compiler::explain(q, stats, self.p as u64))
    }
}

/// A run's cluster plus the typed handles of the observers installed on
/// it (see [`QueryEngine::observed_cluster`]).
pub(crate) struct ObservedCluster {
    pub(crate) cluster: Cluster,
    tracer: Option<Rc<RefCell<Tracer>>>,
    faults: Option<Rc<RefCell<FaultPlane>>>,
}

impl ObservedCluster {
    /// Finalize every observer against the ledger: the trace and the
    /// fault plane's recovery report.
    pub(crate) fn finish(self) -> (Option<Trace>, Option<RecoveryReport>) {
        let trace = self.tracer.map(|t| t.borrow_mut().finish(&self.cluster));
        let recovery = self.faults.map(|f| f.borrow_mut().take_report());
        (trace, recovery)
    }
}

/// Run a specific algorithm, checking that the query's shape admits it.
fn run_forced<S: Semiring>(
    cluster: &mut Cluster,
    kind: PlanKind,
    q: &TreeQuery,
    rels: &[DistRelation<S>],
) -> Result<DistRelation<S>, MpcError> {
    let shape = classify(q);
    match (kind, shape) {
        (PlanKind::FreeConnexYannakakis, _) => Ok(distributed_yannakakis(cluster, q, rels)),
        (PlanKind::Tree, _) => Ok(tree_query(cluster, q, rels)),
        (PlanKind::MatMul, Shape::MatMul { r1, r2, .. }) => {
            Ok(matmul(cluster, &rels[r1], &rels[r2]).0)
        }
        (PlanKind::Line, Shape::Line { edges, attrs }) => {
            let chain: Vec<DistRelation<S>> = edges.iter().map(|&e| rels[e].clone()).collect();
            Ok(line_query(cluster, &chain, &attrs))
        }
        (PlanKind::Star, Shape::Star { center, arms }) => {
            let ordered: Vec<DistRelation<S>> = arms.iter().map(|&e| rels[e].clone()).collect();
            let endpoints: Vec<Attr> = arms.iter().map(|&e| q.edges()[e].other(center)).collect();
            Ok(star_query(cluster, &ordered, center, &endpoints))
        }
        (PlanKind::StarLike, Shape::StarLike(_)) => Ok(star_like_query(cluster, q, rels)),
        (PlanKind::CanonicalEdgeCover, _) => Ok(canonical_edge_cover_query(cluster, q, rels)),
        (kind, shape) => Err(MpcError::UnsupportedPlan(format!(
            "forced plan {kind:?} does not apply to this query (classified as {shape:?})"
        ))),
    }
}

/// Execute the canonical-edge-cover plan (Tao, 2201.03832, adapted to
/// the MPC setting): fold every non-cover relation into its cover
/// neighbour with the §7 reduce steps — the relations outside the
/// canonical edge cover are exactly the removable ones — then evaluate
/// the residual, whose leaves are all outputs, with the distributed
/// Yannakakis algorithm. Applies to every tree query.
fn canonical_edge_cover_query<S: Semiring>(
    cluster: &mut Cluster,
    q: &TreeQuery,
    rels: &[DistRelation<S>],
) -> DistRelation<S> {
    let output: Vec<Attr> = q.output().iter().copied().collect();
    if q.edges().len() == 1 {
        return rels[0].project_aggregate(cluster, &output);
    }

    cluster.mark_phase("cec: fold non-cover relations");
    let plan = plan_reduction(q);
    let mut working: Vec<Option<DistRelation<S>>> = rels.iter().cloned().map(Some).collect();
    for step in &plan.steps {
        let removed = working[step.removed].take().expect("fold source alive");
        let absorber = working[step.absorber].take().expect("fold target alive");
        let folded = removed.project_aggregate(cluster, &step.on);
        let keep: Vec<Attr> = absorber.schema().attrs().to_vec();
        working[step.absorber] = Some(join_aggregate(cluster, &absorber, &folded, &keep));
    }
    let kept_rels: Vec<DistRelation<S>> = plan
        .kept
        .iter()
        .map(|&i| working[i].take().expect("kept relation alive"))
        .collect();
    if plan.reduced.edges().len() == 1 {
        return kept_rels[0].project_aggregate(cluster, &output);
    }

    cluster.mark_phase("cec: Yannakakis on the cover residual");
    distributed_yannakakis(cluster, &plan.reduced, &kept_rels)
}

/// Result of executing a query on the simulated cluster.
pub struct ExecutionResult<S: Semiring> {
    /// The query output over `q.output()` (sorted attribute order).
    pub output: Relation<S>,
    /// Measured cost of the whole run: load, rounds, total traffic.
    pub cost: CostReport,
    /// The plan that was executed.
    pub plan: PlanKind,
    /// Placement skew of the distributed output before gathering
    /// (max / mean tuples per server; 1.0 is perfectly balanced).
    pub output_skew: f64,
    /// The measured load audited against the theoretical bound of the
    /// plan that ran (always present; see [`crate::audit`]).
    pub audit: AuditVerdict,
    /// The round-level execution trace, when the engine ran with
    /// [`QueryEngine::trace`] enabled; [`Trace::metrics`] folds it into
    /// the aggregate metrics snapshot.
    pub trace: Option<Trace>,
    /// What the fault plane did to this run, when the engine ran with a
    /// [`QueryEngine::faults`] plan installed (even one whose schedule
    /// never fired — then [`RecoveryReport::is_clean`] holds).
    pub recovery: Option<RecoveryReport>,
}

impl<S: Semiring> ExecutionResult<S> {
    /// Serialize the result's summary (plan, costs, skew, and the audit
    /// verdict — not the output tuples) as a JSON value
    /// (schema `mpcjoin-result-v1`).
    pub fn to_json(&self) -> mpcjoin_mpc::json::Json {
        use mpcjoin_mpc::json::Json;
        Json::Obj(vec![
            ("schema".into(), Json::Str("mpcjoin-result-v1".into())),
            ("plan".into(), Json::Str(format!("{:?}", self.plan))),
            ("load".into(), Json::Num(self.cost.load as f64)),
            ("rounds".into(), Json::Num(self.cost.rounds as f64)),
            (
                "total_units".into(),
                Json::Num(self.cost.total_units as f64),
            ),
            (
                "elapsed_ns".into(),
                Json::Num(self.cost.elapsed.as_nanos() as f64),
            ),
            ("output_rows".into(), Json::Num(self.output.len() as f64)),
            ("output_skew".into(), Json::Num(self.output_skew)),
            ("audit".into(), self.audit.to_json()),
            (
                "recovery".into(),
                self.recovery
                    .as_ref()
                    .map_or(Json::Null, RecoveryReport::to_json),
            ),
        ])
    }
}

impl<S: Semiring> fmt::Debug for ExecutionResult<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutionResult")
            .field("plan", &self.plan)
            .field("cost", &self.cost)
            .field("output_rows", &self.output.len())
            .field("output_skew", &self.output_skew)
            .field("audit", &self.audit)
            .field("traced", &self.trace.is_some())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl<S: Semiring> fmt::Display for ExecutionResult<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan: {:?}   load: {}   rounds: {}   traffic: {}   elapsed: {:.3?}   skew: {:.2}   output rows: {}   audit: {}",
            self.plan,
            self.cost.load,
            self.cost.rounds,
            self.cost.total_units,
            self.cost.elapsed,
            self.output_skew,
            self.output.len(),
            self.audit,
        )?;
        if let Some(r) = &self.recovery {
            write!(f, "   recovery: {r}")?;
        }
        Ok(())
    }
}

/// Evaluate `q` on an already-populated cluster with the structural
/// (shape-only) dispatch; returns the distributed output and the chosen
/// plan. The cluster's cost ledger accumulates the run's load.
pub fn execute_on<S: Semiring>(
    cluster: &mut Cluster,
    q: &TreeQuery,
    rels: &[DistRelation<S>],
) -> (DistRelation<S>, PlanKind) {
    let plan = compiler::heuristic_kind(q);
    let result = run_forced(cluster, plan, q, rels).expect("the structural pick fits the shape");
    let output: Vec<Attr> = q.output().iter().copied().collect();
    (normalize(result, &output), plan)
}

/// Sequential reference evaluation (the oracle), projected onto the
/// query's outputs in sorted order.
pub fn execute_sequential<S: Semiring>(q: &TreeQuery, instance: &[Relation<S>]) -> Relation<S> {
    let output: Vec<Attr> = q.output().iter().copied().collect();
    sequential_join_aggregate(q, instance).project_aggregate(&output)
}

/// Reorder a result's columns to the canonical output order.
fn normalize<S: Semiring>(rel: DistRelation<S>, output: &[Attr]) -> DistRelation<S> {
    let target = Schema::new(output.to_vec());
    if rel.schema() == &target {
        return rel;
    }
    let pos = rel.schema().positions_of(output);
    let data = rel
        .data()
        .clone()
        .map(move |(row, s): (Row, S)| (pos.iter().map(|&i| row[i]).collect(), s));
    DistRelation::from_distributed(target, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcjoin_query::Edge;
    use mpcjoin_semiring::Count;

    const A: Attr = Attr(0);
    const B: Attr = Attr(1);
    const C: Attr = Attr(2);
    const D: Attr = Attr(3);

    fn mm_query() -> TreeQuery {
        TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C])
    }

    #[test]
    fn semiring_table_dispatches_every_name_and_lists_them_on_a_miss() {
        struct TypeName;
        impl SemiringVisitor for TypeName {
            type Out = (&'static str, String);
            fn visit<S: Semiring>(self, weight: fn(Option<i64>) -> S) -> Self::Out {
                (std::any::type_name::<S>(), format!("{:?}", weight(None)))
            }
        }
        let dispatched: Vec<_> = SEMIRING_NAMES
            .iter()
            .map(|name| with_semiring(name, TypeName).expect("table names dispatch"))
            .collect();
        // One distinct semiring per name, unweighted rows annotated `one`.
        for (i, (ty, _)) in dispatched.iter().enumerate() {
            assert!(dispatched[..i].iter().all(|(other, _)| other != ty), "{ty}");
        }
        assert_eq!(dispatched[0].1, format!("{:?}", Count::one()));
        assert_eq!(dispatched[1].1, format!("{:?}", BoolRing::one()));
        assert_eq!(dispatched[2].1, format!("{:?}", TropicalMin::one()));
        let detail = with_semiring("tropical", TypeName).expect_err("not in the table");
        assert_eq!(
            detail,
            format!(
                "unknown semiring `tropical` (expected {})",
                SEMIRING_NAMES.join("|")
            )
        );
    }

    #[test]
    fn engine_matches_sequential_and_reports_plan() {
        let q = mm_query();
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..50u64).map(|i| (i % 10, i % 7))),
            Relation::<Count>::binary_ones(B, C, (0..50u64).map(|i| (i % 7, i % 12))),
        ];
        let result = QueryEngine::new(8).run(&q, &rels).unwrap();
        assert_eq!(result.plan, PlanKind::MatMul);
        assert!(result
            .output
            .semantically_eq(&execute_sequential(&q, &rels)));
        assert!(result.cost.rounds > 0);
        assert!(result.trace.is_none(), "tracing is off by default");
    }

    #[test]
    fn baseline_and_new_agree() {
        let q = TreeQuery::new(
            vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, D)],
            [A, D],
        );
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..40u64).map(|i| (i % 8, i % 5))),
            Relation::<Count>::binary_ones(B, C, (0..40u64).map(|i| (i % 5, i % 6))),
            Relation::<Count>::binary_ones(C, D, (0..40u64).map(|i| (i % 6, i % 9))),
        ];
        let new = QueryEngine::new(8).run(&q, &rels).unwrap();
        let base = QueryEngine::new(8)
            .plan(PlanChoice::Baseline)
            .run(&q, &rels)
            .unwrap();
        assert_eq!(new.plan, PlanKind::Line);
        assert_eq!(base.plan, PlanKind::FreeConnexYannakakis);
        assert!(new.output.semantically_eq(&base.output));
    }

    #[test]
    fn free_connex_goes_to_yannakakis() {
        let q = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, B, C]);
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, [(1, 2)]),
            Relation::<Count>::binary_ones(B, C, [(2, 3)]),
        ];
        let result = QueryEngine::new(4).run(&q, &rels).unwrap();
        assert_eq!(result.plan, PlanKind::FreeConnexYannakakis);
        assert_eq!(result.output.len(), 1);
    }

    #[test]
    fn star_plan_selected() {
        let q = TreeQuery::new(
            vec![Edge::binary(A, D), Edge::binary(B, D), Edge::binary(C, D)],
            [A, B, C],
        );
        let rels = vec![
            Relation::<Count>::binary_ones(A, D, (0..20u64).map(|i| (i % 6, i % 3))),
            Relation::<Count>::binary_ones(B, D, (0..20u64).map(|i| (i % 5, i % 3))),
            Relation::<Count>::binary_ones(C, D, (0..20u64).map(|i| (i % 4, i % 3))),
        ];
        let result = QueryEngine::new(8).run(&q, &rels).unwrap();
        assert_eq!(result.plan, PlanKind::Star);
        assert!(result
            .output
            .semantically_eq(&execute_sequential(&q, &rels)));
    }

    #[test]
    fn invalid_instance_is_an_error_not_a_panic() {
        let q = mm_query();
        let rels = vec![Relation::<Count>::binary_ones(A, B, [(1, 2)])];
        let err = QueryEngine::new(4).run(&q, &rels).unwrap_err();
        assert!(matches!(err, MpcError::InvalidInstance(_)));
        assert!(err.to_string().contains("one relation per edge"));
    }

    #[test]
    fn forced_plan_runs_or_errors_by_shape() {
        let q = mm_query();
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..30u64).map(|i| (i % 9, i % 4))),
            Relation::<Count>::binary_ones(B, C, (0..30u64).map(|i| (i % 4, i % 8))),
        ];
        let oracle = execute_sequential(&q, &rels);
        // Tree and the baseline apply to every tree query; MatMul matches
        // this shape; Star does not.
        for choice in [
            PlanKind::MatMul,
            PlanKind::Tree,
            PlanKind::FreeConnexYannakakis,
        ] {
            let r = QueryEngine::new(4)
                .plan(PlanChoice::Force(choice))
                .run(&q, &rels)
                .unwrap();
            assert_eq!(r.plan, choice);
            assert!(r.output.semantically_eq(&oracle), "plan {choice:?}");
        }
        let err = QueryEngine::new(4)
            .plan(PlanChoice::Force(PlanKind::Star))
            .run(&q, &rels)
            .unwrap_err();
        assert!(matches!(err, MpcError::UnsupportedPlan(_)));
    }

    #[test]
    fn traced_run_costs_match_untraced() {
        let q = mm_query();
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..60u64).map(|i| (i % 12, i % 7))),
            Relation::<Count>::binary_ones(B, C, (0..60u64).map(|i| (i % 7, i % 11))),
        ];
        let plain = QueryEngine::new(8).run(&q, &rels).unwrap();
        let traced = QueryEngine::new(8).trace(true).run(&q, &rels).unwrap();
        assert_eq!(plain.cost, traced.cost, "tracing must not perturb costs");
        let trace = traced.trace.expect("trace requested");
        assert_eq!(trace.cost, traced.cost);
        assert_eq!(trace.report().critical.unwrap().units, traced.cost.load);
    }

    #[test]
    fn every_run_yields_an_audit_verdict() {
        let q = mm_query();
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..50u64).map(|i| (i % 10, i % 7))),
            Relation::<Count>::binary_ones(B, C, (0..50u64).map(|i| (i % 7, i % 12))),
        ];
        for choice in [
            PlanChoice::CostBased,
            PlanChoice::Baseline,
            PlanChoice::Force(PlanKind::Tree),
        ] {
            let r = QueryEngine::new(8).plan(choice).run(&q, &rels).unwrap();
            assert_eq!(r.audit.plan, r.plan, "{choice:?}");
            assert_eq!(r.audit.measured, r.cost.load, "{choice:?}");
            assert!(r.audit.bound > 0.0, "{choice:?}");
            assert!(r.audit.within, "{choice:?}: {}", r.audit);
            // The verdict is in the Display line and the JSON summary.
            assert!(r.to_string().contains("audit:"));
            let doc =
                mpcjoin_mpc::json::Json::parse(&r.to_json().to_string_compact().expect("finite"))
                    .unwrap();
            let audit = doc.get("audit").expect("audit member");
            assert_eq!(
                audit
                    .get("measured")
                    .and_then(mpcjoin_mpc::json::Json::as_u64),
                Some(r.cost.load)
            );
        }
    }

    #[test]
    fn metrics_are_off_by_default_and_invisible_when_on() {
        let q = mm_query();
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..60u64).map(|i| (i % 12, i % 7))),
            Relation::<Count>::binary_ones(B, C, (0..60u64).map(|i| (i % 7, i % 11))),
        ];
        let plain = QueryEngine::new(8).run(&q, &rels).unwrap();
        assert!(plain.trace.is_none(), "metrics are off by default");
        let metered = QueryEngine::new(8).trace(true).run(&q, &rels).unwrap();
        assert_eq!(plain.cost, metered.cost, "metrics must not perturb costs");
        let snap = metered
            .trace
            .as_ref()
            .expect("trace requested")
            .metrics(None);
        assert_eq!(
            snap.per_server.iter().sum::<u64>(),
            metered.cost.total_units
        );
        assert_eq!(snap.received.max as u64 > 0, metered.cost.total_units > 0);
        assert!(
            snap.per_primitive.iter().any(|(k, _)| k.contains("sort")),
            "primitive labels recorded"
        );
        assert!(plain.output.semantically_eq(&metered.output));
    }

    #[test]
    fn faulted_run_recovers_bit_identically() {
        let q = mm_query();
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..60u64).map(|i| (i % 12, i % 7))),
            Relation::<Count>::binary_ones(B, C, (0..60u64).map(|i| (i % 7, i % 11))),
        ];
        let clean = QueryEngine::new(8).run(&q, &rels).unwrap();
        assert!(clean.recovery.is_none(), "no plan installed, no report");
        // Drop probability and retry budget are chosen so the schedule is
        // deterministically recoverable: each message survives with
        // failure probability 0.3^11 across ~56 messages per round.
        let plan = FaultPlan::new(11)
            .retries(10)
            .drop_window(0, 4, 0.3)
            .duplicate(2, 0.5)
            .reorder(1)
            .crash(3, 5);
        let faulted = QueryEngine::new(8).faults(plan).run(&q, &rels).unwrap();
        assert_eq!(clean.cost, faulted.cost, "recovery must not perturb costs");
        assert!(clean.output.semantically_eq(&faulted.output));
        let report = faulted.recovery.as_ref().expect("fault plan installed");
        assert!(report.recovered());
        assert_eq!(report.servers_lost, vec![5]);
        // The report rides along in the Display line and the JSON summary.
        assert!(faulted.to_string().contains("recovery:"));
        let doc =
            mpcjoin_mpc::json::Json::parse(&faulted.to_json().to_string_compact().expect("finite"))
                .unwrap();
        let rec = doc.get("recovery").expect("recovery member");
        assert_eq!(
            rec.get("schema").and_then(mpcjoin_mpc::json::Json::as_str),
            Some("mpcjoin-recovery-v1")
        );
    }

    #[test]
    fn unrecoverable_schedule_is_an_error_not_a_panic() {
        let q = mm_query();
        let rels = vec![
            Relation::<Count>::binary_ones(A, B, (0..40u64).map(|i| (i % 8, i % 5))),
            Relation::<Count>::binary_ones(B, C, (0..40u64).map(|i| (i % 5, i % 6))),
        ];
        let plan = FaultPlan::new(7).retries(1).drop_window(0, u64::MAX, 1.0);
        let err = QueryEngine::new(4).faults(plan).run(&q, &rels).unwrap_err();
        assert!(matches!(err, MpcError::Unrecoverable { .. }), "{err}");
        assert!(err.to_string().contains("unrecoverable"));
    }
}
