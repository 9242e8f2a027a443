//! `QueryEngine::apply_delta`: incremental evaluation on the simulated
//! cluster, with a cost ledger that counts only delta traffic.
//!
//! The algebra lives in `mpcjoin-delta` ([`MaterializedView::apply`]
//! classifies the batch and patches the view); this module puts the MPC
//! cost model around it. On the incremental paths the only tuples that
//! cross the (costed) cluster exchanges are the canonicalized per-edge
//! deltas and the delta output — the local telescoped evaluation is free
//! under the model's convention that local computation costs nothing
//! (§1.3) — so the ledger scales with `|Δ| + |ΔOUT|`, not the instance.
//! The run is audited against exactly that delta-sized envelope. On the
//! rerun fallback the engine executes the full query on the updated
//! instance and the full-size ledger (with its ordinary Table-1 audit)
//! is returned — the `mpcjoin-delta-v1` report carries which path fired.

use crate::audit::{AuditVerdict, BoundAuditor, DEFAULT_SLACK};
use crate::planner::{ExecutionResult, QueryEngine};
use mpcjoin_delta::{DeltaBatch, DeltaReport, MaterializedView};
use mpcjoin_mpc::{DistRelation, MpcError};
use mpcjoin_relation::Attr;
use mpcjoin_semiring::Semiring;

/// What [`QueryEngine::apply_delta`] produced: the execution result
/// (patched output + the ledger of the path that ran) and the batch's
/// decision artifact.
#[derive(Debug)]
pub struct DeltaOutcome<S: Semiring> {
    /// Output is the full patched result (canonical); on the incremental
    /// paths the cost ledger and audit cover only delta traffic, on the
    /// fallback they cover the full recompute.
    pub result: ExecutionResult<S>,
    /// The `mpcjoin-delta-v1` decision artifact.
    pub report: DeltaReport,
}

impl QueryEngine {
    /// Apply one delta batch to a registered view and return the
    /// refreshed result.
    ///
    /// The view's output after this call is bit-identical (canonical
    /// entries, order, annotations) to a from-scratch evaluation of the
    /// query on the updated instance ([`DeltaBatch::apply_to`] of the
    /// old base relations) — on the incremental paths by the
    /// multilinearity of join-aggregate queries, on the fallback by the
    /// engine's determinism.
    ///
    /// Errors with [`MpcError::InvalidInstance`] when the batch does not
    /// match the view's query; the view is untouched then. Installed
    /// fault plans and cancellation tokens do not apply to the
    /// delta-sized exchanges (they are per-run constructs of the full
    /// engine; the fallback path still honors them through
    /// [`QueryEngine::run`]).
    pub fn apply_delta<S: Semiring>(
        &self,
        view: &mut MaterializedView<S>,
        batch: &DeltaBatch<S>,
    ) -> Result<DeltaOutcome<S>, MpcError> {
        let applied = view.apply(batch)?;
        let report = applied.report.clone();

        if !applied.class.is_incremental() {
            // Deterministic rerun on the updated instance: full ledger,
            // ordinary Table-1 audit.
            let q = view.query().clone();
            let result = self.run(&q, view.base())?;
            return Ok(DeltaOutcome { result, report });
        }

        // Incremental path: route only the delta through costed
        // exchanges on a fresh cluster.
        let mut run = self.observed_cluster(None, None);
        let cluster = &mut run.cluster;

        let mut costed_exchanges = 0usize;
        cluster.mark_phase("delta: rebalance edge deltas");
        for delta_k in applied.deltas.iter().flatten() {
            let d = DistRelation::scatter(cluster, delta_k);
            let _ = d.rebalance(cluster);
            costed_exchanges += 1;
        }
        cluster.mark_phase("delta: merge delta output");
        let output_attrs: Vec<Attr> = view.query().output().iter().copied().collect();
        let dout = DistRelation::scatter(cluster, &applied.delta_out);
        let merged = dout.project_aggregate(cluster, &output_attrs);
        costed_exchanges += 1;
        let output_skew = merged.data().skew();

        let cost = cluster.report();
        let plan = view.plan();
        // Delta-sized audit: the envelope is |Δ| + |ΔOUT| with the usual
        // slack, plus one per-exchange statistics floor (each costed
        // primitive may sample-sort, pooling Θ(p·log p) splitters).
        let bound = (report.delta_in + report.delta_out) as f64;
        let additive = BoundAuditor::additive_for(self.p) * (1 + costed_exchanges) as f64;
        let measured = cost.load;
        let ratio = if bound > 0.0 {
            measured as f64 / bound
        } else if measured == 0 {
            0.0
        } else {
            f64::INFINITY
        };
        let audit = AuditVerdict {
            plan,
            bound,
            measured,
            ratio,
            slack: DEFAULT_SLACK,
            additive,
            within: (measured as f64) <= DEFAULT_SLACK * bound + additive,
        };

        let (trace, recovery) = run.finish();
        let result = ExecutionResult {
            output: view.output().clone(),
            cost,
            plan,
            output_skew,
            audit,
            trace,
            recovery,
        };
        Ok(DeltaOutcome { result, report })
    }
}
