//! Physical plan enumeration and cost-based selection.
//!
//! For any query the applicable strategies are: the shape's structural
//! (heuristic) algorithm — what `PlanChoice::Heuristic` runs — plus the
//! always-applicable [`PlanKind::Tree`] pipeline,
//! [`PlanKind::FreeConnexYannakakis`] baseline, and
//! [`PlanKind::CanonicalEdgeCover`] variant. Every candidate is priced by
//! the shared cost model ([`crate::cost::predict_bound`]) on the
//! collected [`Stats`].
//!
//! Selection is *hysteretic*: the structural pick wins unless an
//! alternative's predicted bound is smaller by more than
//! [`PREFERENCE_MARGIN`]. The bounds are `O(·)` shapes with constants
//! stripped, so a small predicted edge is noise — switching plans on it
//! would trade a provably-matching bound for a coin flip. The margin
//! also makes the cost-based engine's choices a conservative extension
//! of the old structural dispatch: on every Table-1 workload the two
//! agree, so measured loads are identical by construction.

use crate::cost::predict_bound;
use crate::plan::PlanKind;
use crate::stats::Stats;
use mpcjoin_query::{classify, Shape, TreeQuery};

/// How much smaller (multiplicatively) an alternative's predicted bound
/// must be to displace the structural pick.
pub const PREFERENCE_MARGIN: f64 = 2.0;

/// One enumerated physical strategy with its predicted bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// The strategy.
    pub kind: PlanKind,
    /// Predicted Table-1 bound on the collected statistics (load units).
    pub bound: f64,
    /// Whether the selector chose this candidate.
    pub selected: bool,
    /// Why it was chosen or rejected.
    pub reason: String,
}

/// The algorithm the structural (pre-cost-based) dispatch runs for `q`'s
/// shape.
pub fn heuristic_kind(q: &TreeQuery) -> PlanKind {
    match classify(q) {
        Shape::FreeConnex => PlanKind::FreeConnexYannakakis,
        Shape::MatMul { .. } => PlanKind::MatMul,
        Shape::Line { .. } => PlanKind::Line,
        Shape::Star { .. } => PlanKind::Star,
        Shape::StarLike(_) => PlanKind::StarLike,
        Shape::Twig | Shape::General => PlanKind::Tree,
    }
}

/// Every physical strategy applicable to `q`, structural pick first.
pub fn applicable(q: &TreeQuery) -> Vec<PlanKind> {
    let mut kinds = vec![heuristic_kind(q)];
    for k in [
        PlanKind::Tree,
        PlanKind::FreeConnexYannakakis,
        PlanKind::CanonicalEdgeCover,
    ] {
        if !kinds.contains(&k) {
            kinds.push(k);
        }
    }
    kinds
}

/// Enumerate and price every applicable strategy, then select one. The
/// returned candidates are in enumeration order (structural pick first);
/// exactly one has `selected == true`.
pub fn enumerate_plans(q: &TreeQuery, stats: &Stats, p: u64) -> Vec<Candidate> {
    let kinds = applicable(q);
    let bounds: Vec<f64> = kinds
        .iter()
        .map(|&k| predict_bound(k, q, &stats.sizes, stats.out, p))
        .collect();
    let heuristic_bound = bounds[0];

    // Best alternative strictly beating the margin (ties keep the
    // earlier, i.e. enumeration-order, candidate).
    let mut winner = 0usize;
    for i in 1..kinds.len() {
        let beats_heuristic = bounds[i] * PREFERENCE_MARGIN < heuristic_bound;
        let beats_current = winner == 0 || bounds[i] < bounds[winner];
        if beats_heuristic && beats_current {
            winner = i;
        }
    }

    kinds
        .iter()
        .zip(&bounds)
        .enumerate()
        .map(|(i, (&kind, &bound))| {
            let (selected, reason) = if i == winner {
                if i == 0 {
                    (
                        true,
                        format!(
                            "structural pick for the query shape; no alternative beats it \
                             by the {PREFERENCE_MARGIN}x margin"
                        ),
                    )
                } else {
                    (
                        true,
                        format!(
                            "predicted bound {bound:.1} beats the structural pick \
                             {:?} ({heuristic_bound:.1}) by more than {PREFERENCE_MARGIN}x",
                            kinds[0]
                        ),
                    )
                }
            } else if i == 0 {
                (
                    false,
                    format!(
                        "structural pick displaced: {:?} predicts {:.1} vs {heuristic_bound:.1}",
                        kinds[winner], bounds[winner]
                    ),
                )
            } else {
                (
                    false,
                    format!(
                        "predicted bound {bound:.1} does not beat {:?} ({:.1}) \
                         by the {PREFERENCE_MARGIN}x margin",
                        kinds[winner], bounds[winner]
                    ),
                )
            };
            Candidate {
                kind,
                bound,
                selected,
                reason,
            }
        })
        .collect()
}

/// The selected strategy for `q` under the collected statistics.
pub fn select_plan(q: &TreeQuery, stats: &Stats, p: u64) -> PlanKind {
    enumerate_plans(q, stats, p)
        .into_iter()
        .find(|c| c.selected)
        .expect("exactly one candidate is selected")
        .kind
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcjoin_query::Edge;
    use mpcjoin_relation::Attr;

    const A: Attr = Attr(0);
    const B: Attr = Attr(1);
    const C: Attr = Attr(2);
    const D: Attr = Attr(3);

    #[test]
    fn structural_pick_leads_and_exactly_one_selected() {
        let q = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C]);
        let stats = Stats {
            sizes: vec![100, 100],
            out: 50,
        };
        let cands = enumerate_plans(&q, &stats, 8);
        assert_eq!(cands[0].kind, PlanKind::MatMul);
        assert_eq!(cands.iter().filter(|c| c.selected).count(), 1);
        // The four always-applicable strategies, deduped.
        assert_eq!(cands.len(), 4);
    }

    #[test]
    fn hysteresis_keeps_the_structural_pick_on_close_calls() {
        // A star with modest OUT: the FCY bound can undercut the star
        // bound, but not by 2x — the structural pick must hold.
        let q = TreeQuery::new(
            vec![Edge::binary(A, D), Edge::binary(B, D), Edge::binary(C, D)],
            [A, B, C],
        );
        let stats = Stats {
            sizes: vec![20, 20, 20],
            out: 40,
        };
        assert_eq!(select_plan(&q, &stats, 8), PlanKind::Star);
    }

    #[test]
    fn free_connex_queries_enumerate_without_duplicates() {
        let q = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, B, C]);
        let stats = Stats {
            sizes: vec![10, 10],
            out: 10,
        };
        let cands = enumerate_plans(&q, &stats, 4);
        // FCY is both the structural pick and an always-applicable
        // alternative: it appears once.
        assert_eq!(
            cands
                .iter()
                .filter(|c| c.kind == PlanKind::FreeConnexYannakakis)
                .count(),
            1
        );
        assert_eq!(cands.len(), 3);
        assert_eq!(select_plan(&q, &stats, 4), PlanKind::FreeConnexYannakakis);
    }

    #[test]
    fn a_decisive_gap_displaces_the_structural_pick() {
        // A–B–C–D with y = {A, C}: General shape (heuristic Tree), but
        // one fold leaves a matmul residual, so CEC prices at
        // fold + N·√OUT/p while Tree prices at N·OUT^{2/3}/p. With a
        // huge OUT statistic the gap exceeds the 2x margin and the
        // selector must switch.
        let q = TreeQuery::new(
            vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, D)],
            [A, C],
        );
        assert_eq!(heuristic_kind(&q), PlanKind::Tree);
        let stats = Stats {
            sizes: vec![1000, 1000, 1000],
            out: 1_000_000,
        };
        let cands = enumerate_plans(&q, &stats, 8);
        assert_eq!(select_plan(&q, &stats, 8), PlanKind::CanonicalEdgeCover);
        let tree = cands.iter().find(|c| c.kind == PlanKind::Tree).unwrap();
        let cec = cands
            .iter()
            .find(|c| c.kind == PlanKind::CanonicalEdgeCover)
            .unwrap();
        assert!(cec.bound * PREFERENCE_MARGIN < tree.bound);
        assert!(!tree.selected && cec.selected);
        assert!(cands.iter().all(|c| c.bound.is_finite()));
    }
}
