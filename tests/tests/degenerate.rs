//! Degenerate inputs through the full engine: empty relations, p = 1
//! clusters, and OUT = 0 instances must execute cleanly, audit cleanly,
//! and keep the cost ledger bit-identical whether or not instrumentation
//! (tracing, metrics, or a fault plane) is enabled, on both execution
//! backends.

use mpcjoin::prelude::*;
use std::time::Duration;

const A: Attr = Attr(0);
const B: Attr = Attr(1);
const C: Attr = Attr(2);

fn mm_query() -> TreeQuery {
    TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C])
}

/// Run `q` on every combination of {plain, instrumented} × {serial,
/// threaded}, assert the ledgers are bit-identical and every run carries
/// an audit verdict, and return the plain run.
fn run_all_ways(p: usize, q: &TreeQuery, rels: &[Relation<Count>]) -> ExecutionResult<Count> {
    let plain = QueryEngine::new(p).run(q, rels).expect("valid instance");
    assert!(plain.trace.is_none());
    for threads in [1usize, 4] {
        let instrumented = QueryEngine::new(p)
            .threads(threads)
            .trace(true)
            .run(q, rels)
            .expect("valid instance");
        assert_eq!(
            plain.cost, instrumented.cost,
            "instrumentation must be invisible in the ledger ({threads} threads)"
        );
        assert!(plain.output.semantically_eq(&instrumented.output));
        assert_eq!(instrumented.audit, plain.audit, "{threads} threads");
        let snap = instrumented.trace.expect("tracing was on").metrics(None);
        assert_eq!(
            snap.per_server.iter().sum::<u64>(),
            plain.cost.total_units,
            "metrics account for exactly the ledger's traffic"
        );
    }
    // Degenerate inputs under faults: the plane must recover these runs
    // (mostly empty exchanges) just as invisibly as instrumentation.
    let faulted = QueryEngine::new(p)
        .faults(
            FaultPlan::new(5)
                .retries(10)
                .drop_window(0, 3, 0.3)
                .duplicate(1, 0.5)
                .reorder(0)
                .straggle(0, 0, Duration::from_micros(20)),
        )
        .run(q, rels)
        .expect("the default retry policy absorbs this schedule");
    assert_eq!(
        plain.cost, faulted.cost,
        "fault recovery must be invisible in the ledger"
    );
    assert!(plain.output.semantically_eq(&faulted.output));
    assert!(faulted.recovery.expect("plan installed").recovered());
    assert_eq!(plain.audit.measured, plain.cost.load);
    plain
}

#[test]
fn empty_relations_run_audit_and_stay_consistent() {
    let q = mm_query();
    let rels = vec![
        Relation::<Count>::binary_ones(A, B, []),
        Relation::<Count>::binary_ones(B, C, []),
    ];
    let r = run_all_ways(4, &q, &rels);
    assert_eq!(r.output.len(), 0);
    assert!(r.audit.within, "an empty run cannot violate any bound");
    assert_eq!(r.audit.ratio, 0.0);
}

#[test]
fn one_empty_relation_among_nonempty_ones() {
    let q = mm_query();
    let rels = vec![
        Relation::<Count>::binary_ones(A, B, (0..40u64).map(|i| (i, i % 8))),
        Relation::<Count>::binary_ones(B, C, []),
    ];
    let r = run_all_ways(4, &q, &rels);
    assert_eq!(r.output.len(), 0, "dangling removal empties the join");
    assert!(r.audit.within);
}

#[test]
fn single_server_cluster_runs_every_plan() {
    let q = mm_query();
    let rels = vec![
        Relation::<Count>::binary_ones(A, B, (0..30u64).map(|i| (i % 6, i % 5))),
        Relation::<Count>::binary_ones(B, C, (0..30u64).map(|i| (i % 5, i % 7))),
    ];
    let r = run_all_ways(1, &q, &rels);
    assert!(!r.output.is_empty());
    // On p = 1 every unit lands on the only server; the audit's additive
    // term keeps tiny statistics exchanges from flagging.
    assert!(r.audit.additive >= 1.0);
    let base = QueryEngine::new(1)
        .plan(PlanChoice::Baseline)
        .run(&q, &rels)
        .expect("baseline on p = 1");
    assert!(base.output.semantically_eq(&r.output));
}

#[test]
fn out_zero_with_nonempty_inputs() {
    // Both relations are non-empty but share no B values: OUT = 0 after
    // non-trivial dangling removal.
    let q = mm_query();
    let rels = vec![
        Relation::<Count>::binary_ones(A, B, (0..25u64).map(|i| (i, 2 * i))),
        Relation::<Count>::binary_ones(B, C, (0..25u64).map(|i| (2 * i + 1, i))),
    ];
    let r = run_all_ways(4, &q, &rels);
    assert_eq!(r.output.len(), 0);
    assert!(r.audit.within, "{}", r.audit);
}

#[test]
fn degenerate_star_and_line_shapes() {
    // A 3-arm star with one empty arm, and a line whose middle hop is a
    // single tuple.
    let (x, y, z, hub) = (Attr(0), Attr(1), Attr(2), Attr(3));
    let star = TreeQuery::new(
        vec![
            Edge::binary(x, hub),
            Edge::binary(y, hub),
            Edge::binary(z, hub),
        ],
        [x, y, z],
    );
    let star_rels = vec![
        Relation::<Count>::binary_ones(x, hub, (0..12u64).map(|i| (i, i % 3))),
        Relation::<Count>::binary_ones(y, hub, []),
        Relation::<Count>::binary_ones(z, hub, (0..12u64).map(|i| (i, i % 3))),
    ];
    let r = run_all_ways(4, &star, &star_rels);
    assert_eq!(r.output.len(), 0);

    let line = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, B, C]);
    let line_rels = vec![
        Relation::<Count>::binary_ones(A, B, (0..10u64).map(|i| (i, 0))),
        Relation::<Count>::binary_ones(B, C, [(0, 7)]),
    ];
    let r = run_all_ways(4, &line, &line_rels);
    assert_eq!(r.output.len(), 10);
    assert!(r.audit.within, "{}", r.audit);
}
