//! Cancellation determinism audit (the deadline plane's soundness
//! premise).
//!
//! The engine only honors a [`CancelToken`] at a round boundary — the
//! top of an exchange or broadcast — so a cancelled run never leaves a
//! half-applied round behind. These tests pin the two properties the
//! serving layer builds on:
//!
//! * **Rerun bit-identity.** For every plan kind, under `Count` and
//!   `TropicalMin` and across thread counts, cancelling at *each
//!   feasible round boundary* (tier-1 samples them; the exhaustive
//!   sweeps are `#[ignore]`d and run by CI in a release build) and then
//!   rerunning the request produces
//!   output rows, cost ledger, plan, and placement skew bit-identical
//!   to a run that was never interrupted. (Each run builds a fresh
//!   cluster, so cancellation cannot plant state — pinned here so a
//!   future persistent-cluster optimization cannot silently break it.)
//! * **Pool safety.** An `Executor` whose pooled engine just served a
//!   deadline-cancelled request answers the next request for the same
//!   digest correctly and identically to a fresh executor.

use mpcjoin::prelude::*;
use mpcjoin::QueryEngine;

const A: Attr = Attr(0);
const B: Attr = Attr(1);
const C: Attr = Attr(2);
const D: Attr = Attr(3);

/// One (query, instance) per [`PlanKind`], generic over the semiring
/// (same fixtures as `fault.rs`, plus the canonical-edge-cover run of
/// the tree query).
fn workloads<S: Semiring>() -> Vec<(PlanKind, TreeQuery, Vec<Relation<S>>)> {
    let mm = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C]);
    let mm_rels = || {
        vec![
            Relation::binary_ones(A, B, (0..60u64).map(|i| (i % 12, i % 7))),
            Relation::binary_ones(B, C, (0..60u64).map(|i| (i % 7, i % 11))),
        ]
    };
    let fc = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, B, C]);
    let line = TreeQuery::new(
        vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, D)],
        [A, D],
    );
    let line_rels = vec![
        Relation::binary_ones(A, B, (0..40u64).map(|i| (i % 8, i % 5))),
        Relation::binary_ones(B, C, (0..40u64).map(|i| (i % 5, i % 6))),
        Relation::binary_ones(C, D, (0..40u64).map(|i| (i % 6, i % 9))),
    ];
    let star = TreeQuery::new(
        vec![Edge::binary(A, D), Edge::binary(B, D), Edge::binary(C, D)],
        [A, B, C],
    );
    let star_rels = vec![
        Relation::binary_ones(A, D, (0..24u64).map(|i| (i % 6, i % 3))),
        Relation::binary_ones(B, D, (0..24u64).map(|i| (i % 5, i % 3))),
        Relation::binary_ones(C, D, (0..24u64).map(|i| (i % 4, i % 3))),
    ];
    let (hub, mid) = (Attr(9), Attr(10));
    let star_like = TreeQuery::new(
        vec![
            Edge::binary(hub, A),
            Edge::binary(hub, mid),
            Edge::binary(mid, B),
            Edge::binary(hub, C),
        ],
        [A, B, C],
    );
    let star_like_rels = vec![
        Relation::binary_ones(hub, A, (0..24u64).map(|i| (i % 4, i % 7))),
        Relation::binary_ones(hub, mid, (0..24u64).map(|i| (i % 4, i % 5))),
        Relation::binary_ones(mid, B, (0..24u64).map(|i| (i % 5, i % 6))),
        Relation::binary_ones(hub, C, (0..24u64).map(|i| (i % 4, i % 3))),
    ];
    let tree = TreeQuery::new(
        vec![
            Edge::binary(Attr(0), Attr(1)),
            Edge::binary(Attr(1), Attr(2)),
            Edge::binary(Attr(2), Attr(3)),
            Edge::binary(Attr(3), Attr(4)),
        ],
        [Attr(0), Attr(2), Attr(4)],
    );
    let tree_rels = || {
        (0..4)
            .map(|j| {
                Relation::binary_ones(
                    Attr(j),
                    Attr(j + 1),
                    (0..20u64).map(move |i| ((i * (u64::from(j) + 2)) % 6, (i * 3) % 6)),
                )
            })
            .collect::<Vec<_>>()
    };
    vec![
        (PlanKind::MatMul, mm, mm_rels()),
        (PlanKind::FreeConnexYannakakis, fc, mm_rels()),
        (PlanKind::Line, line, line_rels),
        (PlanKind::Star, star, star_rels),
        (PlanKind::StarLike, star_like, star_like_rels),
        (PlanKind::Tree, tree.clone(), tree_rels()),
        (PlanKind::CanonicalEdgeCover, tree, tree_rels()),
    ]
}

/// The rerun contract: plan, exact cost ledger, canonical output, and
/// placement skew all match the uninterrupted baseline.
fn assert_identical<S: Semiring + std::fmt::Debug>(
    rerun: &ExecutionResult<S>,
    baseline: &ExecutionResult<S>,
    what: &str,
) {
    assert_eq!(rerun.plan, baseline.plan, "{what}: plan drifted");
    assert_eq!(rerun.cost, baseline.cost, "{what}: cost ledger drifted");
    assert_eq!(
        rerun.output.canonical(),
        baseline.output.canonical(),
        "{what}: output drifted"
    );
    assert_eq!(
        rerun.output_skew, baseline.output_skew,
        "{what}: placement skew drifted"
    );
}

/// Which round boundaries a sweep cancels at.
#[derive(Clone, Copy)]
enum Boundaries {
    /// Every one (the `#[ignore]`d exhaustive sweeps; CI runs them in a
    /// release build).
    All,
    /// The first 8 (scatter + statistics, where the plans differ most),
    /// every 16th after that, and the last: tier-1's fixed sample of
    /// plans that run up to ~1 900 rounds.
    Sampled,
}

/// Cancel `kind` at the selected feasible round boundaries under
/// `threads` engine threads, rerunning after each cancellation.
fn sweep_plan<S: Semiring + std::fmt::Debug>(
    kind: PlanKind,
    q: &TreeQuery,
    rels: &[Relation<S>],
    threads: usize,
    boundaries: Boundaries,
) {
    let engine = || {
        QueryEngine::new(8)
            .threads(threads)
            .plan(PlanChoice::Force(kind))
    };
    let baseline = engine().run(q, rels).expect("uninterrupted run");
    let rounds = baseline.cost.rounds;
    assert!(rounds > 0, "{kind:?}: a distributed run has rounds");
    let mut selected: Vec<u64> = match boundaries {
        Boundaries::All => (0..rounds).collect(),
        Boundaries::Sampled => (0..rounds.min(8))
            .chain((0..rounds).step_by(16))
            .chain([rounds - 1])
            .collect(),
    };
    selected.sort_unstable();
    selected.dedup();
    for at in selected {
        // Subcluster phases share the parent's round timeline, so
        // boundary rounds need not be dense: the token fires at the
        // first boundary at-or-past `at`, and *which* boundary that is
        // must itself be deterministic.
        let cancel_once = || match engine()
            .cancel(CancelToken::new().at_round(at))
            .run(q, rels)
            .expect_err("token armed for a feasible boundary must fire")
        {
            MpcError::Cancelled { round } => round,
            other => panic!("{kind:?}: expected Cancelled, got {other:?}"),
        };
        let fired_at = cancel_once();
        assert!(
            fired_at >= at,
            "{kind:?} (threads={threads}): fired before the armed round"
        );
        assert_eq!(
            cancel_once(),
            fired_at,
            "{kind:?} (threads={threads}): cancellation boundary must be deterministic"
        );
        // The rerun sees no trace of the cancelled attempt.
        let rerun = engine().run(q, rels).expect("rerun succeeds");
        assert_identical(
            &rerun,
            &baseline,
            &format!("{kind:?} cancelled at round {at} (threads={threads})"),
        );
    }
}

fn sweep_under_count(boundaries: Boundaries) {
    for (kind, q, rels) in workloads::<Count>() {
        sweep_plan(kind, &q, &rels, 1, boundaries);
    }
}

fn sweep_under_tropical_min(boundaries: Boundaries) {
    // The other semiring sweeps under a parallel engine, so between the
    // two tests both semirings and both thread regimes are covered.
    for (kind, q, rels) in workloads::<TropicalMin>() {
        sweep_plan(kind, &q, &rels, 3, boundaries);
    }
}

#[test]
fn every_plan_cancels_and_reruns_bit_identically_under_count() {
    sweep_under_count(Boundaries::Sampled);
}

#[test]
fn every_plan_cancels_and_reruns_bit_identically_under_tropical_min() {
    sweep_under_tropical_min(Boundaries::Sampled);
}

#[test]
#[ignore = "exhaustive: every boundary of every plan; CI runs it in release"]
fn every_plan_cancels_at_every_boundary_under_count() {
    sweep_under_count(Boundaries::All);
}

#[test]
#[ignore = "exhaustive: every boundary of every plan; CI runs it in release"]
fn every_plan_cancels_at_every_boundary_under_tropical_min() {
    sweep_under_tropical_min(Boundaries::All);
}

/// The fixtures above have no heavy/light mix. A Zipf-skewed product
/// takes the worst-case-optimal path, which looks up each light value's
/// bundle id rounds before it routes the tuple; cancelling in between
/// must still stop cleanly.
#[test]
fn skewed_matmul_cancels_at_every_boundary() {
    let inst = mpcjoin_workload::matrix::zipf::<Count>(
        &mut mpcjoin_workload::rng(1),
        (A, B, C),
        300,
        300,
        40,
        1.2,
    );
    let q = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C]);
    sweep_plan(
        PlanKind::MatMul,
        &q,
        &[inst.r1, inst.r2],
        1,
        Boundaries::All,
    );
}

#[test]
fn deadline_and_caller_cancellation_report_cause_and_round() {
    let q = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C]);
    let rels: Vec<Relation<Count>> = vec![
        Relation::binary_ones(A, B, (0..60u64).map(|i| (i % 12, i % 7))),
        Relation::binary_ones(B, C, (0..60u64).map(|i| (i % 7, i % 11))),
    ];
    // An already-expired deadline fires at the very first boundary.
    let err = QueryEngine::new(8)
        .cancel(CancelToken::new().deadline_in(std::time::Duration::ZERO))
        .run(&q, &rels)
        .expect_err("expired deadline fires");
    assert!(
        matches!(err, MpcError::DeadlineExceeded { round: 0 }),
        "got {err:?}"
    );
    assert_eq!(err.code(), "deadline_exceeded");
    // A caller-driven token fires likewise, with its own code.
    let token = CancelToken::new();
    token.cancel();
    let err = QueryEngine::new(8)
        .cancel(token)
        .run(&q, &rels)
        .expect_err("pre-cancelled token fires");
    assert!(
        matches!(err, MpcError::Cancelled { round: 0 }),
        "got {err:?}"
    );
    assert_eq!(err.code(), "cancelled");
}

/// A fault plane that poisons the run at round 0 and a token that fires
/// later: the stop wins, as the caller asked for it and the poisoned
/// output is never read.
#[test]
fn cancellation_wins_over_an_earlier_unrecoverable_fault() {
    let (kind, q, rels) = workloads::<Count>().remove(0);
    assert_eq!(kind, PlanKind::MatMul);
    let err = QueryEngine::new(8)
        .plan(PlanChoice::Force(kind))
        .faults(FaultPlan::new(3).drop_window(0, 1000, 1.0).retries(0))
        .cancel(CancelToken::new().at_round(3))
        .run(&q, &rels)
        .expect_err("both stops fire");
    assert!(
        matches!(err, MpcError::Cancelled { round } if round >= 3),
        "got {err:?}"
    );
}

/// Pool safety through the serving layer: a deadline-cancelled request
/// leaves the executor's pooled engines fully reusable, and the next
/// run of the same digest matches a fresh executor bit for bit.
#[test]
fn executor_pool_serves_correctly_after_cancelled_requests() {
    use mpcjoin_server::wire::{parse_frame, Frame, ResponseView};
    use mpcjoin_server::{Executor, Obs, RequestCtx};
    use std::sync::Arc;
    use std::time::Instant;

    let line = "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
                \"servers\":4,\"semiring\":\"count\",\
                \"relations\":{\"R\":[[1,10],[1,11],[2,10],[3,12]],\"S\":[[10,7],[11,7],[12,9]]}}";
    let Frame::Query(req) = parse_frame(line).unwrap() else {
        panic!("expected a query frame");
    };
    let pooled = Executor::new(64, 1, 16, None, Arc::new(Obs::new()));
    let past = Instant::now() - std::time::Duration::from_millis(5);
    for rid in 0..3 {
        let view = ResponseView::parse(&pooled.execute(
            &req,
            &RequestCtx {
                rid,
                deadline: Some(past),
                ..RequestCtx::default()
            },
        ))
        .unwrap();
        assert_eq!(view.kind, "error");
        assert_eq!(view.code.as_deref(), Some("deadline_exceeded"));
    }
    let served = ResponseView::parse(&pooled.execute(&req, &RequestCtx::default())).unwrap();
    assert_eq!(served.kind, "result", "{:?}", served.detail);
    assert!(!served.cached, "cancelled attempts must not fill the cache");
    let fresh = Executor::new(64, 1, 16, None, Arc::new(Obs::new()));
    let fresh_view = ResponseView::parse(&fresh.execute(&req, &RequestCtx::default())).unwrap();
    assert_eq!(
        served.result, fresh_view.result,
        "post-cancellation run matches a fresh executor bit for bit"
    );
}
