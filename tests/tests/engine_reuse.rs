//! Engine-reuse leakage audit (the serving layer's soundness premise).
//!
//! `mpcjoin-serve` pools `QueryEngine`s and reuses them across requests,
//! sessions, and semirings, and its result cache replays stored bodies
//! for repeated requests. Both are sound only if a run's outcome is a
//! pure function of `(query, instance, configuration)` — i.e. if no
//! state leaks from one `run` to the next through the engine value.
//!
//! The audit of the engine confirms this *by construction*: `QueryEngine`
//! holds only configuration (`p`, threads, trace flag, plan choice,
//! fault plan) and `run` builds a fresh `Cluster` — ledger, RNG state,
//! fault plane, tracer — per call (`crates/core/src/planner.rs`).
//! These tests pin the property behaviorally so a future cached or
//! memoized field cannot silently break it: a reused engine's outputs
//! and exact cost ledgers must be bit-identical to fresh-engine runs,
//! under interleaving, across semirings, and after error and recovery
//! paths.

use mpcjoin::prelude::*;
use mpcjoin::QueryEngine;

const A: Attr = Attr(0);
const B: Attr = Attr(1);
const C: Attr = Attr(2);
const D: Attr = Attr(3);

fn mm_query() -> TreeQuery {
    TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C])
}

fn line_query() -> TreeQuery {
    TreeQuery::new(
        vec![Edge::binary(A, B), Edge::binary(B, C), Edge::binary(C, D)],
        [A, D],
    )
}

fn mm_instance(shift: u64) -> Vec<Relation<Count>> {
    vec![
        Relation::binary_ones(A, B, (0..60u64).map(|i| ((i + shift) % 12, i % 7))),
        Relation::binary_ones(B, C, (0..60u64).map(|i| (i % 7, (i + shift) % 11))),
    ]
}

fn line_instance(shift: u64) -> Vec<Relation<Count>> {
    vec![
        Relation::binary_ones(A, B, (0..40u64).map(|i| ((i + shift) % 8, i % 5))),
        Relation::binary_ones(B, C, (0..40u64).map(|i| (i % 5, i % 6))),
        Relation::binary_ones(C, D, (0..40u64).map(|i| (i % 6, (i + shift) % 9))),
    ]
}

/// The reuse contract for one run: output rows (canonical order,
/// annotations included) and the exact cost ledger match a fresh
/// engine's run of the same request.
fn assert_identical<S: Semiring + std::fmt::Debug>(
    reused: &ExecutionResult<S>,
    fresh: &ExecutionResult<S>,
    what: &str,
) {
    assert_eq!(reused.plan, fresh.plan, "{what}: plan drifted");
    assert_eq!(reused.cost, fresh.cost, "{what}: cost ledger drifted");
    assert_eq!(
        reused.output.canonical(),
        fresh.output.canonical(),
        "{what}: output drifted"
    );
    assert_eq!(
        reused.output_skew, fresh.output_skew,
        "{what}: placement skew drifted"
    );
}

#[test]
fn interleaved_reuse_is_bit_identical_to_fresh_engines() {
    let engine = QueryEngine::new(8);
    let mm = mm_query();
    let line = line_query();
    // Interleave queries and instances on ONE engine; after each run,
    // compare against a brand-new engine. Round 2 repeats round 0's
    // requests, so any state planted by rounds 0–1 would surface.
    for round in 0..3u64 {
        let shift = round % 2;
        let mm_rels = mm_instance(shift);
        let line_rels = line_instance(shift);
        let r1 = engine.run(&mm, &mm_rels).unwrap();
        let f1 = QueryEngine::new(8).run(&mm, &mm_rels).unwrap();
        assert_identical(&r1, &f1, &format!("round {round}: matmul"));
        let r2 = engine.run(&line, &line_rels).unwrap();
        let f2 = QueryEngine::new(8).run(&line, &line_rels).unwrap();
        assert_identical(&r2, &f2, &format!("round {round}: line"));
    }
}

#[test]
fn reuse_across_semirings_does_not_leak() {
    // The serving layer runs different semirings through engines pooled
    // by configuration only; `run` is generic per call, so semiring type
    // state cannot live in the engine — pin it anyway.
    let engine = QueryEngine::new(6);
    let q = mm_query();
    let count_rels = mm_instance(0);
    let bool_rels: Vec<Relation<BoolRing>> = vec![
        Relation::binary_ones(A, B, (0..60u64).map(|i| (i % 12, i % 7))),
        Relation::binary_ones(B, C, (0..60u64).map(|i| (i % 7, i % 11))),
    ];
    let before = engine.run(&q, &count_rels).unwrap();
    let _ = engine.run(&q, &bool_rels).unwrap();
    let after = engine.run(&q, &count_rels).unwrap();
    assert_identical(&after, &before, "count run after bool interleave");
}

#[test]
fn reuse_survives_error_paths() {
    // A failed run (invalid instance, unsupported plan) must leave the
    // engine exactly as it was.
    let engine = QueryEngine::new(8);
    let q = mm_query();
    let rels = mm_instance(0);
    let before = engine.run(&q, &rels).unwrap();
    let err = engine.run(&q, &rels[..1]).unwrap_err();
    assert!(matches!(err, MpcError::InvalidInstance(_)));
    let forced = QueryEngine::new(8).plan(PlanChoice::Force(PlanKind::Star));
    assert!(forced.run(&q, &rels).is_err());
    let after = engine.run(&q, &rels).unwrap();
    assert_identical(&after, &before, "run after error paths");
}

#[test]
fn faulted_engine_reuse_stays_clean() {
    // An engine carrying a fault plan replays the SAME deterministic
    // schedule every run (the plan seeds a fresh RNG per cluster), and a
    // fault-free engine derived from the same base stays untouched.
    let q = mm_query();
    let rels = mm_instance(0);
    let clean_engine = QueryEngine::new(8);
    let clean = clean_engine.run(&q, &rels).unwrap();
    let faulted_engine =
        QueryEngine::new(8).faults(FaultPlan::new(11).retries(10).drop_window(0, 4, 0.3));
    let first = faulted_engine.run(&q, &rels).unwrap();
    let second = faulted_engine.run(&q, &rels).unwrap();
    assert_identical(&first, &second, "faulted engine reused");
    assert_eq!(
        first
            .recovery
            .as_ref()
            .map(|r| r.to_json().to_string_sanitized()),
        second
            .recovery
            .as_ref()
            .map(|r| r.to_json().to_string_sanitized()),
        "fault schedule must replay identically on reuse"
    );
    assert_identical(&first, &clean, "faulted vs clean output/ledger");
    // And the clean engine is unaffected by the faulted one's runs.
    let clean_after = clean_engine.run(&q, &rels).unwrap();
    assert_identical(&clean_after, &clean, "clean engine after faulted runs");
    assert!(clean_after.recovery.is_none());
}

#[test]
fn server_executor_reuse_matches_fresh_executors() {
    // The serving layer's actual reuse path: one Executor (pooled
    // engines + cache) answering a request repeatedly, compared against
    // a fresh Executor per request. Bodies are serialized bytes, so
    // equality here is bit-identity.
    use mpcjoin_server::run::{Executor, RequestCtx};
    use mpcjoin_server::wire::{parse_frame, Frame, ResponseView};

    let line = "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
                \"servers\":4,\"semiring\":\"count\",\
                \"relations\":{\"R\":[[1,10],[1,11],[2,10],[3,12]],\"S\":[[10,7],[11,7],[12,9]]}}";
    let Frame::Query(req) = parse_frame(line).unwrap() else {
        panic!("expected a query frame");
    };
    let shared = Executor::new(
        64,
        1,
        16,
        None,
        std::sync::Arc::new(mpcjoin_server::Obs::new()),
    );
    let mut bodies = Vec::new();
    for i in 0..4 {
        let view = ResponseView::parse(&shared.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "result");
        assert_eq!(view.cached, i > 0, "first run cold, repeats cached");
        bodies.push(view.result.unwrap());
        let fresh = Executor::new(
            64,
            1,
            16,
            None,
            std::sync::Arc::new(mpcjoin_server::Obs::new()),
        );
        let fresh_view = ResponseView::parse(&fresh.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(
            fresh_view.result.as_deref(),
            bodies.last().map(String::as_str),
            "reused executor must match a fresh one"
        );
    }
    assert!(bodies.windows(2).all(|w| w[0] == w[1]));
}
