//! The fault plane through the full engine: for every plan the engine
//! can choose, a run under injected faults (drops, duplicates, reorders,
//! crashes, stragglers, compute faults) must recover to the *same*
//! output and the *same* cost ledger as the fault-free run — faults are
//! visible only in wall-clock time and in the recovery report. A
//! schedule the retry policy cannot absorb surfaces as a structured
//! [`MpcError::Unrecoverable`], never a panic.

use mpcjoin::prelude::*;
use mpcjoin::{PlanKind, QueryEngine};
use std::time::Duration;

const A: Attr = Attr(0);
const B: Attr = Attr(1);
const C: Attr = Attr(2);
const D: Attr = Attr(3);

/// A schedule exercising every fault kind over the run's early rounds.
fn mixed_plan(seed: u64) -> FaultPlan {
    // Drop probability and retry budget are chosen so exhausting the
    // budget is vanishingly unlikely (≈0.3¹¹ per message): the
    // recoverable-schedule tests stay deterministic-by-seed without
    // sitting near the unrecoverable cliff.
    FaultPlan::new(seed)
        .retries(10)
        .drop_window(0, 3, 0.3)
        .duplicate(1, 0.5)
        .reorder(2)
        .crash(3, 5)
        .straggle(0, 1, Duration::from_micros(30))
        .compute_fault(1, 2)
}

/// Run `q` fault-free and under `plan`; the faulted run must land on the
/// same output and ledger, with a recovery report telling a non-empty
/// story. Returns the faulted run.
fn assert_recovery_equivalent<S: Semiring>(
    p: usize,
    q: &TreeQuery,
    rels: &[Relation<S>],
    plan: FaultPlan,
    expect: PlanKind,
) -> ExecutionResult<S> {
    let clean = QueryEngine::new(p).run(q, rels).expect("valid instance");
    assert_eq!(clean.plan, expect);
    assert!(clean.recovery.is_none(), "no plan installed, no report");
    let faulted = QueryEngine::new(p)
        .faults(plan)
        .run(q, rels)
        .expect("this schedule is recoverable under its retry policy");
    assert_eq!(faulted.plan, expect);
    assert_eq!(
        clean.cost, faulted.cost,
        "{expect:?}: recovery must be invisible in the ledger"
    );
    assert!(
        clean.output.semantically_eq(&faulted.output),
        "{expect:?}: recovery must be invisible in the output"
    );
    assert_eq!(clean.audit, faulted.audit, "{expect:?}");
    let report = faulted.recovery.as_ref().expect("fault plan installed");
    assert!(report.recovered(), "{expect:?}: {report}");
    faulted
}

/// One (query, instance) per [`PlanKind`], generic over the semiring.
fn workloads<S: Semiring>() -> Vec<(PlanKind, TreeQuery, Vec<Relation<S>>)> {
    let mm = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C]);
    let mm_rels = vec![
        Relation::binary_ones(A, B, (0..60u64).map(|i| (i % 12, i % 7))),
        Relation::binary_ones(B, C, (0..60u64).map(|i| (i % 7, i % 11))),
    ];
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
    let tree_rels = (0..4)
        .map(|j| {
            Relation::binary_ones(
                Attr(j),
                Attr(j + 1),
                (0..20u64).map(move |i| ((i * (u64::from(j) + 2)) % 6, (i * 3) % 6)),
            )
        })
        .collect();
    vec![
        (PlanKind::MatMul, mm, mm_rels.clone()),
        (PlanKind::FreeConnexYannakakis, fc, mm_rels),
        (PlanKind::Line, line, line_rels),
        (PlanKind::Star, star, star_rels),
        (PlanKind::StarLike, star_like, star_like_rels),
        (PlanKind::Tree, tree, tree_rels),
    ]
}

#[test]
fn every_plan_recovers_bit_identically_under_count() {
    for (i, (kind, q, rels)) in workloads::<Count>().into_iter().enumerate() {
        assert_recovery_equivalent(8, &q, &rels, mixed_plan(40 + i as u64), kind);
    }
}

#[test]
fn every_plan_recovers_bit_identically_under_tropical_min() {
    for (i, (kind, q, rels)) in workloads::<TropicalMin>().into_iter().enumerate() {
        assert_recovery_equivalent(8, &q, &rels, mixed_plan(90 + i as u64), kind);
    }
}

#[test]
fn recovery_story_is_deterministic_per_seed() {
    let (kind, q, rels) = workloads::<Count>().swap_remove(2);
    let a = assert_recovery_equivalent(8, &q, &rels, mixed_plan(7), kind);
    let b = assert_recovery_equivalent(8, &q, &rels, mixed_plan(7), kind);
    assert_eq!(
        a.recovery, b.recovery,
        "same seed, same schedule, same recovery story"
    );
    let c = assert_recovery_equivalent(8, &q, &rels, mixed_plan(8), kind);
    // A different seed may tell a different story — but never a
    // different ledger (already asserted inside the helper).
    assert_eq!(a.cost, c.cost);
}

#[test]
fn an_installed_but_silent_plan_is_fully_invisible() {
    // A plan whose schedule never fires: the run must be bit-identical
    // to the fault-free run — ledger, trace events, and metrics — across
    // thread counts. This pins "compiled in but disabled costs nothing".
    let (_, q, rels) = workloads::<Count>().swap_remove(0);
    let silent = FaultPlan::new(3).drop_window(10_000, 10_001, 1.0);
    let clean = QueryEngine::new(8).trace(true).run(&q, &rels).unwrap();
    for threads in [1usize, 4] {
        let armed = QueryEngine::new(8)
            .threads(threads)
            .trace(true)
            .faults(silent.clone())
            .run(&q, &rels)
            .unwrap();
        assert_eq!(clean.cost, armed.cost, "{threads} threads");
        let (ct, at) = (clean.trace.as_ref().unwrap(), armed.trace.as_ref().unwrap());
        assert_eq!(ct.events, at.events, "{threads} threads");
        assert_eq!(ct.phases, at.phases, "{threads} threads");
        let report = armed.recovery.as_ref().expect("plan installed");
        assert!(report.events.is_empty(), "silent plan records no events");
        assert!(report.is_clean(), "{report}");
        let (cm, am) = (ct.metrics(None), at.metrics(Some(report)));
        assert_eq!(cm.per_server, am.per_server, "{threads} threads");
        assert_eq!(cm.per_primitive, am.per_primitive, "{threads} threads");
        assert!(
            am.counters.iter().all(|(k, _)| !k.starts_with("fault.")),
            "no fault counters when nothing fired"
        );
    }
}

#[test]
fn crash_degrades_to_fewer_servers_and_stays_correct() {
    let (kind, q, rels) = workloads::<Count>().swap_remove(3);
    let faulted = assert_recovery_equivalent(
        8,
        &q,
        &rels,
        FaultPlan::new(1).crash(1, 3).crash(4, 6),
        kind,
    );
    let report = faulted.recovery.expect("plan installed");
    assert_eq!(report.servers_lost, vec![3, 6]);
    assert_eq!(report.rounds_replayed, 2);
}

#[test]
fn unrecoverable_schedule_is_a_structured_error_for_every_plan() {
    for (kind, q, rels) in workloads::<Count>() {
        let hopeless = FaultPlan::new(2).retries(1).drop_window(0, u64::MAX, 1.0);
        let err = QueryEngine::new(8)
            .faults(hopeless)
            .run(&q, &rels)
            .unwrap_err();
        match err {
            MpcError::Unrecoverable { detail, .. } => {
                assert!(detail.contains("undelivered"), "{kind:?}: {detail}");
            }
            other => panic!("{kind:?}: expected Unrecoverable, got {other}"),
        }
    }
}

#[test]
fn degenerate_inputs_survive_hostile_schedules() {
    // Empty inputs, p = 1, and OUT = 0 under crash + certain drops: the
    // plane must skip what cannot fault (no messages, no survivors to
    // rehash to) and recover the rest.
    let q = TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C]);
    let empty = vec![
        Relation::<Count>::binary_ones(A, B, []),
        Relation::<Count>::binary_ones(B, C, []),
    ];
    let r = QueryEngine::new(4)
        .faults(mixed_plan(5))
        .run(&q, &empty)
        .expect("empty exchanges cannot exhaust retries");
    assert_eq!(r.output.len(), 0);
    assert!(r.recovery.expect("plan installed").recovered());

    let single = vec![
        Relation::<Count>::binary_ones(A, B, (0..30u64).map(|i| (i % 6, i % 5))),
        Relation::<Count>::binary_ones(B, C, (0..30u64).map(|i| (i % 5, i % 7))),
    ];
    let clean = QueryEngine::new(1).run(&q, &single).unwrap();
    let crashed = QueryEngine::new(1)
        .faults(
            FaultPlan::new(9)
                .retries(20)
                .crash(0, 0)
                .drop_window(0, 2, 0.4),
        )
        .run(&q, &single)
        .expect("a 1-server cluster ignores the crash and retries the drops");
    assert_eq!(clean.cost, crashed.cost);
    assert!(clean.output.semantically_eq(&crashed.output));
    let report = crashed.recovery.expect("plan installed");
    assert!(report.servers_lost.is_empty(), "no survivor, no crash");
}

#[test]
fn fault_plan_round_trips_through_json_at_the_engine_boundary() {
    let (kind, q, rels) = workloads::<Count>().swap_remove(1);
    let plan = mixed_plan(21);
    let text = plan.to_json().to_string_compact().expect("finite");
    let reparsed = FaultPlan::from_json(&text).expect("own exporter parses");
    assert_eq!(
        reparsed.to_json().to_string_compact().expect("finite"),
        text
    );
    let a = assert_recovery_equivalent(8, &q, &rels, plan, kind);
    let b = assert_recovery_equivalent(8, &q, &rels, reparsed, kind);
    assert_eq!(a.recovery, b.recovery, "round-trip preserves the schedule");
}

#[test]
fn recovered_runs_export_a_v3_trace_with_the_story_embedded() {
    use mpcjoin::mpc::json::Json;
    let (_, q, rels) = workloads::<Count>().swap_remove(2);
    let r = QueryEngine::new(8)
        .trace(true)
        .faults(mixed_plan(13))
        .run(&q, &rels)
        .unwrap();
    let trace = r.trace.as_ref().unwrap();
    let recovery = r.recovery.as_ref().expect("fault plan installed");
    assert!(
        !recovery.events.is_empty(),
        "a fired schedule leaves events"
    );
    let text = trace.to_json(Some(&r.audit.to_json()), Some(recovery), None);
    let summary = mpcjoin::mpc::trace::validate(&text).expect("the faulted export validates");
    assert!(summary.contains("recovery ok"), "{summary}");
    let doc = Json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("mpcjoin-trace-v3")
    );
    let events = doc.get("recovery").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), recovery.events.len());
    let report = doc.get("recovery_report").expect("report member");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("mpcjoin-recovery-v1")
    );
    assert_eq!(report.get("recovered"), Some(&Json::Bool(true)));
}

#[test]
fn all_observers_composed_stay_invisible_for_every_plan() {
    // Tracer + a recoverable fault plan + a never-firing cancel token
    // installed *together*, against a bare run: the seam composes them
    // in one place, and none of them may leak into output or ledger —
    // or disagree with the ledger or each other about what happened.
    let mut cases = workloads::<Count>();
    let (_, line, line_rels) = cases[2].clone();
    cases.push((PlanKind::CanonicalEdgeCover, line, line_rels));
    for (i, (kind, q, rels)) in cases.into_iter().enumerate() {
        for threads in [1usize, 3] {
            let what = format!("{kind:?}, {threads} thread(s)");
            let engine = QueryEngine::new(8)
                .threads(threads)
                .plan(PlanChoice::Force(kind));
            let bare = engine.clone().run(&q, &rels).expect("valid instance");
            let full = engine
                .trace(true)
                .faults(mixed_plan(60 + i as u64))
                .cancel(CancelToken::new())
                .run(&q, &rels)
                .expect("recoverable schedule, token never fires");
            assert_eq!(bare.plan, full.plan, "{what}");
            assert_eq!(bare.cost, full.cost, "{what}");
            assert_eq!(bare.audit, full.audit, "{what}");
            assert_eq!(bare.output.canonical(), full.output.canonical(), "{what}");

            let trace = full.trace.as_ref().expect("trace requested");
            let recovery = full.recovery.as_ref().expect("fault plan installed");
            let metrics = trace.metrics(Some(recovery));
            assert!(recovery.recovered(), "{what}: {recovery}");
            assert!(recovery.faults_injected > 0, "{what}: schedule fired");
            assert_eq!(trace.cost, full.cost, "{what}");
            assert_eq!(
                metrics.per_server.iter().sum::<u64>(),
                full.cost.total_units,
                "{what}"
            );
            let counter = |name: &str| {
                metrics
                    .counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .map_or(0, |(_, v)| *v)
            };
            for (name, total) in [
                ("fault.retries", recovery.retries),
                ("fault.messages_dropped", recovery.messages_dropped),
                ("fault.messages_duplicated", recovery.messages_duplicated),
                ("fault.rounds_replayed", recovery.rounds_replayed),
                ("fault.compute_retries", recovery.compute_retries),
                ("fault.servers_lost", recovery.servers_lost.len() as u64),
            ] {
                assert_eq!(counter(name), total, "{what}: {name}");
            }
        }
    }
}
