//! End-to-end checks of the round-level execution trace layer: JSON
//! round-trips, sum-consistency of the per-primitive breakdowns against
//! the cost ledger, and backend-independence of the recorded events.

use mpcjoin::mpc::json::Json;
use mpcjoin::mpc::trace::validate;
use mpcjoin::prelude::*;
use mpcjoin::workload::chain;

fn funnel_instance() -> (TreeQuery, Vec<Relation<Count>>) {
    // The Table-1 line-query family (3-hop funnel): enough structure to
    // exercise dangling removal, §2.2 estimation, and fragment combining.
    let inst = chain::funnel::<Count>(8, 4, 4);
    (inst.query, inst.rels)
}

fn traced_run(engine: QueryEngine, q: &TreeQuery, rels: &[Relation<Count>]) -> (Trace, CostReport) {
    let result = engine.trace(true).run(q, rels).expect("valid instance");
    let trace = result.trace.expect("tracing was enabled");
    (trace, result.cost)
}

#[test]
fn trace_json_roundtrips_and_matches_cost_report() {
    let (q, rels) = funnel_instance();
    let (trace, cost) = traced_run(QueryEngine::new(8), &q, &rels);

    validate(&trace.to_json(None, None, None)).expect("the library validator accepts the export");
    let doc = Json::parse(&trace.to_json(None, None, None)).expect("exporter emits valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("mpcjoin-trace-v3")
    );
    assert_eq!(
        doc.get("audit"),
        Some(&Json::Null),
        "standalone export carries an empty audit slot"
    );
    assert_eq!(
        doc.get("recovery_report"),
        Some(&Json::Null),
        "no fault plane, no recovery report"
    );
    assert_eq!(
        doc.get("recovery")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "no fault plane, no recovery events"
    );
    assert_eq!(doc.get("servers").and_then(Json::as_u64), Some(8));
    assert_eq!(doc.get("load").and_then(Json::as_u64), Some(cost.load));
    assert_eq!(doc.get("rounds").and_then(Json::as_u64), Some(cost.rounds));
    assert_eq!(
        doc.get("total_units").and_then(Json::as_u64),
        Some(cost.total_units)
    );

    // Events round-trip: as many as the in-memory trace, and the traffic
    // matrices re-sum to the per-server received vectors.
    let events = doc.get("events").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), trace.events.len());
    assert!(!events.is_empty(), "a real run records exchanges");
    let mut unit_sum = 0;
    for e in events {
        let received: Vec<u64> = e
            .get("received")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(received.len(), 8);
        let traffic = e.get("traffic").and_then(Json::as_arr).unwrap();
        assert_eq!(traffic.len(), 8);
        for (dst, &got) in received.iter().enumerate() {
            let col_sum: u64 = traffic
                .iter()
                .map(|row| row.as_arr().unwrap()[dst].as_u64().unwrap())
                .sum();
            assert_eq!(col_sum, got, "traffic column {dst} must re-sum to received");
        }
        unit_sum += received.iter().sum::<u64>();
    }
    assert_eq!(unit_sum, cost.total_units, "events account for all traffic");
}

#[test]
fn trace_json_embeds_the_audit_verdict() {
    let (q, rels) = funnel_instance();
    let result = QueryEngine::new(8).trace(true).run(&q, &rels).unwrap();
    let trace = result.trace.as_ref().unwrap();
    let text = trace.to_json(
        Some(&result.audit.to_json()),
        result.recovery.as_ref(),
        None,
    );
    let summary = validate(&text).expect("the audited export validates");
    assert!(summary.contains("audit ok"), "{summary}");
    let doc = Json::parse(&text).unwrap();
    let audit = doc.get("audit").expect("audit member present");
    assert_ne!(audit, &Json::Null);
    assert_eq!(
        audit.get("measured").and_then(Json::as_u64),
        Some(result.cost.load),
        "the embedded verdict audits this very run"
    );
    assert_eq!(
        audit.get("within").cloned(),
        Some(Json::Bool(result.audit.within))
    );
}

#[test]
fn breakdowns_are_sum_consistent_with_the_ledger() {
    let (q, rels) = funnel_instance();
    let (trace, cost) = traced_run(QueryEngine::new(8), &q, &rels);
    let report = trace.report();

    let label_units: u64 = report.per_label.iter().map(|b| b.total_units).sum();
    let phase_units: u64 = report.per_phase.iter().map(|b| b.total_units).sum();
    assert_eq!(label_units, cost.total_units);
    assert_eq!(phase_units, cost.total_units);
    assert!(report.per_label.iter().all(|b| b.load <= cost.load));
    assert!(report.per_phase.iter().all(|b| b.load <= cost.load));

    assert_eq!(report.per_server.len(), 8);
    assert_eq!(report.per_server.iter().sum::<u64>(), cost.total_units);

    let critical = report.critical.expect("non-empty run has a critical cell");
    assert_eq!(critical.units, cost.load, "critical cell defines the load");
    assert_eq!(trace.critical_round().unwrap().units, cost.load);

    // The algorithm labeled its phases: the line query marks at least
    // dangling removal and OUT estimation.
    let phase_labels: Vec<&str> = report.per_phase.iter().map(|b| b.label.as_str()).collect();
    assert!(
        phase_labels.iter().any(|l| l.contains("dangling")),
        "expected a dangling-removal phase, got {phase_labels:?}"
    );
}

#[test]
fn traces_are_identical_across_backends() {
    let (q, rels) = funnel_instance();
    let (serial, serial_cost) = traced_run(QueryEngine::new(8), &q, &rels);
    for threads in [1usize, 2, 4] {
        let (threaded, cost) = traced_run(QueryEngine::new(8).threads(threads), &q, &rels);
        // TraceEvent/ComputeSpan equality deliberately ignores wall-clock
        // fields, so whole-trace comparison is exact and deterministic.
        assert_eq!(cost, serial_cost, "{threads} threads");
        assert_eq!(threaded.events, serial.events, "{threads} threads");
        assert_eq!(threaded.compute, serial.compute, "{threads} threads");
        assert_eq!(threaded.phases, serial.phases, "{threads} threads");
        validate(&threaded.to_json(None, None, None)).expect("every backend's export validates");
    }
}

#[test]
fn a_tampered_trace_fails_validation_naming_the_cell() {
    let (q, rels) = funnel_instance();
    let (mut trace, _) = traced_run(QueryEngine::new(8), &q, &rels);
    // Bump one traffic cell without touching the received vector the
    // ledger was credited from.
    let (e, src, dst) = trace
        .events
        .iter()
        .enumerate()
        .find_map(|(e, ev)| {
            let src = ev
                .traffic
                .iter()
                .position(|row| row.iter().any(|&u| u > 0))?;
            let dst = ev.traffic[src].iter().position(|&u| u > 0)?;
            Some((e, src, dst))
        })
        .expect("a real run moves tuples");
    trace.events[e].traffic[src][dst] += 1;
    let err = validate(&trace.to_json(None, None, None)).expect_err("the column no longer re-sums");
    assert!(
        err.contains(&format!("event {e}: traffic column {dst} sums to")),
        "{err}"
    );
}

#[test]
fn tracing_is_invisible_in_the_cost_report() {
    let (q, rels) = funnel_instance();
    let plain = QueryEngine::new(8).run(&q, &rels).unwrap();
    assert!(plain.trace.is_none(), "tracing is off by default");
    let traced = QueryEngine::new(8).trace(true).run(&q, &rels).unwrap();
    assert_eq!(
        plain.cost, traced.cost,
        "tracing must not perturb the ledger"
    );
    assert!(plain.output.semantically_eq(&traced.output));
}

#[test]
fn star_query_trace_labels_its_primitives() {
    let (a, b, c, d) = (Attr(0), Attr(1), Attr(2), Attr(3));
    let q = TreeQuery::new(
        vec![Edge::binary(a, d), Edge::binary(b, d), Edge::binary(c, d)],
        [a, b, c],
    );
    let rels = vec![
        Relation::<Count>::binary_ones(a, d, (0..24u64).map(|i| (i % 6, i % 3))),
        Relation::<Count>::binary_ones(b, d, (0..24u64).map(|i| (i % 5, i % 3))),
        Relation::<Count>::binary_ones(c, d, (0..24u64).map(|i| (i % 4, i % 3))),
    ];
    let result = QueryEngine::new(4).trace(true).run(&q, &rels).unwrap();
    assert_eq!(result.plan, PlanKind::Star);
    let trace = result.trace.unwrap();
    let report = trace.report();
    let labels: Vec<&str> = report.per_label.iter().map(|b| b.label.as_str()).collect();
    assert!(
        labels.iter().any(|l| l.contains("semijoin")),
        "dangling removal runs semijoins, got {labels:?}"
    );
    assert!(
        report
            .per_phase
            .iter()
            .any(|b| b.label.starts_with("star:")),
        "star algorithm marks its phases"
    );
}
