//! Observability-plane integration: a golden snapshot of the
//! `mpcjoin-serverstats-v1` schema, the operational-log round-trip
//! (write → validate → cross-check), the text exposition, and the
//! request-id echo on response frames.
//!
//! The schema snapshot pins the *shape* of the stats payload — every
//! member path and leaf type, with volatile values erased — so adding,
//! renaming, or removing a field shows up in review as a readable diff
//! of `results/SERVERSTATS_schema.txt` (regenerate with
//! `MPCJOIN_BLESS=1`).

use mpcjoin::mpc::json::Json;
use mpcjoin_server::obs::{check_log, cross_check, StatsView};
use mpcjoin_server::wire::{parse_frame, stamp_rid, Frame, ResponseView};
use mpcjoin_server::{Scheduler, ServerConfig};
use std::path::PathBuf;
use std::sync::mpsc;

fn query_request(id: u64, session: &str) -> mpcjoin_server::wire::QueryRequest {
    let line = format!(
        "{{\"type\":\"query\",\"id\":{id},\"session\":\"{session}\",\
         \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\"servers\":4,\
         \"relations\":{{\"R\":[[1,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}}}"
    );
    match parse_frame(&line).expect("frame parses") {
        Frame::Query(req) => *req,
        other => panic!("expected query frame, got {other:?}"),
    }
}

/// Submit one request and block for its single response frame.
fn submit_and_wait(sched: &Scheduler, rid: u64, req: mpcjoin_server::wire::QueryRequest) -> String {
    let (tx, rx) = mpsc::channel::<String>();
    sched.submit(rid, req, move |f| tx.send(f).expect("collector alive"));
    rx.recv().expect("exactly one response")
}

/// Run the fixed mini-workload every test here shares: a cold query, a
/// cache hit, and an executor error (missing relation).
fn mini_workload(sched: &Scheduler) {
    let cold = ResponseView::parse(&submit_and_wait(sched, 1, query_request(1, "w"))).unwrap();
    assert_eq!(cold.kind, "result", "{:?}", cold.detail);
    let hit = ResponseView::parse(&submit_and_wait(sched, 2, query_request(2, "w"))).unwrap();
    assert!(hit.cached);
    let mut bad = query_request(3, "w");
    bad.relations.pop();
    let err = ResponseView::parse(&submit_and_wait(sched, 3, bad)).unwrap();
    assert_eq!(err.code.as_deref(), Some("bad_request"));
}

/// Flatten a JSON document into sorted `path: type` lines. Object keys
/// are kept (they are part of the schema — counter names, phase names,
/// plan kinds for the fixed workload are all deterministic); values are
/// erased to their type; arrays descend into their first element only,
/// so histogram bucket counts don't leak in.
fn schema_lines(doc: &Json, path: &str, out: &mut Vec<String>) {
    match doc {
        Json::Obj(members) => {
            for (k, v) in members {
                schema_lines(v, &format!("{path}.{k}"), out);
            }
        }
        Json::Arr(items) => match items.first() {
            None => out.push(format!("{path}[]: (empty)")),
            Some(first) => schema_lines(first, &format!("{path}[]"), out),
        },
        Json::Num(_) => out.push(format!("{path}: num")),
        Json::Str(_) => out.push(format!("{path}: str")),
        Json::Bool(_) => out.push(format!("{path}: bool")),
        Json::Null => out.push(format!("{path}: null")),
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpcjoin_obs_{}_{name}", std::process::id()))
}

#[test]
fn golden_serverstats_schema() {
    let sched = Scheduler::new(ServerConfig::default());
    mini_workload(&sched);
    sched.drain();
    let doc = sched.stats_doc();
    sched.shutdown();

    let mut lines = Vec::new();
    schema_lines(&doc, "", &mut lines);
    lines.sort();
    let fresh = lines.join("\n") + "\n";

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("results")
        .join("SERVERSTATS_schema.txt");
    if std::env::var_os("MPCJOIN_BLESS").is_some() {
        std::fs::write(&path, &fresh).expect("write snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with MPCJOIN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        fresh, committed,
        "mpcjoin-serverstats-v1 shape drifted from the committed snapshot; \
         regenerate with MPCJOIN_BLESS=1 if intentional"
    );
}

#[test]
fn operational_log_round_trips_and_cross_checks() {
    let log_path = tmp("roundtrip.jsonl");
    let dump_path = tmp("roundtrip_dump.txt");
    let sched = Scheduler::new(ServerConfig {
        log_file: Some(log_path.clone()),
        obs_dump: Some(dump_path.clone()),
        ..ServerConfig::default()
    });
    mini_workload(&sched);
    sched.drain();
    let doc = sched.stats_doc().to_string_sanitized();
    sched.shutdown();

    // The log validates and its event counts match the workload.
    let text = std::fs::read_to_string(&log_path).expect("log written");
    let summary = check_log(&text).expect("log validates");
    assert_eq!(summary.completes_query, 3);
    assert_eq!(summary.completes_cached, 1);
    assert_eq!(summary.completes_error, 1);

    // The same reconciliation `mpcjoin-check obs` runs in CI holds in-process.
    let stats = StatsView::parse(&doc).expect("stats payload parses");
    let notes = cross_check(&summary, Some(&stats), None).expect("log and stats reconcile");
    assert!(!notes.is_empty());

    // drain() flushed the text exposition, and it is scrape-friendly:
    // every line is `# comment` or `name{...} value`.
    let dump = std::fs::read_to_string(&dump_path).expect("obs dump written");
    assert!(dump.starts_with("# mpcjoin-serverstats-v1"));
    assert!(dump.contains("mpcjoin_queue_depth 0"));
    assert!(dump.contains("mpcjoin_sched{counter=\"completed\"} 3"));
    // Only successful runs record spans, so the error is not in here.
    assert!(dump.contains("mpcjoin_latency_ns{phase=\"total\",stat=\"count\"} 2"));
    for line in dump.lines() {
        assert!(
            line.starts_with('#')
                || line.split_once(' ').is_some_and(
                    |(name, v)| name.starts_with("mpcjoin_") && v.parse::<f64>().is_ok()
                ),
            "unscrapable exposition line: {line}"
        );
    }
    std::fs::remove_file(&log_path).ok();
    std::fs::remove_file(&dump_path).ok();
}

#[test]
fn responses_echo_the_server_request_id() {
    let sched = Scheduler::new(ServerConfig::default());
    // The wire layer stamps every outgoing frame with the rid it
    // allocated; the body must be untouched by the stamp.
    let frame = submit_and_wait(&sched, 77, query_request(5, "rid"));
    let plain = ResponseView::parse(&frame).unwrap();
    assert_eq!(plain.rid, None, "executor frames carry no rid yet");
    let stamped = stamp_rid(&frame, 77);
    let view = ResponseView::parse(&stamped).unwrap();
    assert_eq!(view.rid, Some(77), "rid echoed on the stamped frame");
    assert_eq!(view.id, plain.id);
    assert_eq!(view.result, plain.result, "stamping never alters the body");
    sched.shutdown();
}
