//! End-to-end serving-layer guarantees, driven through the scheduler and
//! executor exactly as `mpcjoin-serve` drives them (the TCP framing on
//! top is exercised by the CI `serve` job with the real binaries).
//!
//! Pinned here:
//! * ≥32 concurrent sessions with zero lost and zero duplicated
//!   responses (the ISSUE's admission-control acceptance bar);
//! * cache hits are byte-identical to cold runs AND the cold run itself
//!   matches the sequential oracle — so a hit is oracle-correct by
//!   transitivity;
//! * backpressure shows up as structured, retryable protocol errors;
//! * drain completes every admitted query before acknowledging.

use mpcjoin::mpc::json::Json;
use mpcjoin::prelude::*;
use mpcjoin_server::wire::{parse_frame, Frame, ResponseView};
use mpcjoin_server::{Executor, Obs, RequestCtx, Scheduler, ServerConfig};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};

fn query_request(id: u64, session: &str) -> mpcjoin_server::wire::QueryRequest {
    let line = format!(
        "{{\"type\":\"query\",\"id\":{id},\"session\":\"{session}\",\
         \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\"servers\":4,\
         \"relations\":{{\"R\":[[{id},10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}}}"
    );
    match parse_frame(&line).expect("frame parses") {
        Frame::Query(req) => *req,
        other => panic!("expected query frame, got {other:?}"),
    }
}

#[test]
fn thirty_two_concurrent_sessions_lose_and_duplicate_nothing() {
    const SESSIONS: u64 = 32;
    const PER_SESSION: u64 = 4;
    let sched = Scheduler::new(ServerConfig {
        workers: 4,
        queue_cap: 1024,
        session_quota: 64,
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let sched = &sched;
            let tx = tx.clone();
            scope.spawn(move || {
                for i in 0..PER_SESSION {
                    let id = s * 1000 + i;
                    let tx = tx.clone();
                    sched.submit(id + 1, query_request(id, &format!("s{s}")), move |frame| {
                        tx.send(frame).expect("collector alive");
                    });
                }
            });
        }
    });
    drop(tx);
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for frame in rx.iter() {
        let view = ResponseView::parse(&frame).expect("parseable response");
        assert_eq!(view.kind, "result", "{:?} {:?}", view.code, view.detail);
        *seen.entry(view.id.expect("id echoed")).or_insert(0) += 1;
    }
    assert_eq!(
        seen.len() as u64,
        SESSIONS * PER_SESSION,
        "every query answered (none lost)"
    );
    assert!(
        seen.values().all(|&n| n == 1),
        "no duplicated responses: {seen:?}"
    );
    assert_eq!(sched.shutdown(), SESSIONS * PER_SESSION);
}

#[test]
fn cache_hits_are_oracle_correct_by_transitivity() {
    // Step 1: the cold body's rows must equal the sequential oracle's
    // canonical output. Step 2: the hit must be byte-identical to the
    // cold body. Together: a cache hit is oracle-checked.
    let ex = Executor::new(64, 1, 8, None, Arc::new(Obs::new()));
    let req = query_request(1, "t");
    let cold = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
    assert!(!cold.cached);

    let (a, b, c) = (Attr(0), Attr(1), Attr(2));
    let q = TreeQuery::new(vec![Edge::binary(a, b), Edge::binary(b, c)], [a, c]);
    let rels: Vec<Relation<Count>> = vec![
        Relation::binary_ones(a, b, [(1, 10), (1, 11), (2, 10)]),
        Relation::binary_ones(b, c, [(10, 7), (11, 7)]),
    ];
    let oracle = mpcjoin::execute_sequential(&q, &rels).canonical();

    let body = Json::parse(cold.result.as_deref().unwrap()).unwrap();
    let rows = body.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), oracle.len());
    for ((row, annot), got) in oracle.iter().zip(rows) {
        let got_row: Vec<u64> = got.as_arr().unwrap()[0]
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(&got_row, row, "row values match the oracle");
        assert_eq!(
            got.as_arr().unwrap()[1].as_str().unwrap(),
            format!("{annot:?}"),
            "annotations match the oracle"
        );
    }

    let hit = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
    assert!(hit.cached);
    assert_eq!(hit.result, cold.result, "hit bytes == cold bytes");
}

#[test]
fn backpressure_is_always_a_structured_answer() {
    // Zero workers would deadlock; instead use 1 worker + tiny queue and
    // slow jobs so most of a synchronous burst is rejected.
    let sched = Scheduler::new(ServerConfig {
        workers: 1,
        queue_cap: 1,
        session_quota: 1000,
        cache_cap: 0,
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel::<String>();
    for id in 0..12 {
        let mut req = query_request(id, "burst");
        req.delay_ms = 20;
        let tx = tx.clone();
        sched.submit(id + 1, req, move |f| tx.send(f).expect("collector alive"));
    }
    drop(tx);
    let mut results = 0u32;
    let mut rejections = 0u32;
    for frame in rx.iter() {
        let view = ResponseView::parse(&frame).unwrap();
        match view.kind.as_str() {
            "result" => results += 1,
            "error" => {
                assert_eq!(view.code.as_deref(), Some("overloaded"));
                assert!(
                    view.retry_after_ms.is_some(),
                    "rejections carry a retry hint"
                );
                assert!(view.id.is_some(), "rejections echo the request id");
                rejections += 1;
            }
            other => panic!("unexpected frame type `{other}`"),
        }
    }
    assert_eq!(results + rejections, 12, "every submission answered");
    assert!(rejections > 0, "the burst must overflow queue_cap=1");
    sched.shutdown();
}

#[test]
fn drain_answers_everything_before_acking() {
    let sched = Scheduler::new(ServerConfig {
        workers: 2,
        queue_cap: 64,
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel::<String>();
    for id in 0..8 {
        let mut req = query_request(id, "d");
        req.delay_ms = 10;
        let tx = tx.clone();
        sched.submit(id + 1, req, move |f| tx.send(f).expect("collector alive"));
    }
    let completed = sched.drain();
    assert_eq!(completed, 8);
    drop(tx);
    // All 8 responses must already be in the channel — drain returns only
    // after delivery, which is what lets the server ack and exit safely.
    assert_eq!(rx.iter().count(), 8);
    sched.shutdown();
}

/// A query whose digest is shared by every session (id and session are
/// not part of the cache digest), so repeats hit the result cache.
fn shared_request(id: u64, session: &str) -> mpcjoin_server::wire::QueryRequest {
    let line = format!(
        "{{\"type\":\"query\",\"id\":{id},\"session\":\"{session}\",\
         \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\"servers\":4,\
         \"relations\":{{\"R\":[[3,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}}}"
    );
    match parse_frame(&line).expect("frame parses") {
        Frame::Query(req) => *req,
        other => panic!("expected query frame, got {other:?}"),
    }
}

fn num(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("stats doc missing `{}`", path.join(".")));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("`{}` is not an integer", path.join(".")))
}

/// The tentpole's exactness bar: under 32 concurrent sessions mixing
/// cache hits, faulted runs, executor errors, and admission rejections,
/// every submission is answered exactly once and the observability
/// plane's counters — scheduler stats, obs counters, cache gauges, and
/// the watchdog — all reconcile exactly with the frames the clients saw.
#[test]
fn counters_are_exact_under_concurrent_mixed_load() {
    const SESSIONS: u64 = 32;
    let sched = Scheduler::new(ServerConfig {
        workers: 4,
        queue_cap: 8,
        session_quota: 4,
        cache_cap: 64,
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel::<String>();

    // Prime the cache deterministically: an empty queue must admit, so
    // this shared query runs cold exactly once before the storm.
    {
        let tx = tx.clone();
        sched.submit(1, shared_request(1, "prime"), move |f| {
            tx.send(f).expect("collector alive")
        });
    }
    let prime = ResponseView::parse(&rx.recv().expect("prime response")).unwrap();
    assert_eq!(prime.kind, "result", "{:?}", prime.detail);
    assert!(!prime.cached);

    // The storm: per session a shared query (hit), a unique query
    // (miss), a faulted twin (bypasses the cache, recovers), and a
    // malformed query (executor error). queue_cap=8 against 128 rapid
    // submissions guarantees some overload rejections.
    let mut fault_ids = std::collections::HashSet::new();
    let mut error_ids = std::collections::HashSet::new();
    for s in 0..SESSIONS {
        fault_ids.insert(1000 + s * 10 + 2);
        error_ids.insert(1000 + s * 10 + 3);
    }
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let sched = &sched;
            let tx = tx.clone();
            scope.spawn(move || {
                let session = format!("s{s}");
                for i in 0..4u64 {
                    let id = 1000 + s * 10 + i;
                    let mut req = match i {
                        0 => shared_request(id, &session),
                        1 => query_request(id, &session),
                        2 => {
                            let mut r = shared_request(id, &session);
                            r.fault_plan = Some(FaultPlan::new(11).retries(10).reorder(1));
                            r
                        }
                        _ => {
                            let mut r = shared_request(id, &session);
                            r.relations.pop(); // missing relation ⇒ bad_request
                            r
                        }
                    };
                    req.delay_ms = 5; // back the queue up so overload is certain
                    let tx = tx.clone();
                    sched.submit(id, req, move |f| tx.send(f).expect("collector alive"));
                }
            });
        }
    });
    let storm_frames: Vec<String> = (0..SESSIONS * 4)
        .map(|_| rx.recv().expect("storm response"))
        .collect();

    // Deterministic quota rejections: the storm has fully drained (every
    // response above was delivered after its counters moved), so four
    // slow jobs from a fresh session are admitted and two more bounce.
    for i in 0..6u64 {
        let mut req = shared_request(5000 + i, "burst");
        req.fault_plan = Some(FaultPlan::new(11).retries(10).reorder(1)); // dodge the cache
        req.delay_ms = 100;
        let tx = tx.clone();
        sched.submit(5000 + i, req, move |f| tx.send(f).expect("collector alive"));
    }
    let burst_frames: Vec<String> = (0..6).map(|_| rx.recv().expect("burst response")).collect();

    // Deterministic cache hit: the primed entry is still warm.
    {
        let tx = tx.clone();
        sched.submit(6000, shared_request(6000, "late"), move |f| {
            tx.send(f).expect("collector alive")
        });
    }
    let late = ResponseView::parse(&rx.recv().expect("late response")).unwrap();
    assert!(late.cached, "primed shared query must hit the cache");
    drop(tx);

    // Tally every frame exactly as a client would.
    let mut seen: HashMap<u64, u32> = HashMap::new();
    let mut results = 0u64;
    let mut cached = 0u64;
    let mut errors: HashMap<String, u64> = HashMap::new();
    let mut frames: Vec<String> = storm_frames;
    frames.extend(burst_frames);
    for frame in &frames {
        let view = ResponseView::parse(frame).expect("parseable response");
        let id = view.id.expect("id echoed");
        *seen.entry(id).or_insert(0) += 1;
        match view.kind.as_str() {
            "result" => {
                results += 1;
                if view.cached {
                    cached += 1;
                }
                if fault_ids.contains(&id) || id >= 5000 {
                    assert!(!view.cached, "faulted requests bypass the cache");
                    assert!(view.recovered, "faulted requests recover");
                }
                assert!(!error_ids.contains(&id), "malformed queries cannot succeed");
            }
            "error" => {
                let code = view.code.expect("errors carry a code");
                if code == "bad_request" {
                    assert!(error_ids.contains(&id), "only the malformed queries 400");
                } else {
                    assert!(
                        code == "overloaded" || code == "quota_exceeded",
                        "unexpected error code `{code}`"
                    );
                }
                *errors.entry(code).or_insert(0) += 1;
            }
            other => panic!("unexpected frame type `{other}`"),
        }
    }
    assert_eq!(
        frames.len() as u64,
        SESSIONS * 4 + 6,
        "every submission answered"
    );
    assert!(seen.values().all(|&n| n == 1), "no duplicated responses");

    let total_submitted = SESSIONS * 4 + 6 + 2; // storm + burst + prime + late
    let overloaded = errors.get("overloaded").copied().unwrap_or(0);
    let quota = errors.get("quota_exceeded").copied().unwrap_or(0);
    let bad = errors.get("bad_request").copied().unwrap_or(0);
    assert!(overloaded >= 1, "queue_cap=8 must overflow under the storm");
    assert_eq!(quota, 2, "burst jobs 5 and 6 exceed session_quota=4");

    sched.drain();
    let stats = sched.stats();
    assert_eq!(stats.rejected_overload, overloaded);
    assert_eq!(stats.rejected_quota, quota);
    assert_eq!(
        stats.admitted + stats.rejected_overload + stats.rejected_quota,
        total_submitted,
        "admission is a partition: admitted + rejected == submitted"
    );
    assert_eq!(
        stats.completed, stats.admitted,
        "every admitted job completed"
    );
    // `results`/`cached`/`bad` exclude the prime and late frames parsed
    // separately above: prime is a cold result, late a cached one.
    assert_eq!(stats.completed, results + bad + 2);

    // The obs plane's own ledger reconciles with the client-side view.
    let doc = sched.stats_doc();
    assert_eq!(num(&doc, &["sched", "completed"]), stats.completed);
    assert_eq!(num(&doc, &["counters", "error.overloaded"]), overloaded);
    assert_eq!(num(&doc, &["counters", "error.quota_exceeded"]), quota);
    assert_eq!(num(&doc, &["counters", "error.bad_request"]), bad);
    assert_eq!(num(&doc, &["counters", "semiring.count"]), stats.admitted);
    // Concurrent identical digests may be served by the in-flight
    // coalescer instead of the cache proper; clients can't tell the two
    // apart (both frames say `cached`), so the reconciliation is over
    // the sum. Absent counter ⇒ zero coalesced.
    let coalesced = doc
        .get("counters")
        .and_then(|c| c.get("coalesce.hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert_eq!(
        num(&doc, &["cache", "hits"]) + coalesced,
        cached + 1, // + the late hit
        "cache.hits + coalesce.hits accounts for every cached frame"
    );
    assert_eq!(
        num(&doc, &["watchdog", "audited"]),
        results - cached + 1, // cold successes, + the prime run
        "every cold success fed the watchdog exactly once"
    );
    assert_eq!(num(&doc, &["queue_depth"]), 0);
    assert_eq!(num(&doc, &["in_flight"]), 0);
    sched.shutdown();
}

/// The incremental plane end to end, as a session drives it: register a
/// base query, stream an update, and re-query the patched instance. The
/// re-query must be a *revalidated* cache hit — served from cache, with
/// a body byte-identical to the one the update frame spliced in.
#[test]
fn registered_views_revalidate_the_cache_byte_identically() {
    let ex = Executor::new(64, 1, 8, None, Arc::new(Obs::new()));

    let register_line = "{\"type\":\"query\",\"id\":1,\"session\":\"t\",\"register\":true,\
         \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\"servers\":4,\
         \"relations\":{\"R\":[[1,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}";
    let Frame::Query(req) = parse_frame(register_line).expect("register frame parses") else {
        panic!("expected query frame");
    };
    let cold = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
    assert_eq!(cold.kind, "result", "{:?}", cold.detail);

    let update_line = "{\"type\":\"update\",\"id\":2,\"session\":\"t\",\
         \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\"servers\":4,\
         \"inserts\":{\"R\":[[9,10]]},\"deletes\":{\"S\":[[11,7]]}}";
    let Frame::Update(upd) = parse_frame(update_line).expect("update frame parses") else {
        panic!("expected update frame");
    };
    let patched = ResponseView::parse(&ex.update(&upd, &RequestCtx::default())).unwrap();
    assert_eq!(patched.kind, "update", "{:?}", patched.detail);
    let delta = Json::parse(patched.delta.as_deref().expect("delta document attached"))
        .expect("delta document is JSON");
    assert_eq!(
        delta.get("schema").and_then(Json::as_str),
        Some("mpcjoin-delta-v1")
    );

    // The same query over the client-side-mirrored instance (inserts
    // appended, the deleted row removed) is answered from cache with
    // exactly the bytes the update frame carried.
    let requery_line = "{\"type\":\"query\",\"id\":3,\"session\":\"t\",\
         \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\"servers\":4,\
         \"relations\":{\"R\":[[1,10],[1,11],[2,10],[9,10]],\"S\":[[10,7]]}}";
    let Frame::Query(requery) = parse_frame(requery_line).expect("re-query frame parses") else {
        panic!("expected query frame");
    };
    let hit = ResponseView::parse(&ex.execute(&requery, &RequestCtx::default())).unwrap();
    assert_eq!(hit.kind, "result", "{:?}", hit.detail);
    assert!(hit.cached, "re-query after update must hit the cache");
    assert_eq!(
        hit.result, patched.result,
        "revalidated body bytes == update frame body bytes"
    );
}

/// The invisibility invariant, pinned: running with the structured log
/// and span plane enabled must leave every response byte — result rows,
/// cost ledger, audit verdict — identical to a plain executor, across
/// thread counts, for cold runs, cache hits, and recovered faulted runs.
#[test]
fn observability_plane_is_invisible_to_results_and_ledger() {
    let log_path = std::env::temp_dir().join(format!(
        "mpcjoin_obs_invisible_{}.jsonl",
        std::process::id()
    ));
    for threads in [1usize, 3] {
        let plain = Executor::new(64, threads, 8, None, Arc::new(Obs::new()));
        let observed = Executor::new(
            64,
            threads,
            8,
            None,
            Arc::new(Obs::with_log(&log_path).expect("log file opens")),
        );
        let mut faulted = query_request(7, "t");
        faulted.fault_plan = Some(FaultPlan::new(11).retries(10).reorder(1));
        let requests = [
            query_request(7, "t"),
            shared_request(8, "t"),
            faulted,
            query_request(7, "t"), // repeat ⇒ cache hit on both sides
        ];
        for (i, req) in requests.iter().enumerate() {
            let a = ResponseView::parse(&plain.execute(req, &RequestCtx::default())).unwrap();
            // Arbitrary rid and queue span: observation inputs must not
            // leak into the response.
            let b = ResponseView::parse(&observed.execute(
                req,
                &RequestCtx {
                    rid: 40 + i as u64,
                    queue_ns: 12_345,
                    ..RequestCtx::default()
                },
            ))
            .unwrap();
            assert_eq!(a.kind, "result", "{:?}", a.detail);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.cached, b.cached, "request {i}: cache behaviour identical");
            assert_eq!(
                a.result, b.result,
                "request {i} (threads={threads}): body bytes differ with observability on"
            );
            assert_eq!(a.load, b.load, "frame-level ledger identical");
        }
    }
    // And the plane really was on: the log is a valid mpcjoin-log-v1
    // stream with one completion per request.
    let text = std::fs::read_to_string(&log_path).expect("log written");
    let summary = mpcjoin_server::obs::check_log(&text).expect("log validates");
    assert_eq!(summary.completes_query, 4);
    assert_eq!(summary.completes_cached, 1);
    std::fs::remove_file(&log_path).ok();
}

/// Run one frame line through an executor the way the connection loop
/// does (queries, explains and updates each reach their entry point).
fn answer(ex: &Executor, line: &str) -> ResponseView {
    let ctx = RequestCtx::default();
    let frame = match parse_frame(line).expect("frame parses") {
        Frame::Query(req) => ex.execute(&req, &ctx),
        Frame::Explain(req) => ex.explain(&req, &ctx),
        Frame::Update(req) => ex.update(&req, &ctx),
        other => panic!("not an executor frame: {other:?}"),
    };
    ResponseView::parse(&frame).expect("parseable response")
}

/// Reports which semiring type a wire name dispatched to.
struct TypeName;

impl mpcjoin::SemiringVisitor for TypeName {
    type Out = &'static str;

    fn visit<S: Semiring>(self, _weight: fn(Option<i64>) -> S) -> Self::Out {
        std::any::type_name::<S>()
    }
}

/// The table is the vocabulary: every name `mpcjoin::SEMIRING_NAMES`
/// lists (the loop iterates the table, not a hand-written list) drives
/// register → insert-only update → re-query through an executor, and the
/// re-query is a cached hit byte-identical to the update's body and to a
/// fresh executor's cold run. A name outside the table is the same
/// `bad_request` on every frame kind.
#[test]
fn every_wire_semiring_updates_and_requeries_byte_identically() {
    let frame = |kind: &str, id: u64, semiring: &str, members: &str| {
        format!(
            "{{\"type\":\"{kind}\",\"id\":{id},\"session\":\"t\",\"semiring\":\"{semiring}\",\
             \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\"servers\":4,{members}}}"
        )
    };
    const BASE: &str = "\"relations\":{\"R\":[[1,10,5],[1,11,2],[2,10,3]],\
                        \"S\":[[10,7,1],[11,7,9]]}";
    const INSERTS: &str = "\"inserts\":{\"R\":[[9,10,4]],\"S\":[[10,8,2]]}";
    const UPDATED: &str = "\"relations\":{\"R\":[[1,10,5],[1,11,2],[2,10,3],[9,10,4]],\
                           \"S\":[[10,7,1],[11,7,9],[10,8,2]]}";
    let executor = || Executor::new(64, 1, 8, None, Arc::new(Obs::new()));

    let mut dispatched = std::collections::HashSet::new();
    for name in mpcjoin::SEMIRING_NAMES {
        let ty = mpcjoin::with_semiring(name, TypeName).expect("table names dispatch");
        assert!(
            dispatched.insert(ty),
            "`{name}` shares `{ty}` with another name"
        );

        let ex = executor();
        let registered = answer(
            &ex,
            &frame("query", 1, name, &format!("\"register\":true,{BASE}")),
        );
        assert_eq!(registered.kind, "result", "{name}: {:?}", registered.detail);
        assert!(!registered.cached);

        let updated = answer(&ex, &frame("update", 2, name, INSERTS));
        assert_eq!(updated.kind, "update", "{name}: {:?}", updated.detail);
        assert_ne!(
            updated.result, registered.result,
            "{name}: the inserts matter"
        );

        let requery = frame("query", 3, name, UPDATED);
        let hit = answer(&ex, &requery);
        assert!(hit.cached, "{name}: the update revalidated the cache");
        assert_eq!(hit.result, updated.result, "{name}: hit == update body");
        let cold = answer(&executor(), &requery);
        assert!(!cold.cached);
        assert_eq!(hit.result, cold.result, "{name}: hit == fresh cold run");
    }

    let expected = mpcjoin::with_semiring("tropical", TypeName).expect_err("not in the table");
    for name in mpcjoin::SEMIRING_NAMES {
        assert!(expected.contains(name), "{expected} lists `{name}`");
    }
    let ex = executor();
    for (kind, members) in [("query", BASE), ("explain", BASE), ("update", INSERTS)] {
        let view = answer(&ex, &frame(kind, 9, "tropical", members));
        assert_eq!(view.kind, "error", "{kind}");
        assert_eq!(view.code.as_deref(), Some("bad_request"), "{kind}");
        assert_eq!(view.id, Some(9), "{kind}");
        assert_eq!(view.detail.as_deref(), Some(expected.as_str()), "{kind}");
    }
}
