//! `loadgen` — drive a running `mpcjoin-serve` with a mixed workload and
//! verify the serving invariants end to end.
//!
//! ```text
//! loadgen --addr HOST:PORT [--sessions N] [--queries K] [--seed S]
//!         [--servers P] [--updates U] [--artifact FILE]
//!         [--fault-plan FILE] [--stats-out FILE] [--wait-ready]
//!         [--shutdown] [--chaos]
//! ```
//!
//! The flags compose in sequence: `--wait-ready` polls (ping → pong,
//! 30 s budget) before the run, then the workload runs, then
//! `--shutdown` sends a graceful drain + ack after it. `--sessions 0`
//! skips the workload, so `loadgen --addr X --sessions 0 --shutdown`
//! is a standalone drain and `--sessions 0 --wait-ready` a standalone
//! readiness probe.
//!
//! The default mode opens one TCP connection per session (default 32)
//! and replays, per session, `K` seed-generated queries from each
//! workload class — matrix multiplication (`count`), a 3-hop line query
//! (`minplus`), and a 3-arm star query (`bool`) — then re-sends the
//! session's first matrix query verbatim, asserting the response is a
//! cache hit whose `result` member is byte-identical to the cold
//! response. With `--fault-plan FILE`, session 0 additionally re-sends
//! its first matrix query with the fault schedule embedded, asserting
//! the recovered output is byte-identical to the clean twin and that a
//! recovery report rode the frame (recorded as workload `fault`).
//!
//! `--updates U` arms the incremental-plane workload: each session sends
//! its first matrix query with `"register":true` (materializing a
//! server-side view), then streams `U` seeded `update` frames — inserts
//! plus exact-row deletes — while mirroring the row-list edits
//! client-side. Every update must answer with a delta report and a
//! result body (workload `update`; `load_sum` is the deterministic
//! revalidation ledger). Afterwards the session re-sends the query over
//! the *mirrored* final row list (workload `reval`) and asserts the
//! response is a revalidated cache hit byte-identical to the last
//! update frame's body — the splice path never re-serializes.
//!
//! Requests are serial per session (concurrency = sessions); a
//! backpressure rejection (`overloaded` / `quota_exceeded`) backs off
//! exponentially from the advertised `retry_after_ms` with seeded
//! jitter (`DetRng` keyed by the request id, so reruns sleep the same
//! schedule) and resends — retries are counted, never failures. The
//! run **fails** (nonzero exit) if any query goes unanswered or
//! double-answered, any cache-hit or fault-twin bit-identity check
//! fails, or — when at least one cache check ran — the server produced
//! zero cache hits.
//!
//! `--chaos` arms the hostile-network mode for driving traffic through
//! `chaosproxy`: connections use a short (3 s) read timeout, and a
//! send/recv failure, unparseable response, or response id mismatch
//! (a garbled or eaten frame) triggers a *connection-level* retry —
//! reconnect and resend the same frame, same id, under the same seeded
//! backoff, up to 50 attempts. Because every query id is unique and
//! resends reuse it, retries are idempotent from the client's view:
//! the invariants still checked under chaos are zero lost, zero
//! duplicated (per connection), and cache-hit bit-identity. The
//! server-counter cross-checks become one-sided (server ≥ client: the
//! proxy can eat a response the server already counted), and the
//! artifact is marked `chaos` so downstream checks do the same.
//!
//! After the workload the final `stats` frame is scraped and the
//! server's own counters are reconciled with the client-side tallies
//! (completions vs responses, rejections vs retries, cache hits) by
//! `mpcjoin_server::obs::reconcile_client` — the scheduler bumps its
//! counters *before* responding, so once the last response has been
//! read any drift is a lost or duplicated frame and the run fails.
//! `--stats-out FILE` saves the scraped frame for `mpcjoin-check obs`.
//!
//! `--artifact FILE` writes a `mpcjoin-bench-server-v1` ledger (see
//! `mpcjoin_bench::artifact`): per-class query counts and summed
//! simulated loads are deterministic (diffed by `mpcjoin-check bench`
//! against `results/BENCH_baseline_server.json`); retry and cache-hit
//! counts are recorded for `mpcjoin-check obs`. Latency and throughput
//! are not this tool's business: the repo benchmark (`benchmark/`)
//! measures them.

use mpcjoin::mpc::hash::seeded_hash;
use mpcjoin::mpc::json::Json;
use mpcjoin::mpc::DetRng;
use mpcjoin::prelude::*;
use mpcjoin_bench::{Artifact, ServerArtifact, ServerRecord};
use mpcjoin_server::obs::{reconcile_client, StatsView};
use mpcjoin_server::wire::{self, ResponseView, WIRE_SCHEMA};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const CLASSES: [&str; 3] = ["mm", "line", "star"];

/// Pseudo-class aggregate slots past [`CLASSES`]: the fault twin, the
/// `update` frames, and the post-update revalidation queries.
const FAULT_AGG: usize = CLASSES.len();
const UPDATE_AGG: usize = CLASSES.len() + 1;
const REVAL_AGG: usize = CLASSES.len() + 2;
const NUM_AGGS: usize = CLASSES.len() + 3;

struct Args {
    addr: String,
    sessions: usize,
    queries: usize,
    seed: u64,
    servers: usize,
    /// Update frames per session (`--updates`); 0 disables the
    /// register / stream / revalidate workload.
    updates: usize,
    artifact: Option<String>,
    fault_plan: Option<String>,
    stats_out: Option<String>,
    wait_ready: bool,
    shutdown: bool,
    chaos: bool,
    /// Control-plane address (stats scrape, shutdown). Defaults to
    /// `--addr`; point it at the real server when `--addr` goes
    /// through a fault-injecting proxy, so the final scrape and the
    /// drain cannot themselves be eaten.
    direct: Option<String>,
}

fn usage() -> &'static str {
    "usage: loadgen --addr HOST:PORT [--sessions N] [--queries K] [--seed S]\n\
     \x20      [--servers P] [--updates U] [--artifact FILE]\n\
     \x20      [--fault-plan FILE] [--stats-out FILE] [--wait-ready]\n\
     \x20      [--shutdown] [--chaos] [--direct HOST:PORT]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        sessions: 32,
        queries: 2,
        seed: 7,
        servers: 8,
        updates: 0,
        artifact: None,
        fault_plan: None,
        stats_out: None,
        wait_ready: false,
        shutdown: false,
        chaos: false,
        direct: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .parse()
                    .map_err(|_| "--sessions expects a positive integer".to_string())?
            }
            "--queries" => {
                args.queries = value("--queries")?
                    .parse()
                    .map_err(|_| "--queries expects a positive integer".to_string())?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--servers" => {
                args.servers = value("--servers")?
                    .parse()
                    .map_err(|_| "--servers expects a positive integer".to_string())?
            }
            "--updates" => {
                args.updates = value("--updates")?
                    .parse()
                    .map_err(|_| "--updates expects an integer".to_string())?
            }
            "--artifact" => args.artifact = Some(value("--artifact")?),
            "--fault-plan" => args.fault_plan = Some(value("--fault-plan")?),
            "--stats-out" => args.stats_out = Some(value("--stats-out")?),
            "--wait-ready" => args.wait_ready = true,
            "--shutdown" => args.shutdown = true,
            "--chaos" => args.chaos = true,
            "--direct" => args.direct = Some(value("--direct")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.addr.is_empty() {
        return Err(format!("--addr is required\n{}", usage()));
    }
    if args.queries == 0 {
        return Err("--queries must be at least 1".into());
    }
    Ok(args)
}

/// One connection with line-oriented request/response helpers.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        Conn::open_with_timeout(addr, Duration::from_secs(60))
    }

    /// Chaos mode shortens the read timeout so a stalled or half-open
    /// proxy hop turns into a retryable error instead of a long hang.
    fn open_with_timeout(addr: &str, read_timeout: Duration) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(read_timeout))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::new(read_half),
        })
    }

    /// One write per frame on a `TCP_NODELAY` socket, as the server
    /// replies (see `wire::write_frame`).
    fn send(&mut self, frame: &str) -> Result<(), String> {
        wire::write_frame(&mut self.writer, frame.to_string(), None)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed by server".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn recv(&mut self) -> Result<ResponseView, String> {
        let line = self.recv_line()?;
        ResponseView::parse(&line)
    }
}

/// A prepared query: the request frame minus id/session (filled per
/// send), plus everything needed to re-send it verbatim.
struct PreparedQuery {
    query: String,
    semiring: &'static str,
    /// `(name, rows)` with rows in the relation's entry order.
    relations: Vec<(String, Vec<Vec<u64>>)>,
}

impl PreparedQuery {
    fn frame(
        &self,
        id: u64,
        session: &str,
        servers: usize,
        fault_plan: Option<&Json>,
        register: bool,
    ) -> String {
        let rels: Vec<(String, Json)> = self
            .relations
            .iter()
            .map(|(name, rows)| {
                (
                    name.clone(),
                    Json::Arr(
                        rows.iter()
                            .map(|row| {
                                Json::Arr(row.iter().map(|&v| Json::Num(v as f64)).collect())
                            })
                            .collect(),
                    ),
                )
            })
            .collect();
        let mut members = vec![
            ("schema".into(), Json::Str(WIRE_SCHEMA.into())),
            ("type".into(), Json::Str("query".into())),
            ("id".into(), Json::Num(id as f64)),
            ("session".into(), Json::Str(session.into())),
            ("query".into(), Json::Str(self.query.clone())),
            ("semiring".into(), Json::Str(self.semiring.into())),
            ("servers".into(), Json::Num(servers as f64)),
            ("relations".into(), Json::Obj(rels)),
        ];
        if let Some(plan) = fault_plan {
            members.push(("fault_plan".into(), plan.clone()));
        }
        if register {
            members.push(("register".into(), Json::Bool(true)));
        }
        Json::Obj(members)
            .to_string_compact()
            .expect("request frames contain only finite numbers")
    }
}

fn rows_of(rel: &Relation<Count>) -> Vec<Vec<u64>> {
    rel.entries().iter().map(|(row, _)| row.clone()).collect()
}

/// Deterministically generate the `i`-th query of `class` for `session`.
fn prepare(class: &'static str, session: usize, i: usize, seed: u64) -> PreparedQuery {
    let mut rng = DetRng::seed_from_u64(seeded_hash(seed, &(class, session as u64, i as u64)));
    match class {
        "mm" => {
            let inst = mpcjoin::workload::matrix::uniform::<Count>(
                &mut rng,
                (Attr(0), Attr(1), Attr(2)),
                48,
                48,
                (12, 8, 12),
            );
            PreparedQuery {
                query: "Q(a, c) :- R0(a, b), R1(b, c)".into(),
                semiring: "count",
                relations: vec![
                    ("R0".into(), rows_of(&inst.r1)),
                    ("R1".into(), rows_of(&inst.r2)),
                ],
            }
        }
        "line" => {
            let inst = mpcjoin::workload::chain::uniform::<Count>(&mut rng, 3, 40, 10);
            PreparedQuery {
                query: "Q(x0, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3)".into(),
                semiring: "minplus",
                relations: inst
                    .rels
                    .iter()
                    .enumerate()
                    .map(|(h, r)| (format!("R{h}"), rows_of(r)))
                    .collect(),
            }
        }
        _ => {
            let inst = mpcjoin::workload::star::uniform::<Count>(&mut rng, 3, 30, 8, 6);
            PreparedQuery {
                query: "Q(a0, a1, a2) :- R0(a0, b), R1(a1, b), R2(a2, b)".into(),
                semiring: "bool",
                relations: inst
                    .rels
                    .iter()
                    .enumerate()
                    .map(|(k, r)| (format!("R{k}"), rows_of(r)))
                    .collect(),
            }
        }
    }
}

/// Per-(session, class) accumulator, summed into [`ServerRecord`]s.
#[derive(Default)]
struct Agg {
    sent: u64,
    responses: u64,
    lost: u64,
    duplicated: u64,
    retries: u64,
    conn_retries: u64,
    cache_hits: u64,
    load_sum: u64,
}

/// Ceiling on the per-connection chaos retries for one request.
const MAX_CONN_RETRIES: u32 = 50;

/// Exponential backoff with seeded jitter: attempt `n` (1-based)
/// sleeps `min(base · 2^(n−1), 250 ms)` plus up to `base` of jitter.
/// `rng` is keyed by the request id, so a rerun with the same seed
/// replays the same sleep schedule.
fn backoff(rng: &mut DetRng, base_ms: u64, attempt: u32) {
    let base = base_ms.clamp(1, 250);
    let exp = base
        .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(8))
        .min(250);
    let jitter = rng.next_u64() % base;
    std::thread::sleep(Duration::from_millis(exp + jitter));
}

/// One connection-level chaos retry: on a send/recv failure,
/// unparseable response, or id mismatch in chaos mode, back off,
/// reconnect, and let the caller resend the same frame. Resends reuse
/// the id, so a response the proxy ate is simply recomputed (or
/// served from cache / coalesced) without ever double-counting
/// client-side. Returns `false` (caller gives up) outside chaos mode
/// or past [`MAX_CONN_RETRIES`].
fn chaos_retry(
    args: &Args,
    rng: &mut DetRng,
    conn: &mut Conn,
    attempts: &mut u32,
    agg: &mut Agg,
) -> bool {
    if !args.chaos || *attempts >= MAX_CONN_RETRIES {
        return false;
    }
    *attempts += 1;
    agg.conn_retries += 1;
    backoff(rng, 25, *attempts);
    if let Ok(fresh) = Conn::open_with_timeout(&args.addr, Duration::from_secs(3)) {
        *conn = fresh;
    }
    true
}

/// Send one query, retrying through backpressure (and, under
/// `--chaos`, through connection-level faults: reconnect and resend
/// the same frame with the same id), and record the outcome. Returns
/// the response view of the final answer, or `None` when the query was
/// ultimately lost.
fn run_query(
    args: &Args,
    conn: &mut Conn,
    frame: &str,
    expected_id: u64,
    agg: &mut Agg,
    failures: &mut Vec<String>,
) -> Option<ResponseView> {
    agg.sent += 1;
    let mut rng = DetRng::seed_from_u64(seeded_hash(args.seed, &("retry", expected_id)));
    let mut conn_attempts = 0u32;
    let mut bp_attempts = 0u32;
    for _attempt in 0..10_000u32 {
        if let Err(e) = conn.send(frame) {
            if chaos_retry(args, &mut rng, conn, &mut conn_attempts, agg) {
                continue;
            }
            failures.push(e);
            agg.lost += 1;
            return None;
        }
        let view = match conn.recv() {
            Ok(v) => v,
            Err(e) => {
                if chaos_retry(args, &mut rng, conn, &mut conn_attempts, agg) {
                    continue;
                }
                failures.push(e);
                agg.lost += 1;
                return None;
            }
        };
        // Sessions are strictly serial request/response, so an id
        // mismatch means a duplicated or misdelivered frame — except
        // under chaos, where it is a garbled request (the server
        // answered `bad_frame` with a null or mangled id) and the
        // reconnect-and-resend path resynchronizes.
        if view.id != Some(expected_id) {
            if chaos_retry(args, &mut rng, conn, &mut conn_attempts, agg) {
                continue;
            }
            agg.duplicated += 1;
            failures.push(format!(
                "response id {:?} does not match request {expected_id}",
                view.id
            ));
            return None;
        }
        match view.code.as_deref() {
            Some("overloaded") | Some("quota_exceeded") => {
                agg.retries += 1;
                bp_attempts += 1;
                backoff(&mut rng, view.retry_after_ms.unwrap_or(25), bp_attempts);
                continue;
            }
            _ => {}
        }
        agg.responses += 1;
        if view.cached {
            agg.cache_hits += 1;
        }
        agg.load_sum += view.load.unwrap_or(0);
        return Some(view);
    }
    failures.push("gave up after 10000 backpressure retries".into());
    agg.lost += 1;
    None
}

struct SessionReport {
    /// Aggregates indexed like [`CLASSES`], plus the pseudo-classes
    /// (`fault`, `update`, `reval`) at the end.
    per_class: Vec<Agg>,
    failures: Vec<String>,
    /// Post-update re-queries verified as revalidated byte-identical
    /// cache hits.
    revalidations: u64,
}

/// Build one `update` frame with seeded inserts into both matrix
/// relations plus (when `delete` is set) one exact-row delete, mirroring
/// the edits into `rows` exactly as the server's row-list editor applies
/// them: all inserts append first, then each delete removes the first
/// identical row.
fn build_update(
    id: u64,
    session: &str,
    servers: usize,
    query: &str,
    rng: &mut DetRng,
    rows: &mut [(String, Vec<Vec<u64>>)],
    delete: bool,
) -> String {
    // Domains match `prepare("mm", ..)`: a,c ∈ [0,12), b ∈ [0,8).
    let ins0 = vec![rng.next_u64() % 12, rng.next_u64() % 8];
    let ins1 = vec![rng.next_u64() % 8, rng.next_u64() % 12];
    let deleted = if delete && !rows[0].1.is_empty() {
        let idx = (rng.next_u64() as usize) % rows[0].1.len();
        Some(rows[0].1[idx].clone())
    } else {
        None
    };
    let row_json = |row: &[u64]| Json::Arr(row.iter().map(|&v| Json::Num(v as f64)).collect());
    let inserts = Json::Obj(vec![
        (rows[0].0.clone(), Json::Arr(vec![row_json(&ins0)])),
        (rows[1].0.clone(), Json::Arr(vec![row_json(&ins1)])),
    ]);
    rows[0].1.push(ins0);
    rows[1].1.push(ins1);
    let mut members = vec![
        ("schema".into(), Json::Str(WIRE_SCHEMA.into())),
        ("type".into(), Json::Str("update".into())),
        ("id".into(), Json::Num(id as f64)),
        ("session".into(), Json::Str(session.into())),
        ("query".into(), Json::Str(query.into())),
        ("semiring".into(), Json::Str("count".into())),
        ("servers".into(), Json::Num(servers as f64)),
        ("inserts".into(), inserts),
    ];
    if let Some(row) = deleted {
        members.push((
            "deletes".into(),
            Json::Obj(vec![(rows[0].0.clone(), Json::Arr(vec![row_json(&row)]))]),
        ));
        let pos = rows[0]
            .1
            .iter()
            .position(|r| *r == row)
            .expect("delete target came from the mirror");
        rows[0].1.remove(pos);
    }
    Json::Obj(members)
        .to_string_compact()
        .expect("update frames contain only finite numbers")
}

fn run_session(args: &Args, session: usize, fault_plan: Option<&Json>) -> SessionReport {
    let mut per_class: Vec<Agg> = (0..NUM_AGGS).map(|_| Agg::default()).collect();
    let mut failures = Vec::new();
    let read_timeout = if args.chaos {
        Duration::from_secs(3)
    } else {
        Duration::from_secs(60)
    };
    let mut conn = match Conn::open_with_timeout(&args.addr, read_timeout) {
        Ok(c) => c,
        Err(e) => {
            failures.push(e);
            return SessionReport {
                per_class,
                failures,
                revalidations: 0,
            };
        }
    };
    let session_name = format!("s{session}");
    let mut next_id = (session as u64) * 1_000_000;
    let mut id = || {
        next_id += 1;
        next_id
    };
    // The session's first matrix query, kept for the repeat + fault twin.
    let mut first_mm: Option<(PreparedQuery, String)> = None;

    for (c, class) in CLASSES.iter().enumerate() {
        for i in 0..args.queries {
            let q = prepare(class, session, i, args.seed);
            let qid = id();
            // The first matrix query doubles as the view registration
            // when the update workload is armed.
            let register = args.updates > 0 && *class == "mm" && i == 0;
            let frame = q.frame(qid, &session_name, args.servers, None, register);
            let Some(view) = run_query(
                args,
                &mut conn,
                &frame,
                qid,
                &mut per_class[c],
                &mut failures,
            ) else {
                continue;
            };
            if view.kind != "result" {
                failures.push(format!(
                    "session {session} {class}#{i}: unexpected {} frame ({:?}: {:?})",
                    view.kind, view.code, view.detail
                ));
                continue;
            }
            if *class == "mm" && i == 0 {
                first_mm = Some((q, view.result.clone().unwrap_or_default()));
            }
        }
    }

    // Forced cache hit: re-send the first matrix query; the response must
    // be marked cached and its result member byte-identical to the cold
    // run's.
    if let Some((q, cold_body)) = &first_mm {
        let qid = id();
        let frame = q.frame(qid, &session_name, args.servers, None, false);
        if let Some(view) = run_query(
            args,
            &mut conn,
            &frame,
            qid,
            &mut per_class[0],
            &mut failures,
        ) {
            if !view.cached {
                failures.push(format!(
                    "session {session}: repeated query was not served from the cache"
                ));
            }
            if view.result.as_deref() != Some(cold_body.as_str()) {
                failures.push(format!(
                    "session {session}: cached response is not bit-identical to the cold run"
                ));
            }
        }
    }

    // Fault twin (session 0 only): same query with a fault schedule —
    // must bypass the cache, recover, and reproduce the clean bytes.
    if session == 0 {
        if let (Some(plan), Some((q, cold_body))) = (fault_plan, &first_mm) {
            let qid = id();
            let frame = q.frame(qid, &session_name, args.servers, Some(plan), false);
            if let Some(view) = run_query(
                args,
                &mut conn,
                &frame,
                qid,
                &mut per_class[FAULT_AGG],
                &mut failures,
            ) {
                if view.kind != "result" {
                    failures.push(format!(
                        "fault twin: unexpected {} frame ({:?}: {:?})",
                        view.kind, view.code, view.detail
                    ));
                } else {
                    if view.cached {
                        failures.push("fault twin: faulted request hit the cache".into());
                    }
                    if !view.recovered {
                        failures.push("fault twin: no recovery report on the frame".into());
                    }
                    if view.result.as_deref() != Some(cold_body.as_str()) {
                        failures
                            .push("fault twin: recovered output differs from clean twin".into());
                    }
                }
            }
        }
    }
    // Incremental plane: stream seeded updates against the registered
    // first-matrix view, mirroring the row-list edits client-side, then
    // re-query the final row list and demand a revalidated cache hit
    // byte-identical to the last update frame's body.
    let mut revalidations = 0u64;
    if args.updates > 0 {
        if let Some((q, cold_body)) = &first_mm {
            let mut rows = q.relations.clone();
            let mut last_body = Some(cold_body.clone());
            for u in 0..args.updates {
                let mut rng = DetRng::seed_from_u64(seeded_hash(
                    args.seed,
                    &("update", session as u64, u as u64),
                ));
                let qid = id();
                let frame = build_update(
                    qid,
                    &session_name,
                    args.servers,
                    &q.query,
                    &mut rng,
                    &mut rows,
                    u % 2 == 1,
                );
                let Some(view) = run_query(
                    args,
                    &mut conn,
                    &frame,
                    qid,
                    &mut per_class[UPDATE_AGG],
                    &mut failures,
                ) else {
                    last_body = None;
                    continue;
                };
                if view.kind != "update" {
                    failures.push(format!(
                        "session {session} update#{u}: unexpected {} frame ({:?}: {:?})",
                        view.kind, view.code, view.detail
                    ));
                    last_body = None;
                    continue;
                }
                if view.delta.is_none() {
                    failures.push(format!(
                        "session {session} update#{u}: no delta report on the frame"
                    ));
                }
                last_body = view.result.clone();
            }
            let updated = PreparedQuery {
                query: q.query.clone(),
                semiring: q.semiring,
                relations: rows,
            };
            let qid = id();
            let frame = updated.frame(qid, &session_name, args.servers, None, false);
            if let Some(view) = run_query(
                args,
                &mut conn,
                &frame,
                qid,
                &mut per_class[REVAL_AGG],
                &mut failures,
            ) {
                let mut ok = view.kind == "result";
                if !ok {
                    failures.push(format!(
                        "session {session} reval: unexpected {} frame ({:?}: {:?})",
                        view.kind, view.code, view.detail
                    ));
                }
                if ok && !view.cached {
                    failures.push(format!(
                        "session {session}: post-update query was not served from the \
                         revalidated cache"
                    ));
                    ok = false;
                }
                if ok && (last_body.is_none() || view.result != last_body) {
                    failures.push(format!(
                        "session {session}: revalidated body is not bit-identical to the \
                         last update frame's"
                    ));
                    ok = false;
                }
                if ok {
                    revalidations += 1;
                }
            }
        }
    }
    SessionReport {
        per_class,
        failures,
        revalidations,
    }
}

/// Send a `{"type": kind, "id": 0}` control frame on a fresh
/// connection and return the raw reply line.
fn control(addr: &str, kind: &str) -> Result<String, String> {
    let mut conn = Conn::open(addr)?;
    conn.send(&format!(
        "{{\"schema\":\"{WIRE_SCHEMA}\",\"type\":\"{kind}\",\"id\":0}}"
    ))?;
    conn.recv_line()
}

fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = control(addr, "ping").and_then(|line| ResponseView::parse(&line));
        if reply.is_ok_and(|view| view.kind == "pong") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("server at {addr} not ready after 30s"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn shutdown(addr: &str) -> Result<u64, String> {
    let view = ResponseView::parse(&control(addr, "shutdown")?)?;
    if view.kind != "shutdown_ack" {
        return Err(format!("expected shutdown_ack, got `{}`", view.kind));
    }
    Ok(view.completed.unwrap_or(0))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.wait_ready {
        match wait_ready(&args.addr) {
            Ok(()) => println!("ready"),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let control_addr = args.direct.clone().unwrap_or_else(|| args.addr.clone());
    let finish = |run_ok: bool| {
        if args.shutdown {
            match shutdown(&control_addr) {
                Ok(completed) => println!("server drained: {completed} queries completed"),
                Err(e) => {
                    eprintln!("loadgen: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if run_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    if args.sessions == 0 {
        return finish(true);
    }

    let fault_plan = match &args.fault_plan {
        None => None,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
        {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let reports: Vec<SessionReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.sessions)
            .map(|s| {
                let args = &args;
                let fault_plan = fault_plan.as_ref();
                scope.spawn(move || run_session(args, s, fault_plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });

    // Aggregate per class (+ the fault twin pseudo-class).
    let mut failures: Vec<String> = Vec::new();
    let mut records = Vec::new();
    let labels: Vec<&str> = CLASSES
        .iter()
        .copied()
        .chain(["fault", "update", "reval"])
        .collect();
    for (c, label) in labels.iter().enumerate() {
        let mut total = Agg::default();
        for report in &reports {
            let a = &report.per_class[c];
            total.sent += a.sent;
            total.responses += a.responses;
            total.lost += a.lost;
            total.duplicated += a.duplicated;
            total.retries += a.retries;
            total.conn_retries += a.conn_retries;
            total.cache_hits += a.cache_hits;
            total.load_sum += a.load_sum;
        }
        if total.sent == 0 {
            continue; // e.g. no --fault-plan ⇒ no `fault` record
        }
        records.push(ServerRecord {
            workload: (*label).to_string(),
            sent: total.sent,
            responses: total.responses,
            lost: total.lost,
            duplicated: total.duplicated,
            retries: total.retries,
            cache_hits: total.cache_hits,
            load_sum: total.load_sum,
        });
    }
    for report in &reports {
        failures.extend(report.failures.iter().cloned());
    }
    let total_responses: u64 = records.iter().map(|r| r.responses).sum();
    let total_hits: u64 = records.iter().map(|r| r.cache_hits).sum();
    let update_responses: u64 = records
        .iter()
        .find(|r| r.workload == "update")
        .map(|r| r.responses)
        .unwrap_or(0);
    let total_revalidations: u64 = reports.iter().map(|r| r.revalidations).sum();
    let total_conn_retries: u64 = reports
        .iter()
        .flat_map(|r| r.per_class.iter())
        .map(|a| a.conn_retries)
        .sum();
    if total_hits == 0 {
        failures.push("no response was ever served from the cache".into());
    }
    let artifact = ServerArtifact {
        sessions: args.sessions as u64,
        per_session: args.queries as u64,
        seed: args.seed,
        records,
        chaos: args.chaos,
        updates: update_responses,
        revalidations: total_revalidations,
    };

    // Scrape the server's own counters and reconcile them with the
    // client-side tallies (exactly, or as lower bounds under chaos).
    match control(&control_addr, "stats") {
        Err(e) => failures.push(format!("stats scrape: {e}")),
        Ok(raw) => {
            if let Some(path) = &args.stats_out {
                if let Err(e) = std::fs::write(path, format!("{raw}\n")) {
                    failures.push(format!("write {path}: {e}"));
                } else {
                    println!("wrote {path}");
                }
            }
            match StatsView::parse(&raw) {
                Err(e) => failures.push(format!("stats frame: {e}")),
                Ok(view) => failures.extend(reconcile_client(&view, &artifact)),
            }
        }
    }

    println!(
        "loadgen: {} sessions, {total_responses} responses, {total_hits} cache hits",
        args.sessions
    );
    if args.chaos {
        println!(
            "  chaos mode: {total_conn_retries} connection-level retr{} (reconnect + resend)",
            if total_conn_retries == 1 { "y" } else { "ies" }
        );
    }
    if args.updates > 0 {
        println!(
            "  incremental: {update_responses} update frames, {total_revalidations} \
             revalidated re-queries verified bit-identical"
        );
    }
    for r in &artifact.records {
        println!(
            "  {:<6} sent {:>5}  responses {:>5}  retries {:>4}  hits {:>4}  load_sum {:>8}",
            r.workload, r.sent, r.responses, r.retries, r.cache_hits, r.load_sum,
        );
    }

    if let Some(path) = &args.artifact {
        if let Err(e) = std::fs::write(path, artifact.to_json_string()) {
            eprintln!("loadgen: write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if !failures.is_empty() {
        eprintln!("loadgen: {} failure(s):", failures.len());
        for f in failures.iter().take(20) {
            eprintln!("  {f}");
        }
        if failures.len() > 20 {
            eprintln!("  … and {} more", failures.len() - 20);
        }
        return finish(false);
    }
    println!(
        "loadgen: all invariants held (no lost/duplicated responses, cache hits bit-identical)"
    );
    finish(true)
}
