//! `mpcjoin-serve` — the query service daemon.
//!
//! ```text
//! mpcjoin-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!               [--session-quota N] [--cache-cap N] [--max-servers P]
//!               [--threads N] [--retry-after-ms MS] [--artifact-dir DIR]
//!               [--log FILE] [--obs-dump FILE] [--read-timeout-ms MS]
//!               [--drain-deadline-ms MS] [--max-relation-bytes N]
//!               [--cost-ceiling X]
//! ```
//!
//! Binds a TCP listener (`--addr 127.0.0.1:0` by default — port 0 picks
//! a free port, printed on the first stdout line as
//! `mpcjoin-serve listening on <addr>` so harnesses can scrape it),
//! then serves the `mpcjoin-wire-v1` JSONL protocol (see
//! `mpcjoin_server::wire`): one thread per connection reads frames, query
//! jobs go through the shared scheduler (bounded queue, per-session
//! quotas, explicit backpressure), and responses are written back on the
//! requesting connection as they complete, each in one write on a
//! `TCP_NODELAY` socket ([`wire::write_frame`]) — pipelined requests may
//! complete out of order; match on `id`.
//!
//! A `shutdown` frame triggers the graceful path: admission closes
//! (later submissions get `draining` errors), every queued and in-flight
//! query runs to completion and its response is delivered, per-query
//! artifacts are flushed (they are written synchronously at the end of
//! each run), the `shutdown_ack` frame reports the lifetime completion
//! count, and the process exits 0.
//!
//! ## Observability
//!
//! Every incoming line gets a server-allocated request id; every
//! response frame echoes it as a final `rid` member. `--log FILE`
//! appends `mpcjoin-log-v1` JSONL events (lifecycle, request, reject,
//! complete-with-spans, watchdog); `--obs-dump FILE` writes the text
//! exposition of the server metrics at drain time. A `stats` frame
//! returns the `mpcjoin-serverstats-v1` payload under `stats`
//! (scheduler and cache counters, gauges, `error.{code}` counters,
//! latency histograms, the watchdog);
//! `{"type":"stats","format":"text"}` returns the text exposition.
//!
//! ## Hostile-network hardening
//!
//! Connections carry read *and* write timeouts (`--read-timeout-ms`,
//! default 30s, 0 disables) so half-open sockets cannot pin a reader
//! thread forever; a timed-out or reset connection bumps `conn.reset`
//! and closes. Frames are read through a bounded reader
//! ([`wire::read_frame_line`]): a line over [`wire::MAX_FRAME_BYTES`]
//! or containing invalid UTF-8 is answered with a structured
//! `bad_frame` error (bumping `frames.malformed`) and the connection
//! is closed, since the byte stream is no longer frame-aligned.
//! `--drain-deadline-ms` bounds the graceful-shutdown wait,
//! `--max-relation-bytes` and `--cost-ceiling` arm priced admission
//! (see `mpcjoin_server::sched`).

use mpcjoin::mpc::json::Json;
use mpcjoin_server::wire::{self, Frame};
use mpcjoin_server::{RequestCtx, Scheduler, ServerConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn usage() -> &'static str {
    "usage: mpcjoin-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]\n\
     \x20      [--session-quota N] [--cache-cap N] [--max-servers P]\n\
     \x20      [--threads N] [--retry-after-ms MS] [--artifact-dir DIR]\n\
     \x20      [--log FILE] [--obs-dump FILE] [--read-timeout-ms MS]\n\
     \x20      [--drain-deadline-ms MS] [--max-relation-bytes N]\n\
     \x20      [--cost-ceiling X]"
}

/// Default per-connection socket timeout (read and write). Generous:
/// it only exists to reclaim threads from half-open sockets, not to
/// police slow clients.
const DEFAULT_READ_TIMEOUT_MS: u64 = 30_000;

fn parse_args() -> Result<(String, ServerConfig, u64), String> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut cfg = ServerConfig::default();
    let mut read_timeout_ms = DEFAULT_READ_TIMEOUT_MS;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        let parse_usize = |name: &str, v: String| {
            v.parse::<usize>()
                .map_err(|_| format!("{name} expects a non-negative integer, got `{v}`"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => cfg.workers = parse_usize("--workers", value("--workers")?)?.max(1),
            "--queue-cap" => cfg.queue_cap = parse_usize("--queue-cap", value("--queue-cap")?)?,
            "--session-quota" => {
                cfg.session_quota =
                    parse_usize("--session-quota", value("--session-quota")?)?.max(1)
            }
            "--cache-cap" => cfg.cache_cap = parse_usize("--cache-cap", value("--cache-cap")?)?,
            "--max-servers" => {
                cfg.max_servers = parse_usize("--max-servers", value("--max-servers")?)?.max(1)
            }
            "--threads" => {
                cfg.threads_per_job = parse_usize("--threads", value("--threads")?)?.max(1)
            }
            "--retry-after-ms" => {
                cfg.retry_after_ms =
                    parse_usize("--retry-after-ms", value("--retry-after-ms")?)? as u64
            }
            "--artifact-dir" => {
                cfg.artifact_dir = Some(std::path::PathBuf::from(value("--artifact-dir")?))
            }
            "--log" => cfg.log_file = Some(std::path::PathBuf::from(value("--log")?)),
            "--obs-dump" => cfg.obs_dump = Some(std::path::PathBuf::from(value("--obs-dump")?)),
            "--read-timeout-ms" => {
                read_timeout_ms =
                    parse_usize("--read-timeout-ms", value("--read-timeout-ms")?)? as u64
            }
            "--drain-deadline-ms" => {
                cfg.drain_deadline_ms =
                    parse_usize("--drain-deadline-ms", value("--drain-deadline-ms")?)? as u64
            }
            "--max-relation-bytes" => {
                cfg.max_relation_bytes =
                    parse_usize("--max-relation-bytes", value("--max-relation-bytes")?)? as u64
            }
            "--cost-ceiling" => {
                let v = value("--cost-ceiling")?;
                cfg.cost_ceiling = v
                    .parse::<f64>()
                    .map_err(|_| format!("--cost-ceiling expects a number, got `{v}`"))?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok((addr, cfg, read_timeout_ms))
}

/// Write one reply, stamped with its `rid`, to a connection shared by
/// its reader thread and the scheduler workers: one `write_all` under
/// the lock ([`wire::write_frame`]), so replies never interleave.
/// Returns `false` when the peer has gone away (the job's result is
/// then dropped — the work itself already completed and was
/// cached/counted normally).
fn send(writer: &Mutex<TcpStream>, frame: String, rid: u64) -> bool {
    let mut stream = writer.lock().expect("connection writer lock");
    wire::write_frame(&mut *stream, frame, Some(rid)).is_ok()
}

/// The `stats` response: the `mpcjoin-serverstats-v1` payload under
/// `stats`, or its text exposition (one escaped string) under `text`.
fn stats_frame(id: Option<u64>, member: &str, payload: Json) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(wire::WIRE_SCHEMA.into())),
        ("type".into(), Json::Str("stats".into())),
        ("id".into(), id.map_or(Json::Null, |v| Json::Num(v as f64))),
        (member.into(), payload),
    ])
    .to_string_sanitized()
}

fn handle_connection(
    stream: TcpStream,
    conn_id: u64,
    sched: Arc<Scheduler>,
    stopping: Arc<AtomicBool>,
    local: SocketAddr,
    read_timeout_ms: u64,
) {
    // Replies leave whole, one write each; without this, Nagle holds a
    // reply's tail until the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    // Both halves get a timeout so neither a half-open peer (read) nor
    // a zero-window peer (write) can pin this thread indefinitely.
    if read_timeout_ms > 0 {
        let timeout = Some(std::time::Duration::from_millis(read_timeout_ms));
        let _ = stream.set_read_timeout(timeout);
        let _ = stream.set_write_timeout(timeout);
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    // Sessions default to a per-connection identity so anonymous clients
    // are quota'd individually rather than pooled under "".
    let default_session = format!("conn-{conn_id}");
    let obs = Arc::clone(sched.obs());
    obs.log_event(
        "info",
        "conn_open",
        vec![("conn".into(), Json::Num(conn_id as f64))],
    );
    // A line that never became a frame: counted as malformed, then
    // rejected under the connection's identity (there is no session).
    let malformed = |rid: u64, e: &wire::WireError| {
        obs.count("frames.malformed", 1);
        obs.reject(rid, ("conn", Json::Num(conn_id as f64)), e)
    };
    let mut reader = BufReader::new(read_half);
    loop {
        let line = match wire::read_frame_line(&mut reader, wire::MAX_FRAME_BYTES) {
            wire::LineOutcome::Eof => break,
            wire::LineOutcome::Line(line) => line,
            bad @ (wire::LineOutcome::Oversized { .. } | wire::LineOutcome::NonUtf8 { .. }) => {
                // The byte stream is no longer frame-aligned, so answer
                // structurally and close rather than guess at resync.
                let rid = obs.next_rid();
                let e = bad
                    .to_wire_error()
                    .expect("oversized/non-utf8 outcomes map to a wire error");
                send(&writer, malformed(rid, &e), rid);
                break;
            }
            wire::LineOutcome::Io(_) => {
                // Timeout, reset, or half-open peer: reclaim the thread.
                obs.count("conn.reset", 1);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // Every line — parseable or not — gets a server request id; all
        // responses echo it (`send` stamps it).
        let rid = obs.next_rid();
        let reply = |frame: String| send(&writer, frame, rid);
        let request_event = |kind: &str, id: Option<u64>, session: &str| {
            obs.count(&format!("frames.{kind}"), 1);
            obs.log_event(
                "info",
                "request",
                vec![
                    ("rid".into(), Json::Num(rid as f64)),
                    ("id".into(), id.map_or(Json::Null, |v| Json::Num(v as f64))),
                    ("session".into(), Json::Str(session.into())),
                    ("kind".into(), Json::Str(kind.into())),
                    ("conn".into(), Json::Num(conn_id as f64)),
                ],
            );
        };
        let ctx = RequestCtx {
            rid,
            ..RequestCtx::default()
        };
        let mut frame = match wire::parse_frame(&line) {
            Ok(frame) => frame,
            Err(e) => {
                if !reply(malformed(rid, &e)) {
                    break;
                }
                continue;
            }
        };
        // Quotas, view keys and log events all see the defaulted session:
        // an update must resolve to the identity its registering query
        // ran under.
        frame.default_session(&default_session);
        let delivered = match frame {
            Frame::Ping { id } => {
                request_event("ping", id, &default_session);
                reply(wire::pong_frame(id))
            }
            Frame::Stats { id, format } => {
                request_event("stats", id, &default_session);
                reply(match format.as_deref() {
                    None => stats_frame(id, "stats", sched.stats_doc()),
                    Some("text") => stats_frame(id, "text", Json::Str(sched.stats_text())),
                    Some(other) => obs.error_frame(&wire::WireError {
                        id,
                        code: "bad_request",
                        detail: format!("unknown stats format `{other}` (expected `text`)"),
                        retry_after_ms: None,
                    }),
                })
            }
            Frame::Shutdown { id } => {
                request_event("shutdown", id, &default_session);
                // Drain synchronously: by the time the ack goes out, every
                // admitted query has been answered and its artifacts
                // flushed.
                let completed = sched.drain();
                reply(wire::shutdown_ack_frame(id, completed));
                stopping.store(true, Ordering::SeqCst);
                // Unblock the accept loop so the process can exit.
                let _ = TcpStream::connect(local);
                return;
            }
            Frame::Explain(req) => {
                request_event("explain", Some(req.id), &req.session);
                // Compilation is statistics-only (no simulated cluster
                // run), so it is answered inline rather than queued.
                reply(sched.executor().explain(&req, &ctx))
            }
            Frame::Update(req) => {
                request_event("update", Some(req.id), &req.session);
                // Answered inline on this thread (like explain), not
                // queued — yet each update ends in a full cold
                // revalidation run (`Executor::update`), so it blocks
                // this connection for a whole engine run (ROADMAP item 3).
                reply(sched.executor().update(&req, &ctx))
            }
            Frame::Query(req) => {
                request_event("query", Some(req.id), &req.session);
                let writer = Arc::clone(&writer);
                sched.submit(rid, *req, move |frame| {
                    send(&writer, frame, rid);
                });
                true
            }
        };
        if !delivered {
            break;
        }
    }
    obs.log_event(
        "info",
        "conn_close",
        vec![("conn".into(), Json::Num(conn_id as f64))],
    );
}

fn main() -> ExitCode {
    let (addr, cfg, read_timeout_ms) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &cfg.artifact_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--artifact-dir {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("mpcjoin-serve listening on {local}");
    let _ = std::io::stdout().flush();

    let sched = Arc::new(Scheduler::new(cfg));
    let stopping = Arc::new(AtomicBool::new(false));
    let conn_counter = AtomicU64::new(0);
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let conn_id = conn_counter.fetch_add(1, Ordering::Relaxed);
        let sched = Arc::clone(&sched);
        let stopping = Arc::clone(&stopping);
        std::thread::spawn(move || {
            handle_connection(stream, conn_id, sched, stopping, local, read_timeout_ms)
        });
    }
    // Drain is idempotent; on the shutdown path the work already finished
    // and this just stops the worker threads. Connection reader threads
    // still blocked on idle peers die with the process.
    let completed = sched.shutdown();
    println!("mpcjoin-serve: drained, {completed} queries completed");
    ExitCode::SUCCESS
}
