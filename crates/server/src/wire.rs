//! The `mpcjoin-wire-v1` protocol: JSONL frames over TCP.
//!
//! Every frame is one JSON document on one line. Clients send request
//! frames (`type`: `query`, `explain`, `ping`, `stats`, `shutdown`); the
//! server answers each with exactly one response frame (`result`,
//! `explain`, `error`, `pong`, `stats`, `shutdown_ack`). Responses carry the request's `id`,
//! so clients may pipeline; ordering across distinct ids is *not*
//! guaranteed — queries complete in scheduler order, not arrival order.
//!
//! ## Query frames
//!
//! ```json
//! {"schema":"mpcjoin-wire-v1","type":"query","id":1,"session":"tenant-a",
//!  "query":"Q(a, c) :- R(a, b), S(b, c)","semiring":"count","servers":8,
//!  "plan":"auto","limit":64,
//!  "relations":{"R":[[1,2],[3,4,2]],"S":[[2,5]]}}
//! ```
//!
//! Relations are keyed by the body atom's name; each row is an integer
//! array — the edge's attribute values in atom order, plus an optional
//! trailing weight whose meaning depends on `semiring` (exactly the
//! CLI's file-input convention). Optional fields: `session` (admission
//! quotas are per-session; defaults to a per-connection identity),
//! `servers` (simulated cluster width), `plan`
//! (`auto|costbased|heuristic|baseline|matmul|line|star|starlike|tree|yannakakis|cec`),
//! `limit` (maximum output rows echoed back; all by default), `delay_ms`
//! (artificial pre-execution stall — a load-testing/straggler knob, at
//! most [`MAX_DELAY_MS`] and never past the request's own deadline),
//! `fault_plan` (an embedded `mpcjoin-faultplan-v1` document injected
//! into the run; such runs bypass the result cache) and `fault_seed`.
//!
//! ## Update frames and registered views
//!
//! A query frame may carry `"register": true`, asking the server to also
//! *register* the query as a materialized view keyed by
//! `(session, query, semiring, servers, plan)`. A `type: "update"` frame
//! then streams a delta against that view:
//!
//! ```json
//! {"schema":"mpcjoin-wire-v1","type":"update","id":2,"session":"tenant-a",
//!  "query":"Q(a, c) :- R(a, b), S(b, c)","semiring":"count","servers":8,
//!  "inserts":{"R":[[9,2]]},"deletes":{"S":[[2,5]]}}
//! ```
//!
//! `inserts` / `deletes` use the same name → rows shape as `relations`;
//! deletes name *existing* rows (exact match, weight included) and are
//! rejected with `bad_request` if absent. The server absorbs the delta
//! incrementally where the semiring admits it (see `mpcjoin::delta`),
//! revalidates the result cache for the updated instance, and answers
//! with an `update` frame: the `mpcjoin-delta-v1` decision document under
//! `delta`, plus the updated instance's canonical body under `result` —
//! byte-identical to what a cold re-query would return. Updates run
//! inline (like explain), not through the execution queue. An update
//! whose view was never registered is answered with `unknown_view`.
//!
//! ## Explain frames
//!
//! A `type: "explain"` request carries the same members as a query frame
//! and asks the server to *compile* the query — collect statistics,
//! enumerate and price every applicable plan against the Table-1 cost
//! model, and lower the winner — without executing it. The response is
//! an `explain` frame whose `plan` member is the `mpcjoin-plan-v1`
//! document (see `mpcjoin::compiler`). Explain requests bypass the
//! result cache and the execution queue: compilation is statistics-only
//! and runs inline.
//!
//! ## Result frames and the cache-determinism invariant
//!
//! ```json
//! {"schema":"mpcjoin-wire-v1","type":"result","id":1,"cached":false,
//!  "elapsed_ns":123456,"recovery":null,"result":{…}}
//! ```
//!
//! The `result` member is the *canonical body*: plan, measured cost,
//! audit verdict, and the output rows in canonical order — everything
//! deterministic about the run, and nothing that is not (wall-clock and
//! recovery live outside it). The cache stores the body **as serialized
//! bytes** and a hit splices those bytes back verbatim, so a cache hit
//! is bit-identical to the cold run *by construction*, not by replay.
//!
//! ## Error frames
//!
//! ```json
//! {"schema":"mpcjoin-wire-v1","type":"error","id":7,"code":"overloaded",
//!  "detail":"admission queue full (64 queued)","retry_after_ms":25}
//! ```
//!
//! `code` is machine-readable: engine failures carry
//! [`MpcError::code`]'s value (`invalid_instance`, `unsupported_plan`,
//! `unrecoverable`, …); the serving layer adds `bad_frame` (unparseable
//! line — the detail names the byte offset), `bad_request` (well-formed
//! but invalid), `bad_query` (query syntax), `overloaded` (admission
//! queue full), `quota_exceeded` (per-session cap) and `draining`
//! (server is shutting down). `overloaded` and `quota_exceeded` carry
//! `retry_after_ms` — backpressure is always an explicit, retryable
//! protocol answer, never a dropped connection.
//!
//! ## Putting a frame on a socket
//!
//! [`write_frame`] is the one way a frame leaves, on the server and on
//! the `loadgen` client: the whole line — frame, `rid` stamp, newline —
//! goes to exactly one `write_all`. A frame and its newline written
//! separately let Nagle's algorithm hold the one-byte tail until the
//! peer's delayed ACK (≈ 40 ms per reply), so both sides also set
//! `TCP_NODELAY`.

use std::io::{BufRead, Write};

use mpcjoin::mpc::json::{escape_str, Json};
use mpcjoin::mpc::{FaultPlan, MpcError};

/// The protocol schema tag (shared with the CLI's structured errors).
pub const WIRE_SCHEMA: &str = mpcjoin::mpc::ERROR_FRAME_SCHEMA;

/// Hard cap on one frame line (bytes, newline excluded). A hostile peer
/// streaming an endless line must not grow server memory without bound.
pub const MAX_FRAME_BYTES: usize = 1 << 20;
/// Header-sanity cap: query text length (bytes).
pub const MAX_QUERY_BYTES: usize = 16 * 1024;
/// Header-sanity cap: session identity length (bytes).
pub const MAX_SESSION_BYTES: usize = 256;
/// Header-sanity cap: relations per query frame.
pub const MAX_RELATIONS: usize = 64;
/// Header-sanity cap: values per relation row.
pub const MAX_ROW_WIDTH: usize = 32;
/// Header-sanity cap: the `delay_ms` testing stall. The stall occupies a
/// worker, so one frame must not be able to park it indefinitely.
pub const MAX_DELAY_MS: u64 = 10_000;

/// A parsed client→server frame.
#[derive(Debug)]
pub enum Frame {
    /// Run a query.
    Query(Box<QueryRequest>),
    /// Compile a query without executing it (cost-based plan selection;
    /// answered with an `explain` frame carrying the `mpcjoin-plan-v1`
    /// document).
    Explain(Box<QueryRequest>),
    /// Apply a delta batch to a registered view and revalidate the
    /// result cache (answered with an `update` frame).
    Update(Box<UpdateRequest>),
    /// Liveness probe.
    Ping {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// Scheduler / cache / observability statistics. `format` selects
    /// the payload shape: absent (JSON, `mpcjoin-serverstats-v1`) or
    /// `"text"` (line-oriented exposition).
    Stats {
        /// Echoed request id.
        id: Option<u64>,
        /// Requested payload format (`None` = JSON).
        format: Option<String>,
    },
    /// Graceful drain-and-shutdown: stop admitting, finish in-flight
    /// queries, acknowledge, exit.
    Shutdown {
        /// Echoed request id.
        id: Option<u64>,
    },
}

impl Frame {
    /// Give a query, explain or update frame that named no `session`
    /// the connection's identity (a no-op for the other kinds). Done
    /// once, before dispatch: quotas, view keys and log events must all
    /// see the same session.
    pub fn default_session(&mut self, session: &str) {
        let slot = match self {
            Frame::Query(req) | Frame::Explain(req) => &mut req.session,
            Frame::Update(req) => &mut req.session,
            Frame::Ping { .. } | Frame::Stats { .. } | Frame::Shutdown { .. } => return,
        };
        if slot.is_empty() {
            *slot = session.to_string();
        }
    }
}

/// A `type: "query"` frame, validated for shape (not yet for semantics —
/// query syntax and instance validation happen at execution).
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Client-chosen request id, echoed on the response.
    pub id: u64,
    /// Admission-quota identity. Empty means "use the connection's".
    pub session: String,
    /// Datalog-style query text (see `mpcjoin::query::parse_query`).
    pub query: String,
    /// Semiring name: `count` / `bool` / `minplus` / `mincount`.
    pub semiring: String,
    /// Simulated MPC cluster width for this run.
    pub servers: usize,
    /// Plan choice: `auto`, `baseline`, or a forced algorithm name.
    pub plan: String,
    /// `(relation name, rows)`; each row is attribute values in atom
    /// order with an optional trailing weight.
    pub relations: Vec<(String, Vec<Vec<i64>>)>,
    /// Maximum output rows echoed in the body (`None` = all).
    pub limit: Option<usize>,
    /// Artificial pre-execution stall in milliseconds (testing knob).
    pub delay_ms: u64,
    /// Request deadline, milliseconds from admission. Expired requests are
    /// shed from the queue (or cancelled at the next engine round
    /// boundary) with a `deadline_exceeded` error frame.
    pub deadline_ms: Option<u64>,
    /// Deterministic fault schedule to inject (bypasses the cache).
    pub fault_plan: Option<FaultPlan>,
    /// Also register the query as a materialized view for later
    /// `update` frames. Not part of the request digest: a registering
    /// query returns the same bytes as a plain one.
    pub register: bool,
}

/// A `type: "update"` frame: a delta batch against a registered view.
/// The view key is `(session, query, semiring, servers, plan)` — the
/// same members a registering query frame carried.
#[derive(Clone, Debug)]
pub struct UpdateRequest {
    /// Client-chosen request id, echoed on the response.
    pub id: u64,
    /// Admission-quota identity. Empty means "use the connection's".
    pub session: String,
    /// Query text of the registered view.
    pub query: String,
    /// Semiring name of the registered view.
    pub semiring: String,
    /// Simulated MPC cluster width of the registered view.
    pub servers: usize,
    /// Plan choice of the registered view.
    pub plan: String,
    /// Maximum output rows echoed in the revalidated body (`None` = all).
    pub limit: Option<usize>,
    /// Rows to insert, per relation name (query-frame row convention).
    pub inserts: Vec<(String, Vec<Vec<i64>>)>,
    /// Existing rows to delete, per relation name (exact match, weight
    /// included).
    pub deletes: Vec<(String, Vec<Vec<i64>>)>,
}

/// A rejected frame: the protocol error to answer with.
#[derive(Debug)]
pub struct WireError {
    /// The offending request's id, when it could still be extracted.
    pub id: Option<u64>,
    /// Machine-readable error code (`bad_frame` / `bad_request` / …).
    pub code: &'static str,
    /// Human-readable description (byte offsets for parse errors).
    pub detail: String,
    /// Retry hint of a backpressure rejection.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// An error not yet tied to a request: whoever knows the request's
    /// `id` (the frame parser, the executor's epilogue, the scheduler)
    /// fills it in before the error is rendered.
    pub(crate) fn new(code: &'static str, detail: impl Into<String>) -> WireError {
        WireError {
            id: None,
            code,
            detail: detail.into(),
            retry_after_ms: None,
        }
    }

    /// Render as an error frame line.
    pub fn to_frame(&self) -> String {
        error_frame(self.id, self.code, &self.detail, self.retry_after_ms)
    }
}

/// An engine failure keeps its [`MpcError::code`] on the wire.
impl From<MpcError> for WireError {
    fn from(e: MpcError) -> WireError {
        WireError::new(e.code(), e.to_string())
    }
}

/// JSON member `key` as a `u64`, with a typed error.
fn get_u64(doc: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            WireError::new(
                "bad_request",
                format!("`{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn get_bool(doc: &Json, key: &str) -> Result<Option<bool>, WireError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(WireError::new(
            "bad_request",
            format!("`{key}` must be a boolean"),
        )),
    }
}

fn get_str(doc: &Json, key: &str) -> Result<Option<String>, WireError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| WireError::new("bad_request", format!("`{key}` must be a string"))),
    }
}

/// Parse one JSONL line into a [`Frame`].
pub fn parse_frame(line: &str) -> Result<Frame, WireError> {
    let doc = Json::parse(line)
        .map_err(|e| WireError::new("bad_frame", format!("unparseable frame: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(WireError::new("bad_frame", "frame must be a JSON object"));
    }
    if let Some(schema) = doc.get("schema") {
        if schema.as_str() != Some(WIRE_SCHEMA) {
            return Err(WireError::new(
                "bad_frame",
                format!("unknown schema (expected `{WIRE_SCHEMA}`)"),
            ));
        }
    }
    // From here on the id is extractable, so semantic errors echo it.
    let id = get_u64(&doc, "id")?;
    let with_id = |mut e: WireError| {
        e.id = id;
        e
    };
    let kind = get_str(&doc, "type")?
        .ok_or_else(|| with_id(WireError::new("bad_frame", "missing `type`")))?;
    match kind.as_str() {
        "ping" => Ok(Frame::Ping { id }),
        "stats" => Ok(Frame::Stats {
            id,
            format: get_str(&doc, "format").map_err(with_id)?,
        }),
        "shutdown" => Ok(Frame::Shutdown { id }),
        "query" => parse_query_frame(&doc, id)
            .map(|req| Frame::Query(Box::new(req)))
            .map_err(with_id),
        "explain" => parse_query_frame(&doc, id)
            .map(|req| Frame::Explain(Box::new(req)))
            .map_err(with_id),
        "update" => parse_update_frame(&doc, id)
            .map(|req| Frame::Update(Box::new(req)))
            .map_err(with_id),
        other => Err(with_id(WireError::new(
            "bad_frame",
            format!("unknown frame type `{other}`"),
        ))),
    }
}

fn parse_query_frame(doc: &Json, id: Option<u64>) -> Result<QueryRequest, WireError> {
    let id = id.ok_or_else(|| WireError::new("bad_request", "query frames require an `id`"))?;
    let (query, session) = parse_header(doc)?;
    let relations = parse_row_map(doc, "relations")?;
    let fault_plan = match doc.get("fault_plan") {
        None | Some(Json::Null) => None,
        Some(plan) => {
            let text = plan
                .to_string_compact()
                .map_err(|e| WireError::new("bad_request", format!("`fault_plan`: {e}")))?;
            let mut plan = FaultPlan::from_json(&text)
                .map_err(|e| WireError::new("invalid_fault_plan", e.to_string()))?;
            if let Some(seed) = get_u64(doc, "fault_seed")? {
                plan = plan.with_seed(seed);
            }
            Some(plan)
        }
    };
    let delay_ms = get_u64(doc, "delay_ms")?.unwrap_or(0);
    if delay_ms > MAX_DELAY_MS {
        return Err(WireError::new(
            "bad_request",
            format!("`delay_ms` too large ({delay_ms}; limit {MAX_DELAY_MS})"),
        ));
    }
    Ok(QueryRequest {
        id,
        session,
        query,
        semiring: get_str(doc, "semiring")?.unwrap_or_else(|| "count".into()),
        servers: get_u64(doc, "servers")?.unwrap_or(8) as usize,
        plan: get_str(doc, "plan")?.unwrap_or_else(|| "auto".into()),
        relations,
        limit: get_u64(doc, "limit")?.map(|n| n as usize),
        delay_ms,
        deadline_ms: get_u64(doc, "deadline_ms")?,
        fault_plan,
        register: get_bool(doc, "register")?.unwrap_or(false),
    })
}

/// Parse the shared header members (`query`, `session`) under the same
/// caps query frames enforce.
fn parse_header(doc: &Json) -> Result<(String, String), WireError> {
    let query =
        get_str(doc, "query")?.ok_or_else(|| WireError::new("bad_request", "missing `query`"))?;
    if query.len() > MAX_QUERY_BYTES {
        return Err(WireError::new(
            "bad_request",
            format!(
                "`query` too long ({} bytes; limit {MAX_QUERY_BYTES})",
                query.len()
            ),
        ));
    }
    let session = get_str(doc, "session")?.unwrap_or_default();
    if session.len() > MAX_SESSION_BYTES {
        return Err(WireError::new(
            "bad_request",
            format!(
                "`session` too long ({} bytes; limit {MAX_SESSION_BYTES})",
                session.len()
            ),
        ));
    }
    Ok((query, session))
}

fn parse_update_frame(doc: &Json, id: Option<u64>) -> Result<UpdateRequest, WireError> {
    let id = id.ok_or_else(|| WireError::new("bad_request", "update frames require an `id`"))?;
    let (query, session) = parse_header(doc)?;
    let inserts = parse_row_map(doc, "inserts")?;
    let deletes = parse_row_map(doc, "deletes")?;
    if inserts.is_empty() && deletes.is_empty() {
        return Err(WireError::new(
            "bad_request",
            "update frames need at least one of `inserts` / `deletes`",
        ));
    }
    Ok(UpdateRequest {
        id,
        session,
        query,
        semiring: get_str(doc, "semiring")?.unwrap_or_else(|| "count".into()),
        servers: get_u64(doc, "servers")?.unwrap_or(8) as usize,
        plan: get_str(doc, "plan")?.unwrap_or_else(|| "auto".into()),
        limit: get_u64(doc, "limit")?.map(|n| n as usize),
        inserts,
        deletes,
    })
}

/// Parse a name → row-array object member (`relations` on query frames,
/// `inserts` / `deletes` on update frames) under the shared caps.
fn parse_row_map(doc: &Json, key: &str) -> Result<Vec<(String, Vec<Vec<i64>>)>, WireError> {
    let rels: Vec<(String, Vec<Vec<i64>>)> = match doc.get(key) {
        None | Some(Json::Null) => Vec::new(),
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(name, rows)| Ok((name.clone(), parse_rows(name, rows)?)))
            .collect::<Result<_, WireError>>()?,
        Some(_) => {
            return Err(WireError::new(
                "bad_request",
                format!("`{key}` must be an object of name -> row arrays"),
            ))
        }
    };
    if rels.len() > MAX_RELATIONS {
        return Err(WireError::new(
            "bad_request",
            format!(
                "`{key}`: too many relations ({}; limit {MAX_RELATIONS})",
                rels.len()
            ),
        ));
    }
    Ok(rels)
}

fn parse_rows(name: &str, rows: &Json) -> Result<Vec<Vec<i64>>, WireError> {
    let rows = rows.as_arr().ok_or_else(|| {
        WireError::new("bad_request", format!("relation `{name}` must be an array"))
    })?;
    rows.iter()
        .map(|row| {
            let row = row.as_arr().ok_or_else(|| {
                WireError::new(
                    "bad_request",
                    format!("relation `{name}`: each row must be an array"),
                )
            })?;
            if row.len() > MAX_ROW_WIDTH {
                return Err(WireError::new(
                    "bad_request",
                    format!(
                        "relation `{name}`: row too wide ({}; limit {MAX_ROW_WIDTH})",
                        row.len()
                    ),
                ));
            }
            row.iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|f| f.fract() == 0.0 && f.abs() <= i64::MAX as f64)
                        .map(|f| f as i64)
                        .ok_or_else(|| {
                            WireError::new(
                                "bad_request",
                                format!("relation `{name}`: row values must be integers"),
                            )
                        })
                })
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Bounded frame reading. `BufReader::lines()` has two failure modes under
// a hostile peer: unbounded memory on a newline-free stream, and a plain
// io::Error on invalid UTF-8 that loses the byte offset. This reader caps
// the line length and reports each failure structurally.
// ---------------------------------------------------------------------------

/// Outcome of reading one frame line from a connection.
#[derive(Debug)]
pub enum LineOutcome {
    /// Clean end of stream (no partial line pending).
    Eof,
    /// One complete line (newline stripped, trailing `\r` tolerated).
    Line(String),
    /// The line exceeded `max_bytes` before a newline arrived. The rest
    /// of the line is *not* consumed — treat the connection as
    /// unrecoverable after answering.
    Oversized {
        /// The configured cap that was exceeded.
        limit: usize,
    },
    /// The line is not valid UTF-8; `offset` is the first invalid byte.
    NonUtf8 {
        /// Byte offset of the first invalid byte within the line.
        offset: usize,
    },
    /// An I/O error (includes read timeouts).
    Io(std::io::Error),
}

impl LineOutcome {
    /// The `bad_frame` error for a malformed outcome (`Oversized` /
    /// `NonUtf8`); `None` for the other variants.
    pub fn to_wire_error(&self) -> Option<WireError> {
        match self {
            LineOutcome::Oversized { limit } => Some(WireError::new(
                "bad_frame",
                format!("frame exceeds {limit} bytes"),
            )),
            LineOutcome::NonUtf8 { offset } => Some(WireError::new(
                "bad_frame",
                format!("invalid UTF-8 at byte {offset}"),
            )),
            _ => None,
        }
    }
}

/// Read one newline-terminated frame line, never buffering more than
/// `max_bytes` of it. A final unterminated line at EOF is returned as a
/// [`LineOutcome::Line`] (mirroring `BufRead::lines`).
pub fn read_frame_line<R: BufRead>(reader: &mut R, max_bytes: usize) -> LineOutcome {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let mut found_newline = false;
        let used = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return LineOutcome::Io(e),
            };
            if chunk.is_empty() {
                if buf.is_empty() {
                    return LineOutcome::Eof;
                }
                return finish_line(buf);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(at) => {
                    found_newline = true;
                    buf.extend_from_slice(&chunk[..at]);
                    at + 1
                }
                None => {
                    buf.extend_from_slice(chunk);
                    chunk.len()
                }
            }
        };
        reader.consume(used);
        if buf.len() > max_bytes {
            return LineOutcome::Oversized { limit: max_bytes };
        }
        if found_newline {
            return finish_line(buf);
        }
    }
}

fn finish_line(mut buf: Vec<u8>) -> LineOutcome {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => LineOutcome::Line(line),
        Err(e) => LineOutcome::NonUtf8 {
            offset: e.utf8_error().valid_up_to(),
        },
    }
}

// ---------------------------------------------------------------------------
// Response frame builders. Result frames splice the canonical body in as
// raw bytes (see the module docs): the cache's bit-identity guarantee
// rests on never re-encoding a stored body.
// ---------------------------------------------------------------------------

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Room past a frame's closing brace for [`write_frame`]'s
/// `,"rid":<u64>` stamp and newline.
const LINE_TAIL: usize = ",\"rid\":".len() + 20 + 1;

/// `head`, the body verbatim, the closing brace — in one allocation
/// sized for the finished line, so the body is copied exactly once
/// between the cache and the socket.
fn splice(head: &str, body: &str) -> String {
    let mut frame = String::with_capacity(head.len() + body.len() + 1 + LINE_TAIL);
    frame.push_str(head);
    frame.push_str(body);
    frame.push('}');
    frame
}

/// A `result` frame around an already-serialized canonical body.
pub fn result_frame(
    id: u64,
    cached: bool,
    elapsed_ns: u128,
    recovery: Option<&Json>,
    body: &str,
) -> String {
    let recovery = recovery.map_or_else(|| "null".to_string(), Json::to_string_sanitized);
    let head = format!(
        "{{\"schema\":\"{WIRE_SCHEMA}\",\"type\":\"result\",\"id\":{id},\"cached\":{cached},\
         \"elapsed_ns\":{elapsed_ns},\"recovery\":{recovery},\"result\":"
    );
    splice(&head, body)
}

/// An `update` frame: the `mpcjoin-delta-v1` decision document plus the
/// updated instance's canonical body, spliced as raw bytes (like result
/// bodies) so revalidated cache entries stay bit-identical to cold runs.
pub fn update_frame(id: u64, elapsed_ns: u128, delta: &Json, body: &str) -> String {
    let head = format!(
        "{{\"schema\":\"{WIRE_SCHEMA}\",\"type\":\"update\",\"id\":{id},\
         \"elapsed_ns\":{elapsed_ns},\"delta\":{},\"result\":",
        delta.to_string_sanitized()
    );
    splice(&head, body)
}

/// An `explain` frame around an already-serialized `mpcjoin-plan-v1`
/// document (spliced as raw bytes, like result bodies).
pub fn explain_frame(id: u64, plan_body: &str) -> String {
    let head = format!("{{\"schema\":\"{WIRE_SCHEMA}\",\"type\":\"explain\",\"id\":{id},\"plan\":");
    splice(&head, plan_body)
}

/// An `error` frame.
pub fn error_frame(
    id: Option<u64>,
    code: &str,
    detail: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let retry = retry_after_ms.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        "{{\"schema\":\"{WIRE_SCHEMA}\",\"type\":\"error\",\"id\":{},\"code\":{},\"detail\":{},\
         \"retry_after_ms\":{retry}}}",
        id_json(id),
        escape_str(code),
        escape_str(detail),
    )
}

/// A `pong` frame.
pub fn pong_frame(id: Option<u64>) -> String {
    format!(
        "{{\"schema\":\"{WIRE_SCHEMA}\",\"type\":\"pong\",\"id\":{}}}",
        id_json(id)
    )
}

/// A `shutdown_ack` frame reporting how many queries the server completed
/// over its lifetime (in-flight work included — the ack is sent only
/// after the drain).
pub fn shutdown_ack_frame(id: Option<u64>, completed: u64) -> String {
    format!(
        "{{\"schema\":\"{WIRE_SCHEMA}\",\"type\":\"shutdown_ack\",\"id\":{},\"completed\":{completed}}}",
        id_json(id)
    )
}

/// Splice the server-allocated request id into a finished response
/// frame, in place, as a final `"rid"` member. Operates on the
/// serialized bytes — every frame builder emits a JSON object, and the
/// splice point (the closing brace) is *after* any verbatim-spliced
/// body, so cached result bytes are untouched and bit-identity is
/// preserved. A frame that is not an object is left alone.
fn insert_rid(frame: &mut String, rid: u64) {
    if let Some(at) = frame.rfind('}') {
        frame.insert_str(at, &format!(",\"rid\":{rid}"));
    }
}

/// A copy of `frame` stamped with `rid` (what [`write_frame`] puts on
/// the socket, minus the newline).
pub fn stamp_rid(frame: &str, rid: u64) -> String {
    let mut stamped = frame.to_string();
    insert_rid(&mut stamped, rid);
    stamped
}

/// Put one frame on a connection: stamp `rid` (the server's; clients
/// pass `None`) in place, end the line, and hand the whole line to one
/// `write_all` (see the module docs for why). The body-carrying
/// builders ([`result_frame`], [`update_frame`], [`explain_frame`])
/// reserve the tail, so neither step copies their body again.
pub fn write_frame(w: &mut impl Write, mut frame: String, rid: Option<u64>) -> std::io::Result<()> {
    if let Some(rid) = rid {
        insert_rid(&mut frame, rid);
    }
    frame.push('\n');
    w.write_all(frame.as_bytes())
}

/// A client-side view of one response line.
#[derive(Debug)]
pub struct ResponseView {
    /// Frame type (`result`, `error`, `pong`, `stats`, `shutdown_ack`).
    pub kind: String,
    /// Echoed request id (absent on connection-level errors).
    pub id: Option<u64>,
    /// `cached` marker of a result frame.
    pub cached: bool,
    /// The canonical body of a result frame, re-serialized compactly.
    /// The serializer is deterministic, so two byte-identical bodies
    /// compare equal here and vice versa.
    pub result: Option<String>,
    /// Error code of an error frame.
    pub code: Option<String>,
    /// Error detail of an error frame.
    pub detail: Option<String>,
    /// Retry hint of a backpressure rejection.
    pub retry_after_ms: Option<u64>,
    /// `load` from a result body (convenience for load accounting).
    pub load: Option<u64>,
    /// The `mpcjoin-plan-v1` document of an `explain` frame,
    /// re-serialized compactly.
    pub plan: Option<String>,
    /// The `mpcjoin-delta-v1` document of an `update` frame,
    /// re-serialized compactly.
    pub delta: Option<String>,
    /// Whether the frame carried a non-null recovery report.
    pub recovered: bool,
    /// `completed` of a `shutdown_ack`.
    pub completed: Option<u64>,
    /// Server-allocated request id ([`stamp_rid`]), when present.
    pub rid: Option<u64>,
}

impl ResponseView {
    /// Parse a server response line.
    pub fn parse(line: &str) -> Result<ResponseView, String> {
        let doc = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or("response missing `type`")?
            .to_string();
        let result = doc.get("result");
        Ok(ResponseView {
            kind,
            id: doc.get("id").and_then(Json::as_u64),
            cached: matches!(doc.get("cached"), Some(Json::Bool(true))),
            load: result.and_then(|r| r.get("load")).and_then(Json::as_u64),
            result: result
                .map(|r| r.to_string_compact().map_err(|e| e.to_string()))
                .transpose()?,
            plan: doc
                .get("plan")
                .map(|p| p.to_string_compact().map_err(|e| e.to_string()))
                .transpose()?,
            delta: doc
                .get("delta")
                .map(|d| d.to_string_compact().map_err(|e| e.to_string()))
                .transpose()?,
            code: doc.get("code").and_then(Json::as_str).map(str::to_string),
            detail: doc.get("detail").and_then(Json::as_str).map(str::to_string),
            retry_after_ms: doc.get("retry_after_ms").and_then(Json::as_u64),
            recovered: doc
                .get("recovery")
                .is_some_and(|r| !matches!(r, Json::Null)),
            completed: doc.get("completed").and_then(Json::as_u64),
            rid: doc.get("rid").and_then(Json::as_u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_frame_round_trips() {
        let line = "{\"schema\":\"mpcjoin-wire-v1\",\"type\":\"query\",\"id\":7,\
                    \"session\":\"t1\",\"query\":\"Q(a,c) :- R(a,b), S(b,c)\",\
                    \"servers\":4,\"plan\":\"baseline\",\"limit\":10,\
                    \"relations\":{\"R\":[[1,2],[3,4,2]],\"S\":[[2,5]]}}";
        let Frame::Query(req) = parse_frame(line).unwrap() else {
            panic!("expected a query frame");
        };
        assert_eq!(req.id, 7);
        assert_eq!(req.session, "t1");
        assert_eq!(req.servers, 4);
        assert_eq!(req.plan, "baseline");
        assert_eq!(req.limit, Some(10));
        assert_eq!(req.relations[0].1, vec![vec![1, 2], vec![3, 4, 2]]);
        assert!(req.fault_plan.is_none());
    }

    #[test]
    fn defaults_are_filled_in() {
        let Frame::Query(req) =
            parse_frame("{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\"}").unwrap()
        else {
            panic!("expected a query frame");
        };
        assert_eq!(req.semiring, "count");
        assert_eq!(req.servers, 8);
        assert_eq!(req.plan, "auto");
        assert_eq!(req.limit, None);
        assert!(req.relations.is_empty());
    }

    #[test]
    fn malformed_frames_are_bad_frame_with_offsets() {
        let err = parse_frame("{\"type\":\"query\",").unwrap_err();
        assert_eq!(err.code, "bad_frame");
        assert!(err.detail.contains("byte "), "{}", err.detail);
        let err = parse_frame("[]").unwrap_err();
        assert_eq!(err.code, "bad_frame");
        let err = parse_frame("{\"schema\":\"other-v9\",\"type\":\"ping\"}").unwrap_err();
        assert_eq!(err.code, "bad_frame");
    }

    #[test]
    fn semantic_errors_echo_the_id() {
        let err = parse_frame("{\"type\":\"query\",\"id\":42}").unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id, Some(42));
        let err = parse_frame("{\"type\":\"warp\",\"id\":3}").unwrap_err();
        assert_eq!(err.id, Some(3));
        // Bad row shapes are caught at the frame boundary.
        let err = parse_frame(
            "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"relations\":{\"R\":[[1.5]]}}",
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.detail.contains("integers"));
    }

    #[test]
    fn embedded_fault_plans_parse_and_reject() {
        let line = "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\
                    \"fault_plan\":{\"schema\":\"mpcjoin-faultplan-v1\",\"seed\":9,\
                    \"max_retries\":4,\"backoff_us\":0,\"faults\":[{\"kind\":\"reorder\",\"round\":1}]}}";
        let Frame::Query(req) = parse_frame(line).unwrap() else {
            panic!("expected a query frame");
        };
        assert!(req.fault_plan.is_some());
        let err = parse_frame(
            "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"fault_plan\":{\"nope\":1}}",
        )
        .unwrap_err();
        assert_eq!(err.code, "invalid_fault_plan");
        let err = parse_frame(
            "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"fault_plan\":\
             {\"faults\":[{\"kind\":\"reorder\",\"from\":18446744073709551615}]}}",
        )
        .unwrap_err();
        assert_eq!(err.code, "invalid_fault_plan");
    }

    #[test]
    fn explain_frames_parse_like_queries_and_answer_with_a_plan() {
        let line = "{\"type\":\"explain\",\"id\":5,\"query\":\"Q(a,c) :- R(a,b), S(b,c)\",\
                    \"relations\":{\"R\":[[1,2]],\"S\":[[2,3]]}}";
        let Frame::Explain(req) = parse_frame(line).unwrap() else {
            panic!("expected an explain frame");
        };
        assert_eq!(req.id, 5);
        assert_eq!(req.plan, "auto");

        let body = "{\"schema\":\"mpcjoin-plan-v1\",\"chosen\":\"MatMul\"}";
        let view = ResponseView::parse(&explain_frame(5, body)).unwrap();
        assert_eq!(view.kind, "explain");
        assert_eq!(view.id, Some(5));
        assert_eq!(view.plan.as_deref(), Some(body));
    }

    #[test]
    fn register_flag_parses_and_defaults_off() {
        let Frame::Query(req) = parse_frame(
            "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"register\":true}",
        )
        .unwrap() else {
            panic!("expected a query frame");
        };
        assert!(req.register);
        let Frame::Query(req) =
            parse_frame("{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\"}").unwrap()
        else {
            panic!("expected a query frame");
        };
        assert!(!req.register);
        let err =
            parse_frame("{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"register\":1}")
                .unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id, Some(1));
    }

    #[test]
    fn update_frames_parse_and_answer_with_delta_and_body() {
        let line = "{\"schema\":\"mpcjoin-wire-v1\",\"type\":\"update\",\"id\":3,\
                    \"session\":\"t1\",\"query\":\"Q(a,c) :- R(a,b), S(b,c)\",\
                    \"semiring\":\"count\",\"servers\":4,\
                    \"inserts\":{\"R\":[[9,2]]},\"deletes\":{\"S\":[[2,5]]}}";
        let Frame::Update(req) = parse_frame(line).unwrap() else {
            panic!("expected an update frame");
        };
        assert_eq!(req.id, 3);
        assert_eq!(req.session, "t1");
        assert_eq!(req.servers, 4);
        assert_eq!(req.plan, "auto");
        assert_eq!(req.inserts, vec![("R".to_string(), vec![vec![9, 2]])]);
        assert_eq!(req.deletes, vec![("S".to_string(), vec![vec![2, 5]])]);

        let delta = Json::Obj(vec![("class".into(), Json::Str("ring_delta".into()))]);
        let body = "{\"plan\":\"MatMul\",\"load\":12,\"rows\":[]}";
        let view = ResponseView::parse(&update_frame(3, 99, &delta, body)).unwrap();
        assert_eq!(view.kind, "update");
        assert_eq!(view.id, Some(3));
        assert_eq!(view.load, Some(12));
        assert_eq!(view.result.as_deref(), Some(body), "body spliced verbatim");
        assert_eq!(view.delta.as_deref(), Some("{\"class\":\"ring_delta\"}"));
    }

    #[test]
    fn update_frames_are_validated_like_query_frames() {
        // Missing id.
        let err = parse_frame(
            "{\"type\":\"update\",\"query\":\"Q(a) :- R(a)\",\"inserts\":{\"R\":[[1]]}}",
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
        // Missing query.
        let err =
            parse_frame("{\"type\":\"update\",\"id\":1,\"inserts\":{\"R\":[[1]]}}").unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id, Some(1));
        // Empty delta.
        let err =
            parse_frame("{\"type\":\"update\",\"id\":1,\"query\":\"Q(a) :- R(a)\"}").unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.detail.contains("at least one"), "{}", err.detail);
        // Non-integer rows are caught at the frame boundary.
        let err = parse_frame(
            "{\"type\":\"update\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"inserts\":{\"R\":[[0.5]]}}",
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.detail.contains("integers"));
        // Row-width cap applies to deletes too.
        let wide = format!(
            "{{\"type\":\"update\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"deletes\":{{\"R\":[[{}]]}}}}",
            vec!["1"; MAX_ROW_WIDTH + 1].join(",")
        );
        let err = parse_frame(&wide).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.detail.contains("too wide"), "{}", err.detail);
    }

    #[test]
    fn response_frames_parse_back() {
        let body = "{\"plan\":\"MatMul\",\"load\":12,\"rows\":[]}";
        let line = result_frame(9, true, 1234, None, body);
        let view = ResponseView::parse(&line).unwrap();
        assert_eq!(view.kind, "result");
        assert_eq!(view.id, Some(9));
        assert!(view.cached);
        assert_eq!(view.load, Some(12));
        assert_eq!(view.result.as_deref(), Some(body));
        assert!(!view.recovered);

        let line = error_frame(Some(3), "overloaded", "queue full", Some(25));
        let view = ResponseView::parse(&line).unwrap();
        assert_eq!(view.kind, "error");
        assert_eq!(view.code.as_deref(), Some("overloaded"));
        assert_eq!(view.retry_after_ms, Some(25));

        let view = ResponseView::parse(&pong_frame(Some(1))).unwrap();
        assert_eq!(view.kind, "pong");
        let view = ResponseView::parse(&shutdown_ack_frame(None, 17)).unwrap();
        assert_eq!(view.completed, Some(17));
    }

    #[test]
    fn stats_frames_carry_an_optional_format() {
        let Frame::Stats { id, format } = parse_frame("{\"type\":\"stats\",\"id\":2}").unwrap()
        else {
            panic!("expected a stats frame");
        };
        assert_eq!((id, format), (Some(2), None));
        let Frame::Stats { format, .. } =
            parse_frame("{\"type\":\"stats\",\"format\":\"text\"}").unwrap()
        else {
            panic!("expected a stats frame");
        };
        assert_eq!(format.as_deref(), Some("text"));
        let err = parse_frame("{\"type\":\"stats\",\"id\":1,\"format\":7}").unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id, Some(1));
    }

    #[test]
    fn stamp_rid_appends_without_touching_the_body() {
        let body = "{\"plan\":\"Line\",\"load\":3,\"rows\":[[[1,7],\"Count(2)\"]]}";
        let stamped = stamp_rid(&result_frame(9, true, 5, None, body), 42);
        let view = ResponseView::parse(&stamped).unwrap();
        assert_eq!(view.rid, Some(42));
        assert_eq!(view.id, Some(9));
        assert_eq!(view.result.as_deref(), Some(body), "body bytes untouched");
        // Every response-frame builder stays parseable after stamping.
        for frame in [
            error_frame(None, "overloaded", "queue full", Some(25)),
            pong_frame(Some(1)),
            explain_frame(5, "{\"schema\":\"mpcjoin-plan-v1\"}"),
            shutdown_ack_frame(None, 3),
        ] {
            let view = ResponseView::parse(&stamp_rid(&frame, 7)).unwrap();
            assert_eq!(view.rid, Some(7), "{frame}");
        }
    }

    #[test]
    fn write_frame_puts_one_stamped_line_in_one_write() {
        /// Logs every `write` call it receives.
        #[derive(Default)]
        struct Recorder(Vec<Vec<u8>>);
        impl Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // A body the size of the largest cached replies (> 52 KiB).
        let rows: Vec<String> = (0..2400)
            .map(|i| format!("[[{i},{}],\"Count(1)\"]", i % 97))
            .collect();
        let body = format!("{{\"plan\":\"MatMul\",\"rows\":[{}]}}", rows.join(","));
        assert!(body.len() > 52 * 1024);
        let frame = result_frame(3, true, 17, None, &body);
        assert!(
            frame.capacity() - frame.len() >= LINE_TAIL,
            "the builder reserved the stamp and newline"
        );
        let mut w = Recorder::default();
        write_frame(&mut w, frame.clone(), Some(99)).unwrap();
        assert_eq!(w.0.len(), 1, "exactly one write call per frame");
        let line = String::from_utf8(w.0.remove(0)).unwrap();
        assert_eq!(line, format!("{}\n", stamp_rid(&frame, 99)));
        assert!(
            line.ends_with(",\"rid\":99}\n"),
            "rid sits before the final brace"
        );
        assert!(
            line.contains(&format!("\"result\":{body},\"rid\"")),
            "body bytes spliced verbatim"
        );

        // The client path: no stamp, still one write.
        write_frame(&mut w, pong_frame(Some(1)), None).unwrap();
        assert_eq!(w.0, [format!("{}\n", pong_frame(Some(1))).into_bytes()]);
    }

    #[test]
    fn deadline_ms_parses_and_defaults_to_none() {
        let Frame::Query(req) = parse_frame(
            "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"deadline_ms\":250}",
        )
        .unwrap() else {
            panic!("expected a query frame");
        };
        assert_eq!(req.deadline_ms, Some(250));
        let Frame::Query(req) =
            parse_frame("{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\"}").unwrap()
        else {
            panic!("expected a query frame");
        };
        assert_eq!(req.deadline_ms, None);
        let err = parse_frame(
            "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"deadline_ms\":-5}",
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn header_sanity_limits_reject_with_bad_request() {
        let long_query = format!(
            "{{\"type\":\"query\",\"id\":1,\"query\":\"{}\"}}",
            "Q".repeat(MAX_QUERY_BYTES + 1)
        );
        let err = parse_frame(&long_query).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.detail.contains("too long"), "{}", err.detail);

        let long_session = format!(
            "{{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"session\":\"{}\"}}",
            "s".repeat(MAX_SESSION_BYTES + 1)
        );
        let err = parse_frame(&long_session).unwrap_err();
        assert_eq!(err.code, "bad_request");

        let relations = (0..=MAX_RELATIONS)
            .map(|i| format!("\"R{i}\":[[1]]"))
            .collect::<Vec<_>>()
            .join(",");
        let many = format!(
            "{{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"relations\":{{{relations}}}}}"
        );
        let err = parse_frame(&many).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.detail.contains("too many relations"), "{}", err.detail);

        let wide_row = format!(
            "{{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"relations\":{{\"R\":[[{}]]}}}}",
            vec!["1"; MAX_ROW_WIDTH + 1].join(",")
        );
        let err = parse_frame(&wide_row).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert!(err.detail.contains("too wide"), "{}", err.detail);

        // One frame must not be able to park a worker forever.
        for (delay, ok) in [
            (MAX_DELAY_MS, true),
            (MAX_DELAY_MS + 1, false),
            (u64::MAX, false),
        ] {
            let line = format!(
                "{{\"type\":\"query\",\"id\":1,\"query\":\"Q(a) :- R(a)\",\"delay_ms\":{delay}}}"
            );
            match parse_frame(&line) {
                Ok(_) => assert!(ok, "delay_ms {delay} must be rejected"),
                Err(err) => {
                    assert!(!ok, "delay_ms {delay} is within the cap");
                    assert_eq!(err.code, "bad_request");
                    assert_eq!(err.id, Some(1));
                    assert!(err.detail.contains("delay_ms"), "{}", err.detail);
                }
            }
        }
    }

    #[test]
    fn sessions_default_once_for_every_session_scoped_frame() {
        let session_of = |frame: &Frame| match frame {
            Frame::Query(req) | Frame::Explain(req) => req.session.clone(),
            Frame::Update(req) => req.session.clone(),
            other => panic!("no session on {other:?}"),
        };
        for kind in ["query", "explain", "update"] {
            let tail = "\"id\":1,\"query\":\"Q(a) :- R(a)\",\"inserts\":{\"R\":[[1]]}";
            let mut anonymous = parse_frame(&format!("{{\"type\":\"{kind}\",{tail}}}")).unwrap();
            anonymous.default_session("conn-7");
            assert_eq!(
                session_of(&anonymous),
                "conn-7",
                "{kind}: empty session defaults"
            );
            let mut named = parse_frame(&format!(
                "{{\"type\":\"{kind}\",\"session\":\"t1\",{tail}}}"
            ))
            .unwrap();
            named.default_session("conn-7");
            assert_eq!(session_of(&named), "t1", "{kind}: client session wins");
        }
        // Frames without a session are left alone.
        let mut ping = parse_frame("{\"type\":\"ping\",\"id\":4}").unwrap();
        ping.default_session("conn-7");
        assert!(matches!(ping, Frame::Ping { id: Some(4) }));
    }

    #[test]
    fn bounded_reader_reports_each_failure_structurally() {
        use std::io::BufReader;

        // Clean lines, CRLF tolerated, unterminated tail returned.
        let mut r = BufReader::new(&b"alpha\r\nbeta\ngamma"[..]);
        assert!(matches!(read_frame_line(&mut r, 64), LineOutcome::Line(s) if s == "alpha"));
        assert!(matches!(read_frame_line(&mut r, 64), LineOutcome::Line(s) if s == "beta"));
        assert!(matches!(read_frame_line(&mut r, 64), LineOutcome::Line(s) if s == "gamma"));
        assert!(matches!(read_frame_line(&mut r, 64), LineOutcome::Eof));

        // Oversized: never buffers more than the cap.
        let big = vec![b'x'; 1024];
        let mut r = BufReader::new(&big[..]);
        let out = read_frame_line(&mut r, 100);
        assert!(
            matches!(out, LineOutcome::Oversized { limit: 100 }),
            "{out:?}"
        );
        assert!(out.to_wire_error().unwrap().detail.contains("100"));

        // Invalid UTF-8 carries the offending byte offset.
        let mut r = BufReader::new(&b"ok\xff\xfe\n"[..]);
        let out = read_frame_line(&mut r, 64);
        assert!(matches!(out, LineOutcome::NonUtf8 { offset: 2 }), "{out:?}");
        let err = out.to_wire_error().unwrap();
        assert_eq!(err.code, "bad_frame");
        assert!(err.detail.contains("byte 2"), "{}", err.detail);
    }

    #[test]
    fn result_frame_splices_the_body_verbatim() {
        // The body is spliced as raw bytes: any deterministic serializer
        // output survives the frame round-trip bit-exactly.
        let body = "{\"plan\":\"Line\",\"load\":3,\"rows\":[[[1,7],\"Count(2)\"]]}";
        let cold = result_frame(1, false, 111, None, body);
        let hit = result_frame(2, true, 222, None, body);
        let a = ResponseView::parse(&cold).unwrap().result.unwrap();
        let b = ResponseView::parse(&hit).unwrap().result.unwrap();
        assert_eq!(a, b);
        assert_eq!(a, body);
    }
}
