//! The observability plane: request-scoped spans, windowed server
//! metrics, a bound-regression watchdog, and the structured operational
//! log — std-only, always-on, and invisible to results.
//!
//! ## What lives here
//!
//! [`Obs`] is one shared aggregator threaded through the whole serving
//! stack (wire → admission → queue → cache → executor → engine):
//!
//! * **Request ids and spans.** The wire layer allocates a monotone
//!   request id (`rid`) per incoming frame ([`Obs::next_rid`]); every
//!   response frame echoes it (`wire::write_frame`), and the request's
//!   trip through the stack is measured as per-phase wall-clock spans
//!   ([`RequestSpans`]: queue wait, cache lookup, engine rounds,
//!   serialization, total). Per-query trace artifacts are tagged with
//!   the rid (the `request` member of `Trace::to_json`), linking the
//!   span to the `mpcjoin-trace-v3` round events it envelopes.
//! * **Windowed server metrics.** Log₂-bucket latency histograms per
//!   phase and per plan-kind, monotone counters (per frame kind,
//!   semiring, error code, rejection reason), and point-in-time gauges
//!   (queue depth, in-flight jobs, cache bytes, uptime). Counters and
//!   histograms are cumulative-monotone — scrapers diff between
//!   scrapes; the watchdog additionally keeps a bounded *window* of
//!   recent audit ratios for an at-a-glance recent-health readout.
//! * **Bound-regression watchdog.** Every cold run's [`AuditVerdict`]
//!   ratio is recorded; a run past `0.8·(slack·bound + additive)`
//!   ([`NEAR_FRACTION`]) counts as a *near-violation* and lands in a
//!   bounded slow-query log together with the query's explain artifact
//!   (`mpcjoin-plan-v1`) and recovery report, so a creeping bound
//!   regression is diagnosable post-hoc without re-running anything.
//! * **Operational log.** A JSONL event log (schema [`LOG_SCHEMA`],
//!   `mpcjoin-log-v1`) behind `mpcjoin-serve --log FILE`: lifecycle,
//!   request, rejection, completion (with spans), and watchdog events,
//!   each stamped with a monotone `ts_ns` (file order is monotone — the
//!   timestamp is taken under the writer lock).
//!
//! Everything is exposed two ways: the `mpcjoin-serverstats-v1` JSON
//! payload ([`Obs::stats_json`], served in expanded `stats` frames) and
//! a line-oriented text exposition ([`Obs::stats_text`], served via
//! `{"type":"stats","format":"text"}` and dumped by `--obs-dump FILE`).
//!
//! ## The invisibility invariant
//!
//! The plane measures wall-clock and counts events *around* the engine;
//! it never reaches inside a run. Canonical result bodies and the cost
//! ledger are therefore bit-identical with the log/dump enabled or
//! disabled — pinned by `tests/tests/serve.rs` across thread counts,
//! exactly like the trace and metrics planes before it.
//!
//! ## Validation
//!
//! [`check`] (the library half of `mpcjoin-check obs`) validates a log
//! file line-by-line ([`check_log`]) and cross-validates its event
//! counts ([`cross_check`]) against a scraped serverstats payload
//! ([`StatsView`]) and a loadgen run's client-side tallies
//! (`mpcjoin-bench-server-v1`): every query frame is either rejected or
//! completed, server-side completion / rejection / cache-hit counters
//! equal both the log's event counts and the client's
//! ([`reconcile_client`], which `loadgen` also runs on its own scrape),
//! and nothing was lost or duplicated.

use crate::cache::CacheStats;
use crate::sched::SchedStats;
use crate::wire::WireError;
use mpcjoin::mpc::json::Json;
use mpcjoin::mpc::metrics::LogHistogram;
use mpcjoin::prelude::AuditVerdict;
use mpcjoin_bench::{Artifact, ServerArtifact, ServerRecord};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag of the server stats payload.
pub const SERVERSTATS_SCHEMA: &str = "mpcjoin-serverstats-v1";
/// Schema tag of operational-log lines.
pub const LOG_SCHEMA: &str = "mpcjoin-log-v1";
/// Fraction of the audit envelope (`slack·bound + additive`) beyond
/// which a run counts as a near-violation.
pub const NEAR_FRACTION: f64 = 0.8;
/// Capacity of the watchdog's recent-ratio window.
pub const RATIO_WINDOW: usize = 512;
/// Capacity of the bounded slow-query log (oldest entries fall off).
pub const SLOW_QUERY_CAP: usize = 16;

/// The span phases, in pipeline order. `total` covers the whole trip
/// (including the phases not individually measured, e.g. validation).
pub const PHASES: [&str; 5] = ["queue", "cache", "engine", "serialize", "total"];

/// Per-phase wall-clock spans of one request's trip through the stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestSpans {
    /// Admission-queue wait (enqueue → worker pickup).
    pub queue_ns: u64,
    /// Digest + result-cache lookup.
    pub cache_ns: u64,
    /// Simulated-cluster execution (envelopes the trace's round events).
    pub engine_ns: u64,
    /// Canonical-body + recovery serialization.
    pub serialize_ns: u64,
    /// Whole trip, pickup → response frame ready.
    pub total_ns: u64,
}

impl RequestSpans {
    /// Serialize for `complete` log events.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("queue_ns".into(), Json::Num(self.queue_ns as f64)),
            ("cache_ns".into(), Json::Num(self.cache_ns as f64)),
            ("engine_ns".into(), Json::Num(self.engine_ns as f64)),
            ("serialize_ns".into(), Json::Num(self.serialize_ns as f64)),
            ("total_ns".into(), Json::Num(self.total_ns as f64)),
        ])
    }
}

/// Identity of the request a measurement belongs to (for log events and
/// slow-query records).
#[derive(Clone, Debug)]
pub struct RequestTag {
    /// Server-allocated request id (echoed on the response frame).
    pub rid: u64,
    /// Client-chosen request id.
    pub id: u64,
    /// Admission-quota session.
    pub session: String,
}

impl RequestTag {
    /// The tag's members, for embedding into log events.
    pub(crate) fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("rid".into(), Json::Num(self.rid as f64)),
            ("id".into(), Json::Num(self.id as f64)),
            ("session".into(), Json::Str(self.session.clone())),
        ]
    }

    /// The `request` member embedded into tagged trace artifacts.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields())
    }
}

/// One bounded slow-query record captured by the watchdog: everything
/// needed to diagnose a near-violation after the fact.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Who triggered it.
    pub tag: RequestTag,
    /// Plan that ran.
    pub plan: String,
    /// `measured / bound` of the offending run.
    pub ratio: f64,
    /// Measured load in units.
    pub measured: u64,
    /// The plan's Table-1 bound.
    pub bound: f64,
    /// Whether the run actually violated the envelope (vs merely near).
    pub violation: bool,
    /// The query's `mpcjoin-plan-v1` explain artifact, when compilable.
    pub explain: Option<Json>,
    /// The run's `mpcjoin-recovery-v1` report, when it ran faulted.
    pub recovery: Option<Json>,
}

impl SlowQuery {
    fn to_json(&self) -> Json {
        let mut members = self.tag.fields();
        members.extend([
            ("plan".into(), Json::Str(self.plan.clone())),
            (
                "ratio".into(),
                if self.ratio.is_finite() {
                    Json::Num(self.ratio)
                } else {
                    Json::Null
                },
            ),
            ("measured".into(), Json::Num(self.measured as f64)),
            ("bound".into(), Json::Num(self.bound)),
            ("violation".into(), Json::Bool(self.violation)),
            ("explain".into(), self.explain.clone().unwrap_or(Json::Null)),
            (
                "recovery".into(),
                self.recovery.clone().unwrap_or(Json::Null),
            ),
        ]);
        Json::Obj(members)
    }
}

#[derive(Default)]
struct Watchdog {
    audited: u64,
    near_violations: u64,
    violations: u64,
    /// Cumulative distribution of `ratio·1000` (milli-ratio).
    ratio_milli: LogHistogram,
    /// Recent ratios, newest last, capped at [`RATIO_WINDOW`].
    window: VecDeque<f64>,
    /// Bounded slow-query log, newest last.
    slow: VecDeque<SlowQuery>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    latency: BTreeMap<&'static str, LogHistogram>,
    plans: BTreeMap<String, LogHistogram>,
    watchdog: Watchdog,
}

/// The shared observability plane. One per server (owned by the
/// scheduler, shared with the executor and the connection threads);
/// internally synchronized and cheap to touch — one short-critical-
/// section mutex for aggregates, atomics for gauges, and a separate
/// writer lock for the log so file IO never blocks metrics.
pub struct Obs {
    started: Instant,
    rid: AtomicU64,
    queue_depth: AtomicI64,
    in_flight: AtomicI64,
    inner: Mutex<Inner>,
    log: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A plane with metrics on and the operational log disabled.
    pub fn new() -> Obs {
        Obs {
            started: Instant::now(),
            rid: AtomicU64::new(0),
            queue_depth: AtomicI64::new(0),
            in_flight: AtomicI64::new(0),
            inner: Mutex::new(Inner::default()),
            log: None,
        }
    }

    /// A plane that additionally appends `mpcjoin-log-v1` lines to
    /// `path` (truncating any previous file).
    pub fn with_log(path: &Path) -> std::io::Result<Obs> {
        let file = std::fs::File::create(path)?;
        Ok(Obs {
            log: Some(Mutex::new(std::io::BufWriter::new(file))),
            ..Obs::new()
        })
    }

    /// Nanoseconds since the plane (≈ the server) started.
    pub fn uptime_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Allocate the next request id (1-based, monotone per server).
    pub fn next_rid(&self) -> u64 {
        self.rid.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bump a monotone counter.
    pub fn count(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock().expect("obs lock");
        *inner.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Read one monotone counter (0 when it was never bumped).
    pub fn counter_value(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("obs lock");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Record one request's spans into the per-phase histograms.
    pub fn observe_spans(&self, spans: &RequestSpans) {
        let mut inner = self.inner.lock().expect("obs lock");
        for (phase, ns) in [
            ("queue", spans.queue_ns),
            ("cache", spans.cache_ns),
            ("engine", spans.engine_ns),
            ("serialize", spans.serialize_ns),
            ("total", spans.total_ns),
        ] {
            inner.latency.entry(phase).or_default().observe(ns);
        }
    }

    /// Record a completed run's total latency under its plan kind.
    pub fn observe_plan(&self, plan: &str, total_ns: u64) {
        let mut inner = self.inner.lock().expect("obs lock");
        inner
            .plans
            .entry(plan.to_string())
            .or_default()
            .observe(total_ns);
    }

    /// Gauge: a job entered the admission queue.
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Gauge: a worker picked a job up (queue → in-flight).
    pub fn job_start(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Gauge: the job's response was produced.
    pub fn job_end(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed).max(0) as u64
    }

    /// Currently executing jobs.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed).max(0) as u64
    }

    /// Feed one cold run's audit verdict to the watchdog. When the run
    /// is past [`NEAR_FRACTION`] of the envelope, `capture` is invoked
    /// (lazily — the slow path only) for the explain artifact and
    /// recovery report, the record lands in the bounded slow-query log,
    /// and a `near_violation` / `bound_violation` event is logged.
    /// Returns whether the run was a near-violation.
    pub fn record_audit(
        &self,
        tag: &RequestTag,
        verdict: &AuditVerdict,
        capture: impl FnOnce() -> (Option<Json>, Option<Json>),
    ) -> bool {
        let near = verdict.near_violation(NEAR_FRACTION);
        let violation = !verdict.within;
        let ratio = verdict.ratio;
        {
            let mut inner = self.inner.lock().expect("obs lock");
            let w = &mut inner.watchdog;
            w.audited += 1;
            if ratio.is_finite() {
                w.ratio_milli.observe((ratio * 1000.0).max(0.0) as u64);
                w.window.push_back(ratio);
                if w.window.len() > RATIO_WINDOW {
                    w.window.pop_front();
                }
            }
            if near {
                w.near_violations += 1;
                if violation {
                    w.violations += 1;
                }
            }
        }
        if near {
            let (explain, recovery) = capture();
            let slow = SlowQuery {
                tag: tag.clone(),
                plan: format!("{:?}", verdict.plan),
                ratio,
                measured: verdict.measured,
                bound: verdict.bound,
                violation,
                explain,
                recovery,
            };
            let mut fields = tag.fields();
            fields.extend([
                ("plan".into(), Json::Str(slow.plan.clone())),
                (
                    "ratio".into(),
                    if ratio.is_finite() {
                        Json::Num(ratio)
                    } else {
                        Json::Null
                    },
                ),
                ("measured".into(), Json::Num(verdict.measured as f64)),
                ("bound".into(), Json::Num(verdict.bound)),
            ]);
            let (level, event) = if violation {
                ("error", "bound_violation")
            } else {
                ("warn", "near_violation")
            };
            self.log_event(level, event, fields);
            let mut inner = self.inner.lock().expect("obs lock");
            let w = &mut inner.watchdog;
            w.slow.push_back(slow);
            if w.slow.len() > SLOW_QUERY_CAP {
                w.slow.pop_front();
            }
        }
        near
    }

    /// The current slow-query log, oldest first (for tests and dumps;
    /// scrapers read it from the stats payload).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        let inner = self.inner.lock().expect("obs lock");
        inner.watchdog.slow.iter().cloned().collect()
    }

    /// Append one event line to the operational log (no-op when the log
    /// is disabled). `ts_ns` is taken *under the writer lock*, so file
    /// order is monotone in `ts_ns` by construction. Best-effort: an IO
    /// error is reported to stderr, never to the caller — observability
    /// must not fail a query.
    pub fn log_event(&self, level: &str, event: &str, fields: Vec<(String, Json)>) {
        let Some(log) = &self.log else {
            return;
        };
        let mut w = log.lock().expect("obs log lock");
        let mut members = vec![
            ("schema".into(), Json::Str(LOG_SCHEMA.into())),
            ("ts_ns".into(), Json::Num(self.uptime_ns() as f64)),
            ("level".into(), Json::Str(level.into())),
            ("event".into(), Json::Str(event.into())),
        ];
        members.extend(fields);
        let line = Json::Obj(members).to_string_sanitized();
        if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
            eprintln!("obs log write failed: {e}");
        }
    }

    /// The one place a [`WireError`] becomes a frame: counted under
    /// `error.{code}`, then rendered. Every error answer — a rejection,
    /// a failed run, a bad control frame — leaves through here, so the
    /// counter and the wire can never disagree about a code.
    pub fn error_frame(&self, e: &WireError) -> String {
        self.count(&format!("error.{}", e.code), 1);
        e.to_frame()
    }

    /// The rejection epilogue: log the `reject` event for a request that
    /// will not run (`origin` names who sent it — the session of an
    /// admitted frame, the connection of an unparseable one), then count
    /// and render its error frame.
    pub fn reject(&self, rid: u64, origin: (&str, Json), e: &WireError) -> String {
        let id = e.id.map_or(Json::Null, |v| Json::Num(v as f64));
        let fields = vec![
            ("rid".into(), Json::Num(rid as f64)),
            ("id".into(), id),
            (origin.0.into(), origin.1),
            ("reason".into(), Json::Str(e.code.into())),
        ];
        self.log_event("info", "reject", fields);
        self.error_frame(e)
    }

    /// The full `mpcjoin-serverstats-v1` payload.
    pub fn stats_json(&self, sched: &SchedStats, cache: &CacheStats) -> Json {
        let inner = self.inner.lock().expect("obs lock");
        let hist_map = |m: &BTreeMap<String, LogHistogram>| {
            Json::Obj(m.iter().map(|(k, h)| (k.clone(), h.to_json())).collect())
        };
        let w = &inner.watchdog;
        let window = {
            let mut sorted: Vec<f64> = w.window.iter().copied().collect();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            let pct = |q: f64| -> f64 {
                if sorted.is_empty() {
                    0.0
                } else {
                    sorted[((sorted.len() as f64 - 1.0) * q).floor() as usize]
                }
            };
            Json::Obj(vec![
                ("len".into(), Json::Num(sorted.len() as f64)),
                ("p50".into(), Json::Num(pct(0.50))),
                ("p95".into(), Json::Num(pct(0.95))),
                (
                    "max".into(),
                    Json::Num(sorted.last().copied().unwrap_or(0.0)),
                ),
            ])
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str(SERVERSTATS_SCHEMA.into())),
            ("uptime_ns".into(), Json::Num(self.uptime_ns() as f64)),
            ("queue_depth".into(), Json::Num(self.queue_depth() as f64)),
            ("in_flight".into(), Json::Num(self.in_flight() as f64)),
            ("sched".into(), counters_json(&sched.fields())),
            ("cache".into(), counters_json(&cache.fields())),
            (
                "counters".into(),
                Json::Obj(
                    inner
                        .counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "latency".into(),
                Json::Obj(
                    PHASES
                        .iter()
                        .map(|&p| {
                            (
                                p.to_string(),
                                inner.latency.get(p).cloned().unwrap_or_default().to_json(),
                            )
                        })
                        .collect(),
                ),
            ),
            ("plans".into(), hist_map(&inner.plans)),
            (
                "watchdog".into(),
                Json::Obj(vec![
                    ("audited".into(), Json::Num(w.audited as f64)),
                    (
                        "near_violations".into(),
                        Json::Num(w.near_violations as f64),
                    ),
                    ("violations".into(), Json::Num(w.violations as f64)),
                    ("ratio_milli".into(), w.ratio_milli.to_json()),
                    ("window".into(), window),
                    (
                        "slow_queries".into(),
                        Json::Arr(w.slow.iter().map(SlowQuery::to_json).collect()),
                    ),
                ]),
            ),
        ])
    }

    /// Line-oriented text exposition of [`Obs::stats_json`], suitable
    /// for scraping and for the `--obs-dump` file. Deterministic line
    /// order; `p50`/`p95` are bucket-estimates ([`LogHistogram::quantile_upper`]).
    pub fn stats_text(&self, sched: &SchedStats, cache: &CacheStats) -> String {
        let inner = self.inner.lock().expect("obs lock");
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("# {SERVERSTATS_SCHEMA} text exposition"));
        line(format!("mpcjoin_uptime_ns {}", self.uptime_ns()));
        line(format!("mpcjoin_queue_depth {}", self.queue_depth()));
        line(format!("mpcjoin_in_flight {}", self.in_flight()));
        for (name, v) in sched.fields() {
            line(format!("mpcjoin_sched{{counter=\"{name}\"}} {v}"));
        }
        for (name, v) in cache.fields() {
            line(format!("mpcjoin_cache{{counter=\"{name}\"}} {v}"));
        }
        for (name, v) in &inner.counters {
            line(format!("mpcjoin_counter{{name=\"{name}\"}} {v}"));
        }
        let hist_lines =
            |out: &mut dyn FnMut(String), metric: &str, key: &str, h: &LogHistogram| {
                for (stat, v) in [
                    ("count", h.count),
                    ("sum", h.sum),
                    ("p50", h.quantile_upper(0.50)),
                    ("p95", h.quantile_upper(0.95)),
                    ("max", h.max),
                ] {
                    out(format!("{metric}{{{key},stat=\"{stat}\"}} {v}"));
                }
            };
        for phase in PHASES {
            let h = inner.latency.get(phase).cloned().unwrap_or_default();
            hist_lines(
                &mut line,
                "mpcjoin_latency_ns",
                &format!("phase=\"{phase}\""),
                &h,
            );
        }
        for (plan, h) in &inner.plans {
            hist_lines(
                &mut line,
                "mpcjoin_plan_latency_ns",
                &format!("plan=\"{plan}\""),
                h,
            );
        }
        let w = &inner.watchdog;
        for (name, v) in [
            ("audited", w.audited),
            ("near_violations", w.near_violations),
            ("violations", w.violations),
        ] {
            line(format!("mpcjoin_watchdog{{counter=\"{name}\"}} {v}"));
        }
        hist_lines(
            &mut line,
            "mpcjoin_watchdog_ratio_milli",
            "window=\"cumulative\"",
            &w.ratio_milli,
        );
        out
    }
}

/// A `(name, value)` counter list as a JSON object, in list order.
fn counters_json(fields: &[(&str, u64)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|&(name, v)| (name.to_string(), Json::Num(v as f64)))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Readers: the parsers `mpcjoin-check obs` (and the fuzz suite) drive.
// Strict on the members the cross-checks rely on, tolerant of additions.
// ---------------------------------------------------------------------------

/// A parsed `mpcjoin-log-v1` line.
#[derive(Clone, Debug)]
pub struct LogEventView {
    /// Monotone nanosecond timestamp (since server start).
    pub ts_ns: u64,
    /// `info` / `warn` / `error`.
    pub level: String,
    /// Event name (`request`, `reject`, `complete`, …).
    pub event: String,
    /// The full parsed line, for event-specific members.
    pub doc: Json,
}

impl LogEventView {
    /// Parse and validate one log line.
    pub fn parse(line: &str) -> Result<LogEventView, String> {
        let doc = Json::parse(line).map_err(|e| format!("unparseable log line: {e}"))?;
        doc.expect_schema(LOG_SCHEMA)?;
        let ts_ns = doc.field_u64("ts_ns")?;
        let level = doc.field_str("level")?.to_string();
        if !matches!(level.as_str(), "info" | "warn" | "error") {
            return Err(format!("unknown log level `{level}`"));
        }
        let event = doc.field_str("event")?.to_string();
        if event.is_empty() {
            return Err("empty `event`".into());
        }
        Ok(LogEventView {
            ts_ns,
            level,
            event,
            doc,
        })
    }
}

/// A parsed `mpcjoin-serverstats-v1` payload.
#[derive(Clone, Debug)]
pub struct StatsView {
    doc: Json,
}

impl StatsView {
    /// Parse and validate a stats payload document — bare, or nested
    /// under the `stats` member of a `stats` response frame (what
    /// `loadgen --stats-out` saves).
    pub fn parse(text: &str) -> Result<StatsView, String> {
        let doc = Json::parse(text).map_err(|e| format!("unparseable stats: {e}"))?;
        let doc = match doc.get("stats") {
            Some(payload) => payload.clone(),
            None => doc,
        };
        doc.expect_schema(SERVERSTATS_SCHEMA)?;
        let view = StatsView { doc };
        // The members every cross-check relies on must be present.
        for path in [
            &["uptime_ns"][..],
            &["queue_depth"],
            &["in_flight"],
            &["sched", "admitted"],
            &["sched", "completed"],
            &["sched", "rejected_overload"],
            &["sched", "rejected_quota"],
            &["sched", "rejected_draining"],
            &["cache", "hits"],
            &["cache", "misses"],
            &["watchdog", "audited"],
            &["watchdog", "near_violations"],
            &["watchdog", "violations"],
        ] {
            view.num(path)
                .ok_or_else(|| format!("stats payload missing integer `{}`", path.join(".")))?;
        }
        if view.doc.get("latency").is_none() {
            return Err("stats payload missing `latency`".into());
        }
        Ok(view)
    }

    /// Integer member at a `.`-path.
    pub fn num(&self, path: &[&str]) -> Option<u64> {
        let mut cur = &self.doc;
        for k in path {
            cur = cur.get(k)?;
        }
        cur.as_u64()
    }

    /// A named monotone counter (0 when absent — counters are created
    /// on first touch).
    pub fn counter(&self, name: &str) -> u64 {
        self.num(&["counters", name]).unwrap_or(0)
    }
}

/// Event-count summary of a validated operational log.
#[derive(Clone, Debug, Default)]
pub struct LogSummary {
    /// Total lines.
    pub lines: u64,
    /// Count per event name.
    pub events: BTreeMap<String, u64>,
    /// `request` events per frame kind (`query`, `explain`, `ping`, …).
    pub requests_by_kind: BTreeMap<String, u64>,
    /// `reject` events per reason code.
    pub rejects_by_reason: BTreeMap<String, u64>,
    /// `complete` events with `kind == "query"`.
    pub completes_query: u64,
    /// …of which served from the cache.
    pub completes_cached: u64,
    /// …of which answered with an error frame.
    pub completes_error: u64,
    /// `complete` events with `kind == "explain"`.
    pub completes_explain: u64,
    /// `complete` events with `kind == "update"`.
    pub completes_update: u64,
    /// …of which answered with an error frame.
    pub completes_update_error: u64,
}

/// Validate a full operational log: every line parses as
/// `mpcjoin-log-v1`, levels are known, `ts_ns` is non-decreasing in
/// file order, and known events carry their required members. Returns
/// the event-count summary used by [`cross_check`].
pub fn check_log(text: &str) -> Result<LogSummary, Vec<String>> {
    let mut errors = Vec::new();
    let mut summary = LogSummary::default();
    let mut last_ts = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut fail = |e: String| errors.push(format!("line {}: {e}", lineno + 1));
        let ev = match LogEventView::parse(line) {
            Ok(ev) => ev,
            Err(e) => {
                fail(e);
                continue;
            }
        };
        if ev.ts_ns < last_ts {
            fail(format!("ts_ns went backwards ({} < {last_ts})", ev.ts_ns));
        }
        last_ts = ev.ts_ns;
        summary.lines += 1;
        *summary.events.entry(ev.event.clone()).or_insert(0) += 1;
        let member = |k: &str| {
            ev.doc
                .field_str(k)
                .map_err(|e| format!("{}: {e}", ev.event))
        };
        match ev.event.as_str() {
            "request" => match member("kind") {
                Ok(kind) => *summary.requests_by_kind.entry(kind.into()).or_insert(0) += 1,
                Err(e) => fail(e),
            },
            "reject" => match member("reason") {
                Ok(reason) => *summary.rejects_by_reason.entry(reason.into()).or_insert(0) += 1,
                Err(e) => fail(e),
            },
            "complete" => match member("kind").and_then(|k| Ok((k, member("outcome")?))) {
                Err(e) => fail(e),
                Ok((kind @ ("query" | "update"), outcome)) => {
                    let error = outcome == "error";
                    if !error && outcome != "result" {
                        fail(format!("unknown {kind} outcome `{outcome}`"));
                    }
                    if kind == "query" {
                        summary.completes_query += 1;
                        summary.completes_cached +=
                            u64::from(ev.doc.get("cached") == Some(&Json::Bool(true)));
                        summary.completes_error += u64::from(error);
                    } else {
                        summary.completes_update += 1;
                        summary.completes_update_error += u64::from(error);
                    }
                }
                Ok(("explain", _)) => summary.completes_explain += 1,
                Ok((kind, _)) => fail(format!("complete with unknown kind `{kind}`")),
            },
            _ => {} // lifecycle / watchdog events need no extra members
        }
    }
    if errors.is_empty() {
        Ok(summary)
    } else {
        Err(errors)
    }
}

/// The one client-vs-server comparison. The scheduler moves its
/// counters before it responds, so on a fault-free run the two views
/// agree exactly and any drift is a lost or duplicated frame. Under
/// chaos the proxy can eat a response the server already counted (or a
/// resend can run the same query twice server-side), so the pair
/// degrades to a lower bound: server < client is still always a lost or
/// duplicated frame.
fn tally_mismatch(chaos: bool, what: &str, server: Option<u64>, client: u64) -> Option<String> {
    match server {
        None => Some(format!("{what}: the server side is missing")),
        Some(s) if !chaos && s != client => {
            Some(format!("{what}: server says {s}, client counted {client}"))
        }
        Some(s) if chaos && s < client => Some(format!(
            "{what}: server says {s} < client's {client} (chaos lower bound)"
        )),
        Some(_) => None,
    }
}

/// One member summed over a loadgen artifact's workload records.
fn tally(bench: &ServerArtifact, member: fn(&ServerRecord) -> u64) -> u64 {
    bench.records.iter().map(member).sum()
}

/// Reconcile a loadgen artifact's client-side tallies with the server's
/// own counters in a stats payload scraped after the run; one message
/// per disagreement. `loadgen` runs this on its own final scrape and
/// [`cross_check`] on the saved one.
pub fn reconcile_client(stats: &StatsView, bench: &ServerArtifact) -> Vec<String> {
    let total = |member| tally(bench, member);
    // Update frames are answered inline on the connection thread — they
    // never pass through admission or the scheduler — so the scheduler
    // saw only the query share of the client's responses.
    let scheduled = total(|r| r.responses).saturating_sub(bench.updates);
    let sched = |name: &str| stats.num(&["sched", name]);
    [
        ("sched.completed", sched("completed"), scheduled),
        ("sched.admitted", sched("admitted"), scheduled),
        (
            "sched.rejected_overload + rejected_quota",
            sched("rejected_overload")
                .zip(sched("rejected_quota"))
                .map(|(a, b)| a + b),
            total(|r| r.retries),
        ),
        // Coalesced followers are cache hits from the client's view but
        // land in `coalesce.hits` server-side; fault-free runs have no
        // concurrent identical digests so the sum stays exact.
        (
            "cache.hits + coalesce.hits",
            stats
                .num(&["cache", "hits"])
                .map(|h| h + stats.counter("coalesce.hits")),
            total(|r| r.cache_hits),
        ),
    ]
    .into_iter()
    .filter_map(|(name, server, client)| {
        tally_mismatch(
            bench.chaos,
            &format!("bench vs stats: {name}"),
            server,
            client,
        )
    })
    .collect()
}

/// Cross-validate a log summary against a scraped stats payload and a
/// loadgen artifact. Assumes the standard CI shape: the log covers one
/// full server lifetime, the stats payload was scraped *after* all
/// query traffic, and the bench run was the server's only client.
/// Returns human-readable notes on success.
pub fn cross_check(
    log: &LogSummary,
    stats: Option<&StatsView>,
    bench: Option<&ServerArtifact>,
) -> Result<Vec<String>, Vec<String>> {
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    let rejects = |reason: &str| log.rejects_by_reason.get(reason).copied().unwrap_or(0);
    let requests = |kind: &str| log.requests_by_kind.get(kind).copied().unwrap_or(0);
    let events = |event: &str| log.events.get(event).copied().unwrap_or(0);
    let sched_rejects = [
        "overloaded",
        "quota_exceeded",
        "draining",
        "deadline_exceeded",
        "cost_exceeded",
    ]
    .into_iter()
    .map(rejects)
    .sum::<u64>();
    // Cold successful runs are the audited ones. The log is a file from
    // outside the program: a line claiming to be both `cached` and an
    // `error` would make this difference negative.
    let audited = log
        .completes_query
        .checked_sub(log.completes_cached + log.completes_error)
        .unwrap_or_else(|| {
            errors.push(format!(
                "log: {} query completes cannot cover {} cached + {} errored",
                log.completes_query, log.completes_cached, log.completes_error
            ));
            0
        });
    // Errored updates are a subset of the update completes `check_log`
    // counted, so this one cannot go negative.
    let updates_ok = log.completes_update - log.completes_update_error;

    // Internal consistency: every query frame is either rejected or
    // completed (only checkable when the wire layer logged requests).
    if requests("query") > 0 {
        let balance = format!(
            "{} completes + {sched_rejects} rejects",
            log.completes_query
        );
        if requests("query") != log.completes_query + sched_rejects {
            errors.push(format!(
                "log: {} query requests but {balance}",
                requests("query")
            ));
        } else {
            notes.push(format!(
                "log: {} query requests = {balance}",
                requests("query")
            ));
        }
        // Updates are answered inline (never queued), so every update
        // request completes — successfully or with an error frame.
        for (kind, completes) in [
            ("explain", log.completes_explain),
            ("update", log.completes_update),
        ] {
            if requests(kind) != completes {
                errors.push(format!(
                    "log: {} {kind} requests but {completes} {kind} completes",
                    requests(kind)
                ));
            }
        }
    } else {
        notes.push("log: no wire-level request events; skipping request/complete balance".into());
    }

    if let Some(stats) = stats {
        let sched = |name: &str| stats.num(&["sched", name]).unwrap_or(0);
        let watchdog = |name: &str| stats.num(&["watchdog", name]).unwrap_or(0);
        let pairs = [
            ("completed", sched("completed"), log.completes_query),
            (
                "rejected_overload",
                sched("rejected_overload"),
                rejects("overloaded"),
            ),
            (
                "rejected_quota",
                sched("rejected_quota"),
                rejects("quota_exceeded"),
            ),
            (
                "rejected_cost",
                sched("rejected_cost"),
                rejects("cost_exceeded"),
            ),
            (
                "shed_deadline",
                sched("shed_deadline"),
                rejects("deadline_exceeded"),
            ),
            // A cached completion is either a cache hit or a coalesced
            // join of an in-flight identical run.
            (
                "cache.hits + coalesce.hits",
                stats.num(&["cache", "hits"]).unwrap_or(0) + stats.counter("coalesce.hits"),
                log.completes_cached,
            ),
            ("watchdog.audited", watchdog("audited"), audited),
            // Every successful update was absorbed exactly once —
            // incrementally or via the deterministic rerun — and
            // revalidated exactly one cache entry.
            (
                "delta.applied + delta.fallback",
                stats.counter("delta.applied") + stats.counter("delta.fallback"),
                updates_ok,
            ),
            (
                "cache.revalidated",
                stats.counter("cache.revalidated"),
                updates_ok,
            ),
            (
                "watchdog.near_violations",
                watchdog("near_violations"),
                events("near_violation") + events("bound_violation"),
            ),
            (
                "watchdog.violations",
                watchdog("violations"),
                events("bound_violation"),
            ),
        ];
        for (name, from_stats, from_log) in pairs {
            if from_stats != from_log {
                errors.push(format!(
                    "stats vs log: `{name}` is {from_stats} in stats, {from_log} in the log"
                ));
            }
        }
        if errors.is_empty() {
            notes.push(format!(
                "stats vs log: {} completions, {} cache hits, {audited} audited — consistent",
                log.completes_query, log.completes_cached,
            ));
        }
    }

    if let Some(bench) = bench {
        let total = |member| tally(bench, member);
        let responses = total(|r| r.responses);
        for r in &bench.records {
            if r.lost != 0 || r.duplicated != 0 {
                errors.push(format!(
                    "bench: workload `{}` reports {} lost / {} duplicated",
                    r.workload, r.lost, r.duplicated
                ));
            }
        }
        if total(|r| r.sent) != responses {
            errors.push(format!(
                "bench: {} sent but {responses} responses (client-side loss)",
                total(|r| r.sent)
            ));
        }
        errors.extend(
            [
                // Update responses ride the same records, so the
                // client's response total covers query *and* update
                // completes.
                (
                    "responses vs log completes",
                    log.completes_query + log.completes_update,
                    responses,
                ),
                (
                    "cache hits vs log cached completes",
                    log.completes_cached,
                    total(|r| r.cache_hits),
                ),
                (
                    "retries vs log backpressure rejects",
                    rejects("overloaded") + rejects("quota_exceeded"),
                    total(|r| r.retries),
                ),
                ("updates vs log update completes", updates_ok, bench.updates),
            ]
            .into_iter()
            .filter_map(|(name, logged, client)| {
                let what = format!("bench vs log: {name}");
                tally_mismatch(bench.chaos, &what, Some(logged), client)
            }),
        );
        if let Some(stats) = stats {
            errors.extend(reconcile_client(stats, bench));
        }
        if errors.is_empty() {
            notes.push(format!(
                "bench{}: {responses} client responses {} server-side counts, 0 lost / 0 duplicated",
                if bench.chaos { " (chaos)" } else { "" },
                if bench.chaos { "bounded by" } else { "match" },
            ));
        }
    }

    if errors.is_empty() {
        Ok(notes)
    } else {
        Err(errors)
    }
}

/// The library half of `mpcjoin-check obs`: validate an operational log
/// and reconcile it with whichever of a scraped stats payload and a
/// loadgen artifact are given. Three layers of checks (each optional
/// input adds one):
///
/// 1. **Log validity** ([`check_log`]) — every line parses under the
///    schema, levels are known, timestamps are monotone in file order,
///    and each known event carries its required members.
/// 2. **Log ↔ stats** — the server's own counters agree with the log's
///    event counts: completions, per-reason rejections, cache hits, and
///    the watchdog's audited / near-violation / violation tallies.
/// 3. **Log ↔ bench ↔ stats** — the *client's* tallies agree with both:
///    every response the client received is a logged completion, every
///    retry a logged backpressure rejection, every observed cache hit a
///    logged cached completion, and nothing was lost or duplicated.
///
/// Returns the consistency notes, or every discrepancy.
pub fn check(
    log: &str,
    stats: Option<&str>,
    bench: Option<&str>,
) -> Result<Vec<String>, Vec<String>> {
    let summary = check_log(log)?;
    let stats = stats
        .map(StatsView::parse)
        .transpose()
        .map_err(|e| vec![format!("stats: {e}")])?;
    let bench = bench
        .map(ServerArtifact::parse)
        .transpose()
        .map_err(|e| vec![format!("bench: {e}")])?;
    let mut notes = vec![format!(
        "log: {} lines, {} query completes ({} cached, {} errors), {} explain completes",
        summary.lines,
        summary.completes_query,
        summary.completes_cached,
        summary.completes_error,
        summary.completes_explain,
    )];
    notes.extend(cross_check(&summary, stats.as_ref(), bench.as_ref())?);
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcjoin::prelude::PlanKind;

    fn tag(rid: u64) -> RequestTag {
        RequestTag {
            rid,
            id: rid * 10,
            session: "t".into(),
        }
    }

    fn verdict(measured: u64, bound: f64) -> AuditVerdict {
        let slack = 4.0;
        let additive = 20.0;
        AuditVerdict {
            plan: PlanKind::MatMul,
            bound,
            measured,
            ratio: if bound > 0.0 {
                measured as f64 / bound
            } else {
                0.0
            },
            slack,
            additive,
            within: (measured as f64) <= slack * bound + additive,
        }
    }

    #[test]
    fn rids_are_unique_and_monotone() {
        let obs = Obs::new();
        let a = obs.next_rid();
        let b = obs.next_rid();
        assert!(a >= 1 && b == a + 1);
    }

    #[test]
    fn watchdog_counts_near_violations_and_captures_slow_queries() {
        let obs = Obs::new();
        // envelope = 4·100 + 20 = 420; near edge at 336.
        let quiet = obs.record_audit(&tag(1), &verdict(100, 100.0), || {
            panic!("capture must be lazy")
        });
        assert!(!quiet);
        let near = obs.record_audit(&tag(2), &verdict(400, 100.0), || {
            (Some(Json::Str("plan".into())), None)
        });
        assert!(near);
        let violating = obs.record_audit(&tag(3), &verdict(500, 100.0), || (None, None));
        assert!(violating);
        let stats = obs.stats_json(&SchedStats::default(), &CacheStats::default());
        let w = stats.get("watchdog").unwrap();
        assert_eq!(w.get("audited").and_then(Json::as_u64), Some(3));
        assert_eq!(w.get("near_violations").and_then(Json::as_u64), Some(2));
        assert_eq!(w.get("violations").and_then(Json::as_u64), Some(1));
        let slow = obs.slow_queries();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].tag.rid, 2);
        assert!(!slow[0].violation);
        assert!(slow[0].explain.is_some());
        assert!(slow[1].violation);
    }

    #[test]
    fn slow_query_log_is_bounded() {
        let obs = Obs::new();
        for i in 0..(SLOW_QUERY_CAP as u64 + 9) {
            obs.record_audit(&tag(i), &verdict(10_000, 100.0), || (None, None));
        }
        let slow = obs.slow_queries();
        assert_eq!(slow.len(), SLOW_QUERY_CAP);
        assert_eq!(slow[0].tag.rid, 9, "oldest entries fall off");
    }

    #[test]
    fn stats_payload_round_trips_through_the_view() {
        let obs = Obs::new();
        obs.count("frames.query", 3);
        obs.observe_spans(&RequestSpans {
            queue_ns: 10,
            cache_ns: 5,
            engine_ns: 100,
            serialize_ns: 7,
            total_ns: 130,
        });
        obs.observe_plan("MatMul", 130);
        obs.queue_enter();
        let sched = SchedStats {
            admitted: 3,
            completed: 2,
            ..SchedStats::default()
        };
        let cache = CacheStats {
            hits: 1,
            misses: 2,
            bytes: 40,
            ..CacheStats::default()
        };
        let text = obs.stats_json(&sched, &cache).to_string_sanitized();
        let view = StatsView::parse(&text).expect("valid payload");
        assert_eq!(view.num(&["sched", "completed"]), Some(2));
        assert_eq!(view.num(&["cache", "bytes"]), Some(40));
        assert_eq!(view.num(&["queue_depth"]), Some(1));
        assert_eq!(view.counter("frames.query"), 3);
        assert_eq!(view.counter("missing"), 0);
    }

    #[test]
    fn text_exposition_is_scrapable() {
        let obs = Obs::new();
        obs.count("frames.ping", 1);
        obs.observe_plan("Tree", 1000);
        let text = obs.stats_text(&SchedStats::default(), &CacheStats::default());
        assert!(text.starts_with("# mpcjoin-serverstats-v1"));
        for needle in [
            "mpcjoin_uptime_ns ",
            "mpcjoin_queue_depth 0",
            "mpcjoin_sched{counter=\"completed\"} 0",
            "mpcjoin_counter{name=\"frames.ping\"} 1",
            "mpcjoin_latency_ns{phase=\"total\",stat=\"p50\"} 0",
            "mpcjoin_plan_latency_ns{plan=\"Tree\",stat=\"count\"} 1",
            "mpcjoin_watchdog{counter=\"audited\"} 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn log_lines_parse_and_stay_monotone() {
        let dir = std::env::temp_dir().join(format!("mpcjoin_obs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let obs = Obs::with_log(&path).expect("log file");
        obs.log_event("info", "server_start", vec![]);
        obs.log_event(
            "info",
            "request",
            vec![("kind".into(), Json::Str("query".into()))],
        );
        obs.log_event(
            "info",
            "complete",
            vec![
                ("kind".into(), Json::Str("query".into())),
                ("outcome".into(), Json::Str("result".into())),
                ("cached".into(), Json::Bool(false)),
            ],
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let summary = check_log(&text).expect("valid log");
        assert_eq!(summary.lines, 3);
        assert_eq!(summary.completes_query, 1);
        assert_eq!(summary.requests_by_kind.get("query"), Some(&1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_log_flags_broken_lines() {
        let good = "{\"schema\":\"mpcjoin-log-v1\",\"ts_ns\":5,\"level\":\"info\",\"event\":\"x\"}";
        assert!(check_log(good).is_ok());
        for bad in [
            "{\"ts_ns\":1,\"level\":\"info\",\"event\":\"x\"}", // no schema
            "{\"schema\":\"mpcjoin-log-v1\",\"ts_ns\":1,\"level\":\"loud\",\"event\":\"x\"}",
            "{\"schema\":\"mpcjoin-log-v1\",\"ts_ns\":1,\"level\":\"info\"}", // no event
            "not json",
        ] {
            assert!(check_log(bad).is_err(), "{bad}");
        }
        // Backwards time across lines.
        let text = format!("{}\n{}", good.replace("\"ts_ns\":5", "\"ts_ns\":9"), good);
        let errors = check_log(&text).unwrap_err();
        assert!(errors[0].contains("backwards"), "{errors:?}");
    }

    #[test]
    fn cross_check_balances_requests_against_outcomes() {
        let mut log = LogSummary::default();
        log.requests_by_kind.insert("query".into(), 5);
        log.completes_query = 3;
        log.rejects_by_reason.insert("overloaded".into(), 2);
        assert!(cross_check(&log, None, None).is_ok());
        log.completes_query = 2;
        let errors = cross_check(&log, None, None).unwrap_err();
        assert!(errors[0].contains("5 query requests"), "{errors:?}");
    }

    #[test]
    fn a_cached_error_line_is_a_reconciliation_error_not_an_underflow() {
        // Syntactically valid, semantically impossible: one completion
        // counted as both a cache hit and an error.
        let line = "{\"schema\":\"mpcjoin-log-v1\",\"ts_ns\":1,\"level\":\"info\",\
                    \"event\":\"complete\",\"kind\":\"query\",\"outcome\":\"error\",\"cached\":true}";
        let summary = check_log(line).expect("every member is well-formed");
        assert_eq!(
            (
                summary.completes_query,
                summary.completes_cached,
                summary.completes_error
            ),
            (1, 1, 1)
        );
        let stats = Obs::new()
            .stats_json(&SchedStats::default(), &CacheStats::default())
            .to_string_sanitized();
        let stats = StatsView::parse(&stats).unwrap();
        let errors = cross_check(&summary, Some(&stats), None).unwrap_err();
        assert!(
            errors[0].contains("1 query completes cannot cover 1 cached + 1 errored"),
            "{errors:?}"
        );
    }

    #[test]
    fn client_tallies_are_exact_without_chaos_and_a_lower_bound_under_it() {
        let stats_with = |completed: u64| {
            let sched = SchedStats {
                admitted: completed,
                completed,
                ..SchedStats::default()
            };
            let doc = Obs::new().stats_json(&sched, &CacheStats::default());
            // The saved `stats` frame nests the payload; both shapes parse.
            let frame = Json::Obj(vec![("stats".into(), doc)]).to_string_sanitized();
            StatsView::parse(&frame).unwrap()
        };
        let bench = |chaos: bool| ServerArtifact {
            records: vec![ServerRecord {
                workload: "mm".into(),
                sent: 3,
                responses: 3,
                ..ServerRecord::default()
            }],
            chaos,
            ..ServerArtifact::default()
        };
        assert!(reconcile_client(&stats_with(3), &bench(false)).is_empty());
        let exact = reconcile_client(&stats_with(4), &bench(false));
        assert!(
            exact[0].contains("sched.completed: server says 4, client counted 3"),
            "{exact:?}"
        );
        assert!(reconcile_client(&stats_with(4), &bench(true)).is_empty());
        let bound = reconcile_client(&stats_with(2), &bench(true));
        assert!(bound[0].contains("(chaos lower bound)"), "{bound:?}");
    }
}
