//! The one file that calls into the repository's layers.
//!
//! End-to-end numbers come from the two surfaces users touch —
//! `QueryEngine::new(p).threads(n).run(q, rels)` and the
//! `mpcjoin-wire-v1` protocol. Everything else the benchmark needs from
//! the program (typed relations, the sequential oracle, the functions a
//! run is made of, the JSON reader, `wire::parse_frame`) is called from
//! here and nowhere else, so slimming a layer's public API breaks this
//! file only. The rest of the benchmark sees plain data: durations,
//! counts, strings.
//!
//! Per-layer times are taken *from outside*: [`Case::layered`] replays
//! `QueryEngine::run` step by step through the same public functions
//! the engine calls, with a clock around each call. Spans inside the
//! program are a later change (ROADMAP item 5).

use crate::gen::{Instance, Ring};
use mpcjoin::compiler::{heuristic_kind, select_plan, Stats};
use mpcjoin::mpc::json::Json;
use mpcjoin::mpc::{Cluster, DistRelation};
use mpcjoin::query::parse_query;
use mpcjoin::relation::{Relation, Schema};
use mpcjoin::semiring::{BoolRing, Count, Semiring, TropicalMin};
use mpcjoin::yannakakis::validate_instance;
use mpcjoin::{execute_on, execute_sequential, BoundAuditor, PlanChoice, QueryEngine};
use std::time::{Duration, Instant};

/// The model cost of one run (exact, seed-determined) plus its output size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunCost {
    pub load: u64,
    pub rounds: u64,
    pub units: u64,
    pub out_rows: u64,
}

/// Wall-clock of each step `QueryEngine::run` is made of, timed from
/// outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    pub stats: Duration,
    pub select: Duration,
    pub scatter: Duration,
    pub execute: Duration,
    pub gather: Duration,
    pub audit: Duration,
}

impl std::ops::AddAssign for LayerTimes {
    fn add_assign(&mut self, t: LayerTimes) {
        self.stats += t.stats;
        self.select += t.select;
        self.scatter += t.scatter;
        self.execute += t.execute;
        self.gather += t.gather;
        self.audit += t.audit;
    }
}

/// What the public `QueryEngine::trace(true)` trace says about one run.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Σ `ComputeSpan.elapsed`.
    pub compute: Duration,
    pub compute_spans: u64,
    pub exchange_events: u64,
    /// Wall between consecutive `TraceEvent.at` stamps, credited to the
    /// later event's phase; the run's tail goes to the last phase.
    pub phase_walls: Vec<(String, Duration)>,
}

/// One instance, typed and ready to run. The semiring is erased so a
/// workload can mix `count`, `minplus` and `bool` instances.
pub trait Case {
    /// Σ|R|, the input size `N`.
    fn input_rows(&self) -> u64;
    /// `OUT`, from the sequential oracle.
    fn output_rows(&self) -> u64;
    /// The user-facing call: `QueryEngine::new(p).threads(n).run(..)`.
    fn run(&self, threads: usize) -> Result<RunCost, String>;
    /// [`Case::run`], with the output compared to the sequential oracle.
    fn verify(&self, threads: usize) -> Result<RunCost, String>;
    fn layered(&self) -> Result<LayerTimes, String>;
    fn traced(&self) -> Result<TraceSummary, String>;
    /// The distributed Yannakakis baseline (`PlanChoice::Baseline`).
    fn baseline(&self) -> Result<Duration, String>;
    /// `execute_sequential`, the plain single-threaded evaluation.
    fn sequential(&self) -> Duration;
    /// The oracle's output as a result body renders it.
    fn expected(&self) -> Expected;
}

/// The oracle's canonical output rows, each `(values, annotation as the
/// canonical body prints it)`.
#[derive(Clone, Debug)]
pub struct Expected {
    pub rows: Vec<(Vec<u64>, String)>,
}

struct Typed<S: Semiring> {
    query: mpcjoin::query::TreeQuery,
    servers: usize,
    rels: Vec<Relation<S>>,
    oracle: Relation<S>,
}

/// Type an instance (parse its query text, bind rows to atoms exactly
/// as the server does) and evaluate the sequential oracle once.
pub fn build_case(inst: &Instance) -> Result<Box<dyn Case>, String> {
    match inst.ring {
        Ring::Count => typed(inst, |w| Count(w.unwrap_or(1))),
        Ring::MinPlus => typed(inst, |w| TropicalMin::finite(w.unwrap_or(0) as i64)),
        Ring::Bool => typed(inst, |_| BoolRing(true)),
    }
}

fn typed<S: Semiring + std::fmt::Debug>(
    inst: &Instance,
    weight: impl Fn(Option<u64>) -> S,
) -> Result<Box<dyn Case>, String> {
    let parsed = parse_query(&inst.query).map_err(|e| format!("{}: {e}", inst.label))?;
    let mut rels = Vec::new();
    for (i, name) in parsed.relation_names.iter().enumerate() {
        let rows = inst
            .relations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, rows)| rows)
            .ok_or_else(|| format!("{}: no rows for `{name}`", inst.label))?;
        let attrs = parsed.query.edges()[i].attrs().to_vec();
        let arity = attrs.len();
        let mut rel = Relation::empty(Schema::new(attrs));
        for row in rows {
            rel.push(row[..arity].to_vec(), weight(row.get(arity).copied()));
        }
        rels.push(rel);
    }
    let oracle = execute_sequential(&parsed.query, &rels);
    Ok(Box::new(Typed {
        query: parsed.query,
        servers: inst.servers,
        rels,
        oracle,
    }))
}

impl<S: Semiring + std::fmt::Debug> Typed<S> {
    fn engine(&self, threads: usize) -> QueryEngine {
        QueryEngine::new(self.servers).threads(threads)
    }

    fn run_with(&self, engine: &QueryEngine) -> Result<mpcjoin::ExecutionResult<S>, String> {
        engine
            .run(&self.query, &self.rels)
            .map_err(|e| e.to_string())
    }
}

fn cost_of<S: Semiring>(r: &mpcjoin::ExecutionResult<S>) -> RunCost {
    RunCost {
        load: r.cost.load,
        rounds: r.cost.rounds,
        units: r.cost.total_units,
        out_rows: r.output.len() as u64,
    }
}

impl<S: Semiring + std::fmt::Debug> Case for Typed<S> {
    fn input_rows(&self) -> u64 {
        self.rels.iter().map(|r| r.len() as u64).sum()
    }

    fn output_rows(&self) -> u64 {
        self.oracle.len() as u64
    }

    fn run(&self, threads: usize) -> Result<RunCost, String> {
        let result = self.run_with(&self.engine(threads))?;
        Ok(cost_of(std::hint::black_box(&result)))
    }

    fn verify(&self, threads: usize) -> Result<RunCost, String> {
        let result = self.run_with(&self.engine(threads))?;
        if !result.output.semantically_eq(&self.oracle) {
            return Err(format!(
                "engine output ({} rows) differs from execute_sequential ({} rows)",
                result.output.len(),
                self.oracle.len()
            ));
        }
        if !result.audit.within {
            return Err(format!("load audit failed: {}", result.audit));
        }
        Ok(cost_of(&result))
    }

    fn layered(&self) -> Result<LayerTimes, String> {
        let (q, rels, p) = (&self.query, &self.rels, self.servers);
        let mut t = LayerTimes::default();
        validate_instance(q, rels).map_err(|e| e.to_string())?;
        let mut cluster = Cluster::with_threads(p, 1);

        let at = Instant::now();
        let dist: Vec<DistRelation<S>> = rels
            .iter()
            .map(|r| DistRelation::scatter(&cluster, r))
            .collect();
        t.scatter = at.elapsed();

        let at = Instant::now();
        let stats = Stats::collect(q, rels);
        t.stats = at.elapsed();

        let at = Instant::now();
        let chosen = select_plan(q, &stats, p as u64);
        t.select = at.elapsed();
        if chosen != heuristic_kind(q) {
            // `execute_on` is the only public way to run a plan on a
            // populated cluster, and it runs the structural pick.
            return Err(format!(
                "cost-based selection picked {chosen:?}, not the structural plan; \
                 the outside replay cannot follow it"
            ));
        }

        let at = Instant::now();
        let (result, plan) = execute_on(&mut cluster, q, &dist);
        t.execute = at.elapsed();

        let at = Instant::now();
        let skew = result.data().skew();
        let output = result.gather();
        t.gather = at.elapsed();
        let cost = cluster.report();

        let at = Instant::now();
        let audit = BoundAuditor::new().audit(plan, q, rels, p, output.len() as u64, cost.load);
        t.audit = at.elapsed();
        std::hint::black_box((skew, output, audit));
        Ok(t)
    }

    fn traced(&self) -> Result<TraceSummary, String> {
        let at = Instant::now();
        let result = self.run_with(&self.engine(1).trace(true))?;
        let wall = at.elapsed();
        let trace = result
            .trace
            .as_ref()
            .ok_or("trace(true) returned no trace")?;
        let mut phase_walls: Vec<(String, Duration)> = Vec::new();
        let mut last = Duration::ZERO;
        for ev in &trace.events {
            let step = ev.at.saturating_sub(last);
            last = ev.at;
            match phase_walls.iter_mut().find(|(p, _)| *p == ev.phase) {
                Some((_, d)) => *d += step,
                None => phase_walls.push((ev.phase.clone(), step)),
            }
        }
        // What follows the last exchange (the local joins that
        // materialize the output, then gather) has no later event to be
        // credited to; it goes to the phase that was running.
        if let (Some(ev), Some((_, d))) = (trace.events.last(), phase_walls.last_mut()) {
            *d += wall.saturating_sub(ev.at);
        }
        Ok(TraceSummary {
            compute: trace.compute.iter().map(|s| s.elapsed).sum(),
            compute_spans: trace.compute.len() as u64,
            exchange_events: trace.events.len() as u64,
            phase_walls,
        })
    }

    fn baseline(&self) -> Result<Duration, String> {
        let at = Instant::now();
        let result = self.run_with(&self.engine(1).plan(PlanChoice::Baseline))?;
        let wall = at.elapsed();
        std::hint::black_box(result);
        Ok(wall)
    }

    fn sequential(&self) -> Duration {
        let at = Instant::now();
        let out = execute_sequential(&self.query, &self.rels);
        let wall = at.elapsed();
        std::hint::black_box(out);
        wall
    }

    fn expected(&self) -> Expected {
        Expected {
            rows: self
                .oracle
                .canonical()
                .into_iter()
                .map(|(row, annot)| (row, format!("{annot:?}")))
                .collect(),
        }
    }
}

/// Check a reply's canonical body (the raw bytes of its `result`
/// member) against the oracle: row count, and the first `limit` rows
/// value by value.
pub fn check_body(body: &str, expected: &Expected, limit: Option<usize>) -> Result<(), String> {
    let doc = Json::parse(body).map_err(|e| format!("unparseable body: {e}"))?;
    let total = doc.get("output_rows").and_then(Json::as_u64);
    if total != Some(expected.rows.len() as u64) {
        return Err(format!(
            "output_rows {total:?}, oracle has {}",
            expected.rows.len()
        ));
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("body has no `rows`")?;
    let shown = limit.unwrap_or(usize::MAX).min(expected.rows.len());
    if rows.len() != shown {
        return Err(format!("{} rows echoed, expected {shown}", rows.len()));
    }
    for (got, (values, annot)) in rows.iter().zip(&expected.rows) {
        let pair = got
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or("malformed row")?;
        let got_values: Option<Vec<u64>> = pair[0]
            .as_arr()
            .map(|vs| vs.iter().filter_map(Json::as_u64).collect());
        if got_values.as_deref() != Some(values.as_slice()) || pair[1].as_str() != Some(annot) {
            return Err(format!(
                "row {got_values:?} differs from oracle row {values:?} {annot}"
            ));
        }
    }
    Ok(())
}

/// `delta.load` of an `update` frame: the ledger load of the
/// incremental step alone.
pub fn update_delta_load(frame: &str) -> Option<u64> {
    Json::parse(frame).ok()?.get("delta")?.get("load")?.as_u64()
}

/// Wall-clock of `wire::parse_frame` over one request frame.
pub fn time_parse_frame(frame: &str) -> Result<Duration, String> {
    let at = Instant::now();
    let parsed = mpcjoin_server::wire::parse_frame(frame);
    let wall = at.elapsed();
    match std::hint::black_box(parsed) {
        Ok(_) => Ok(wall),
        Err(e) => Err(format!("own frame rejected: {} {}", e.code, e.detail)),
    }
}

/// Count + sum (ns) of one server-side span histogram.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub count: f64,
    pub sum_ns: f64,
}

/// The numbers the benchmark reads from a scraped `stats` frame. All
/// are cumulative since the server started; callers diff two scrapes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    pub queue: Span,
    pub cache: Span,
    pub engine: Span,
    pub serialize: Span,
    pub total: Span,
    pub admitted: f64,
    pub completed: f64,
    pub rejected: f64,
    pub shed_deadline: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub cache_evictions: f64,
    pub cache_bytes: f64,
    pub revalidated: f64,
    pub coalesce_hits: f64,
    pub delta_applied: f64,
    pub delta_fallback: f64,
}

impl ServerStats {
    pub fn parse(frame: &str) -> Result<ServerStats, String> {
        let doc = Json::parse(frame).map_err(|e| format!("unparseable stats frame: {e}"))?;
        let stats = doc
            .get("stats")
            .ok_or("stats frame has no `stats` member")?;
        let num = |path: &[&str]| -> f64 {
            path.iter()
                .try_fold(stats, |at, key| at.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let span = |phase: &str| Span {
            count: num(&["latency", phase, "count"]),
            sum_ns: num(&["latency", phase, "sum"]),
        };
        Ok(ServerStats {
            queue: span("queue"),
            cache: span("cache"),
            engine: span("engine"),
            serialize: span("serialize"),
            total: span("total"),
            admitted: num(&["sched", "admitted"]),
            completed: num(&["sched", "completed"]),
            rejected: num(&["sched", "rejected_overload"])
                + num(&["sched", "rejected_quota"])
                + num(&["sched", "rejected_draining"])
                + num(&["sched", "rejected_cost"]),
            shed_deadline: num(&["sched", "shed_deadline"]),
            cache_hits: num(&["cache", "hits"]),
            cache_misses: num(&["cache", "misses"]),
            cache_evictions: num(&["cache", "evictions"]),
            cache_bytes: num(&["cache", "bytes"]),
            revalidated: num(&["counters", "cache.revalidated"]),
            coalesce_hits: num(&["counters", "coalesce.hits"]),
            delta_applied: num(&["counters", "delta.applied"]),
            delta_fallback: num(&["counters", "delta.fallback"]),
        })
    }
}

/// One metric declaration of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The `end_to_end` and `per_layer` lists of `BENCHMARK.json`.
pub fn declared_metrics(text: &str) -> Result<(Vec<DeclaredMetric>, Vec<DeclaredMetric>), String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<DeclaredMetric>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                Ok(DeclaredMetric {
                    name: field("name").ok_or("metric without a name")?,
                    unit: field("unit").ok_or("metric without a unit")?,
                    better: field("better").ok_or("metric without a direction")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// A run's result line: `correct` / `attempted` / `failed` and the
/// `metrics` object as `(name, value)`.
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable result line: {e}"))?;
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err("result line has no `metrics` object".into());
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ResultLine {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}
