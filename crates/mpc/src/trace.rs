//! Round-level execution tracing: *where* did the load come from?
//!
//! [`crate::CostReport`] answers "how much": the scalar load `L`, round
//! count, and total traffic of §1.3. This module answers "where": an
//! opt-in event log capturing, for every costed communication step, the
//! global round, the primitive/phase that issued it (sort, multi-search,
//! semijoin, broadcast, twig-combine, …), the per-server received-unit
//! vector, and the full sender→receiver traffic matrix — plus wall-clock
//! spans of the per-server local computation executed by the
//! [`crate::exec`] backend.
//!
//! Tracing is **off by default and zero-cost when disabled**: with tracing
//! off, the simulator takes the exact code paths it always took and the
//! measured `(load, rounds, total_units)` is bit-identical across
//! backends and thread counts. With a [`Tracer`] installed (see
//! [`crate::Cluster::observe`]), the same quantities are measured
//! *and* every unit is attributable: the per-label and per-phase
//! breakdowns of [`TraceReport`] sum to the ledger totals, and
//! [`Trace::critical_round`] names the `(server, round, label)` cell that
//! defines the load. The [`Tracer`] is the one recording observer: the
//! aggregate metrics of [`crate::metrics`] are a fold over its [`Trace`]
//! ([`Trace::metrics`]), not a second record.
//!
//! ## Labeling contract
//!
//! * Primitives and relational operators open an *operation scope*
//!   ([`crate::Cluster::op`]); scopes nest, and an event's `label` is the
//!   scope path at record time (e.g. `"semijoin/multi-search/sort"`).
//! * Algorithms mark coarse *phases* ([`crate::Cluster::mark_phase`]); an
//!   event's `phase` is the innermost mark preceding it on the round
//!   timeline (`"(preamble)"` before the first mark).
//!
//! New algorithms should mark a phase per paper-level step and rely on
//! the primitives' scopes for fine-grained labels.

use crate::cost::CostReport;
use crate::fault::{RecoveryEvent, RecoveryReport};
use crate::json::Json;
pub use crate::observe::EventKind;
use crate::observe::{Delivery, Proceed, RoundCtx, RoundObserver};
use crate::{CancelCause, Cluster};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One costed communication step. Equality ignores the wall-clock `at`
/// field, so traces from different execution backends compare equal —
/// the backend may change *when* things ran, never *what* was sent.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Global round the exchange consumed.
    pub round: u64,
    /// Exchange or broadcast.
    pub kind: EventKind,
    /// Operation-scope path at record time (`"(unlabeled)"` outside any
    /// scope), e.g. `"semijoin/multi-search/sort"`.
    pub label: String,
    /// Innermost phase mark preceding this event (`"(preamble)"` before
    /// the first mark).
    pub phase: String,
    /// Units received per *physical* server in this event (index =
    /// physical server id).
    pub received: Vec<u64>,
    /// `traffic[src][dst]` = units sent from physical server `src` to
    /// physical server `dst` in this event.
    pub traffic: Vec<Vec<u64>>,
    /// Wall clock at record time, relative to trace start —
    /// instrumentation only, excluded from equality.
    pub at: Duration,
}

impl PartialEq for TraceEvent {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.kind == other.kind
            && self.label == other.label
            && self.phase == other.phase
            && self.received == other.received
            && self.traffic == other.traffic
    }
}

impl Eq for TraceEvent {}

/// A timed span of per-server local computation run by the
/// [`crate::exec`] backend. Equality ignores the wall-clock fields.
#[derive(Clone, Debug)]
pub struct ComputeSpan {
    /// Operation-scope path at record time.
    pub label: String,
    /// Innermost phase mark at record time.
    pub phase: String,
    /// Round cursor when the computation ran.
    pub round: u64,
    /// Number of per-server tasks executed.
    pub tasks: usize,
    /// Wall-clock duration of the whole span — instrumentation only,
    /// excluded from equality.
    pub elapsed: Duration,
}

impl PartialEq for ComputeSpan {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.phase == other.phase
            && self.round == other.round
            && self.tasks == other.tasks
    }
}

impl Eq for ComputeSpan {}

/// The recording observer: install with [`crate::Cluster::observe`]
/// before the run, [`Tracer::finish`] after it.
#[derive(Debug)]
pub struct Tracer {
    servers: usize,
    started: Instant,
    events: Vec<TraceEvent>,
    compute: Vec<ComputeSpan>,
}

impl Tracer {
    /// A tracer over `servers` physical servers (the top-level
    /// cluster's `p`).
    pub fn new(servers: usize) -> Self {
        Tracer {
            servers,
            started: Instant::now(),
            events: Vec::new(),
            compute: Vec::new(),
        }
    }

    /// Hand back the finalized [`Trace`]: the recorded events plus the
    /// ledger totals and phase marks of `cluster` as of now.
    pub fn finish(&mut self, cluster: &Cluster) -> Trace {
        let ledger = cluster.ledger();
        let (phases, phase_wall) = ledger
            .phase_marks()
            .into_iter()
            .map(|(round, label, wall)| ((round, label), wall))
            .unzip();
        Trace {
            servers: self.servers,
            cost: ledger.report(),
            phases,
            phase_wall,
            events: std::mem::take(&mut self.events),
            compute: std::mem::take(&mut self.compute),
        }
    }
}

impl RoundObserver for Tracer {
    fn before_round(&mut self, _: &RoundCtx<'_>, _: usize) -> Result<Proceed, CancelCause> {
        Ok(Proceed {
            traffic: true,
            ..Proceed::default()
        })
    }

    fn delivered(&mut self, ctx: &RoundCtx<'_>, d: &Delivery<'_>) {
        let traffic = d.traffic.expect("asked for in before_round");
        self.events.push(TraceEvent {
            round: ctx.round,
            kind: d.kind,
            label: ctx.label.to_string(),
            phase: ctx.phase.to_string(),
            received: d.received.to_vec(),
            traffic: traffic
                .chunks(d.received.len())
                .map(<[u64]>::to_vec)
                .collect(),
            at: self.started.elapsed(),
        });
    }

    fn computed(&mut self, ctx: &RoundCtx<'_>, tasks: usize, elapsed: Duration) {
        self.compute.push(ComputeSpan {
            label: ctx.label.to_string(),
            phase: ctx.phase.to_string(),
            round: ctx.round,
            tasks,
            elapsed,
        });
    }
}

/// A finalized execution trace (see [`Tracer::finish`]). Equality
/// ignores the wall-clock members, as [`TraceEvent`]'s does.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Number of physical servers (the dimension of `received` vectors
    /// and `traffic` matrices).
    pub servers: usize,
    /// Ledger totals at finalization — the same `(load, rounds,
    /// total_units)` as [`crate::CostReport`].
    pub cost: CostReport,
    /// Phase marks: `(first round of the phase, label)`.
    pub phases: Vec<(u64, String)>,
    /// Wall clock spent in each of `phases` (index-aligned), up to the
    /// next mark or to finalization — instrumentation only, excluded
    /// from equality.
    pub phase_wall: Vec<Duration>,
    /// Every costed communication step, in simulation order.
    pub events: Vec<TraceEvent>,
    /// Wall-clock spans of backend-executed local computation.
    pub compute: Vec<ComputeSpan>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.servers == other.servers
            && self.cost == other.cost
            && self.phases == other.phases
            && self.events == other.events
            && self.compute == other.compute
    }
}

impl Eq for Trace {}

/// Per-label (or per-phase) slice of a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceBreakdown {
    /// The operation-scope path or phase label.
    pub label: String,
    /// Max units any server received in any single round under this
    /// label alone.
    pub load: u64,
    /// Number of distinct rounds with traffic under this label.
    pub rounds: u64,
    /// Total units delivered under this label.
    pub total_units: u64,
    /// Number of events.
    pub events: usize,
    /// Wall clock spent in backend local computation under this label.
    pub elapsed: Duration,
}

/// The `(server, round)` cell that defines the load, and the label that
/// contributed the most units to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalCell {
    /// Physical server of the peak cell.
    pub server: usize,
    /// Round of the peak cell.
    pub round: u64,
    /// Units received in the cell — equals [`CostReport::load`] when the
    /// trace covers the whole run.
    pub units: u64,
    /// Label contributing the most units to the cell.
    pub label: String,
}

/// Structured summary of a [`Trace`]: per-primitive and per-phase
/// breakdowns, a per-server footprint histogram, and the critical cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceReport {
    /// Physical server count.
    pub servers: usize,
    /// Ledger totals (see [`Trace::cost`]).
    pub cost: CostReport,
    /// Breakdown by operation-scope path, in first-appearance order.
    pub per_label: Vec<TraceBreakdown>,
    /// Breakdown by phase mark, in first-appearance order.
    pub per_phase: Vec<TraceBreakdown>,
    /// Units received per physical server, summed over all rounds.
    pub per_server: Vec<u64>,
    /// The load-defining cell (`None` for a traffic-free trace).
    pub critical: Option<CriticalCell>,
}

impl Trace {
    /// Compute the structured summary.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            servers: self.servers,
            cost: self.cost,
            per_label: self.breakdown(|e| e.label.clone(), |c| c.label.clone()),
            per_phase: self.breakdown(|e| e.phase.clone(), |c| c.phase.clone()),
            per_server: self.per_server(),
            critical: self.critical_round(),
        }
    }

    /// Units received per physical server, summed over all rounds.
    pub fn per_server(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.servers];
        for e in &self.events {
            for (s, u) in e.received.iter().enumerate() {
                totals[s] += u;
            }
        }
        totals
    }

    /// The `(server, round, label)` cell defining the load: the maximum
    /// per-round received volume across the whole trace. Ties break
    /// toward the earliest round, then the lowest server id, so the
    /// answer is deterministic.
    pub fn critical_round(&self) -> Option<CriticalCell> {
        // (server, round) -> total units, and -> per-label units.
        let mut cells: HashMap<(usize, u64), u64> = HashMap::new();
        let mut by_label: HashMap<(usize, u64), Vec<(String, u64)>> = HashMap::new();
        for e in &self.events {
            for (s, &u) in e.received.iter().enumerate() {
                if u == 0 {
                    continue;
                }
                *cells.entry((s, e.round)).or_insert(0) += u;
                let labels = by_label.entry((s, e.round)).or_default();
                match labels.iter_mut().find(|(l, _)| *l == e.label) {
                    Some((_, total)) => *total += u,
                    None => labels.push((e.label.clone(), u)),
                }
            }
        }
        let (&(server, round), &units) = cells
            .iter()
            .max_by_key(|(&(s, r), &u)| (u, std::cmp::Reverse(r), std::cmp::Reverse(s)))?;
        let label = by_label[&(server, round)]
            .iter()
            .max_by(|(la, ua), (lb, ub)| ua.cmp(ub).then(lb.cmp(la)))
            .map(|(l, _)| l.clone())
            .unwrap_or_default();
        Some(CriticalCell {
            server,
            round,
            units,
            label,
        })
    }

    fn breakdown(
        &self,
        event_key: impl Fn(&TraceEvent) -> String,
        span_key: impl Fn(&ComputeSpan) -> String,
    ) -> Vec<TraceBreakdown> {
        // First-appearance order.
        let mut order: Vec<String> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut idx_of = |key: String, order: &mut Vec<String>| -> usize {
            *index.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                order.len() - 1
            })
        };
        struct Acc {
            cells: HashMap<(usize, u64), u64>,
            rounds: std::collections::BTreeSet<u64>,
            total: u64,
            events: usize,
            elapsed: Duration,
        }
        let mut accs: Vec<Acc> = Vec::new();
        let acc_at = |i: usize, accs: &mut Vec<Acc>| {
            while accs.len() <= i {
                accs.push(Acc {
                    cells: HashMap::new(),
                    rounds: std::collections::BTreeSet::new(),
                    total: 0,
                    events: 0,
                    elapsed: Duration::ZERO,
                });
            }
        };
        for e in &self.events {
            let i = idx_of(event_key(e), &mut order);
            acc_at(i, &mut accs);
            let acc = &mut accs[i];
            acc.events += 1;
            acc.rounds.insert(e.round);
            for (s, &u) in e.received.iter().enumerate() {
                if u > 0 {
                    *acc.cells.entry((s, e.round)).or_insert(0) += u;
                    acc.total += u;
                }
            }
        }
        for span in &self.compute {
            let i = idx_of(span_key(span), &mut order);
            acc_at(i, &mut accs);
            accs[i].elapsed += span.elapsed;
        }
        order
            .into_iter()
            .zip(accs)
            .map(|(label, acc)| TraceBreakdown {
                label,
                load: acc.cells.values().copied().max().unwrap_or(0),
                rounds: acc.rounds.len() as u64,
                total_units: acc.total,
                events: acc.events,
                elapsed: acc.elapsed,
            })
            .collect()
    }

    /// Serialize the full trace (events, compute spans, phases, and the
    /// structured report) as a self-contained JSON document (schema
    /// `mpcjoin-trace-v3`). Each argument fills one member, `null` when
    /// absent:
    ///
    /// * `audit` — the bound-audit verdict of the plan that ran (see
    ///   `mpcjoin::core::audit`), for bound-violation triage;
    /// * `recovery` — the run's [`RecoveryReport`] under a fault plane,
    ///   written as `recovery_report`, with its events also listed as the
    ///   top-level `recovery` array (empty without a report);
    /// * `request` — the serving layer's `{rid, id, session}` tag, which
    ///   links a per-query artifact to the request-scoped span in the
    ///   operational log (`mpcjoin-log-v1`); readers (including
    ///   [`validate`]) ignore it.
    ///
    /// Schema history: `mpcjoin-trace-v1` lacked the `audit` member;
    /// `mpcjoin-trace-v2` added it (possibly `null`); `mpcjoin-trace-v3`
    /// adds the `recovery` array and the `recovery_report` member
    /// (possibly `null`). No producer has written the older tags since
    /// the fault plane landed, and [`validate`] refuses them.
    pub fn to_json(
        &self,
        audit: Option<&Json>,
        recovery: Option<&RecoveryReport>,
        request: Option<&Json>,
    ) -> String {
        let report = self.report();
        let breakdown_json = |b: &TraceBreakdown| {
            Json::Obj(vec![
                ("label".into(), Json::Str(b.label.clone())),
                ("load".into(), Json::Num(b.load as f64)),
                ("rounds".into(), Json::Num(b.rounds as f64)),
                ("total_units".into(), Json::Num(b.total_units as f64)),
                ("events".into(), Json::Num(b.events as f64)),
                ("elapsed_ns".into(), Json::Num(b.elapsed.as_nanos() as f64)),
            ])
        };
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("round".into(), Json::Num(e.round as f64)),
                    ("kind".into(), Json::Str(e.kind.name().into())),
                    ("label".into(), Json::Str(e.label.clone())),
                    ("phase".into(), Json::Str(e.phase.clone())),
                    (
                        "received".into(),
                        Json::Arr(e.received.iter().map(|&u| Json::Num(u as f64)).collect()),
                    ),
                    (
                        "traffic".into(),
                        Json::Arr(
                            e.traffic
                                .iter()
                                .map(|row| {
                                    Json::Arr(row.iter().map(|&u| Json::Num(u as f64)).collect())
                                })
                                .collect(),
                        ),
                    ),
                    ("at_ns".into(), Json::Num(e.at.as_nanos() as f64)),
                ])
            })
            .collect();
        let compute = self
            .compute
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("label".into(), Json::Str(c.label.clone())),
                    ("phase".into(), Json::Str(c.phase.clone())),
                    ("round".into(), Json::Num(c.round as f64)),
                    ("tasks".into(), Json::Num(c.tasks as f64)),
                    ("elapsed_ns".into(), Json::Num(c.elapsed.as_nanos() as f64)),
                ])
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|(round, label)| {
                Json::Obj(vec![
                    ("round".into(), Json::Num(*round as f64)),
                    ("label".into(), Json::Str(label.clone())),
                ])
            })
            .collect();
        let critical = match &report.critical {
            Some(c) => Json::Obj(vec![
                ("server".into(), Json::Num(c.server as f64)),
                ("round".into(), Json::Num(c.round as f64)),
                ("units".into(), Json::Num(c.units as f64)),
                ("label".into(), Json::Str(c.label.clone())),
            ]),
            None => Json::Null,
        };
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(TRACE_SCHEMA.into())),
            ("request".into(), request.cloned().unwrap_or(Json::Null)),
            ("audit".into(), audit.cloned().unwrap_or(Json::Null)),
            (
                "recovery_report".into(),
                recovery.map_or(Json::Null, RecoveryReport::to_json),
            ),
            (
                "recovery".into(),
                Json::Arr(recovery.map_or_else(Vec::new, |r| {
                    r.events.iter().map(RecoveryEvent::to_json).collect()
                })),
            ),
            ("servers".into(), Json::Num(self.servers as f64)),
            ("load".into(), Json::Num(self.cost.load as f64)),
            ("rounds".into(), Json::Num(self.cost.rounds as f64)),
            (
                "total_units".into(),
                Json::Num(self.cost.total_units as f64),
            ),
            (
                "elapsed_ns".into(),
                Json::Num(self.cost.elapsed.as_nanos() as f64),
            ),
            ("phases".into(), Json::Arr(phases)),
            ("events".into(), Json::Arr(events)),
            ("compute".into(), Json::Arr(compute)),
            (
                "report".into(),
                Json::Obj(vec![
                    (
                        "per_label".into(),
                        Json::Arr(report.per_label.iter().map(breakdown_json).collect()),
                    ),
                    (
                        "per_phase".into(),
                        Json::Arr(report.per_phase.iter().map(breakdown_json).collect()),
                    ),
                    (
                        "per_server".into(),
                        Json::Arr(
                            report
                                .per_server
                                .iter()
                                .map(|&u| Json::Num(u as f64))
                                .collect(),
                        ),
                    ),
                    ("critical".into(), critical),
                ]),
            ),
        ]);
        // Every number here is a u64 cast or a Duration in nanoseconds —
        // always finite — but an embedded `audit` comes from outside this
        // module, so emit through the total sanitizing printer (non-finite
        // numbers become `null`) instead of panicking on a bad guest.
        doc.to_string_sanitized()
    }
}

/// Schema tag of exported trace documents — the only one any producer
/// has written since the fault plane landed, and the only one
/// [`validate`] accepts.
pub const TRACE_SCHEMA: &str = "mpcjoin-trace-v3";

/// Re-derive an exported trace document ([`Trace::to_json`])
/// from its raw events and check it tells one story: the library half
/// of `mpcjoin-check trace`, kept beside the exporter so the two cannot
/// drift.
///
/// Checks, in order: the document parses and carries [`TRACE_SCHEMA`]
/// (older tags are refused as unsupported); every event's traffic
/// matrix is `servers × servers` and re-sums to its received vector;
/// the events account for exactly `total_units` of traffic; the maximum
/// (server, round) cell equals `load`; and the embedded report
/// (per-server histogram, critical cell) agrees with the recomputation.
/// A non-null `audit` member must audit this very trace
/// (`audit.measured == load`) with a `within` flag consistent with
/// `measured ≤ slack·bound + additive`. The fault plane's story must
/// agree with itself too: every `recovery` event is well-formed, of a
/// known kind and in round range, and the `recovery_report` counters
/// match those events (retransmissions vs `retries`, crash replays vs
/// `servers_lost`, `recovered` vs `unrecoverable`). Returns a one-line
/// summary.
pub fn validate(text: &str) -> Result<String, String> {
    fn u64s(arr: &[Json], what: &str) -> Result<Vec<u64>, String> {
        arr.iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("bad {what}")))
            .collect()
    }
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    doc.expect_schema(TRACE_SCHEMA)?;
    let servers = doc.field_u64("servers")?;
    if servers == 0 {
        return Err("servers must be positive".into());
    }
    let load = doc.field_u64("load")?;
    let rounds = doc.field_u64("rounds")?;
    let total_units = doc.field_u64("total_units")?;

    // The report's histogram is read first: its length is bounded by
    // the document, so it (not the bare `servers` number) sizes the
    // recomputed one.
    let report = doc.get("report").ok_or("missing `report`")?;
    let reported = u64s(report.field_arr("per_server")?, "per_server entry")?;
    if reported.len() as u64 != servers {
        return Err(format!(
            "report.per_server has {} entries for {servers} servers",
            reported.len()
        ));
    }
    let servers = reported.len();

    let events = doc.field_arr("events")?;
    let mut unit_sum = 0u64;
    let mut cells: HashMap<(usize, u64), u64> = HashMap::new();
    let mut per_server = vec![0u64; servers];
    for (i, event) in events.iter().enumerate() {
        let at = |e: String| format!("event {i}: {e}");
        let round = event.field_u64("round").map_err(at)?;
        if round >= rounds {
            return Err(at(format!(
                "round {round} out of range (rounds = {rounds})"
            )));
        }
        let received = event.field_arr("received").map_err(at)?;
        let received = u64s(received, "unit count").map_err(at)?;
        if received.len() != servers {
            return Err(at(format!(
                "received vector has {} entries for {servers} servers",
                received.len()
            )));
        }
        let traffic = event
            .field_arr("traffic")
            .map_err(at)?
            .iter()
            .map(|row| {
                u64s(
                    row.as_arr().ok_or("traffic row is not an array")?,
                    "traffic cell",
                )
            })
            .collect::<Result<Vec<_>, String>>()
            .map_err(at)?;
        if traffic.len() != servers || traffic.iter().any(|row| row.len() != servers) {
            return Err(at(format!("traffic matrix is not {servers}×{servers}")));
        }
        for (dst, &got) in received.iter().enumerate() {
            let col_sum = traffic
                .iter()
                .fold(0u64, |sum, row| sum.saturating_add(row[dst]));
            if col_sum != got {
                return Err(at(format!(
                    "traffic column {dst} sums to {col_sum}, received says {got}"
                )));
            }
            let cell = cells.entry((dst, round)).or_default();
            *cell = cell.saturating_add(got);
            per_server[dst] = per_server[dst].saturating_add(got);
            unit_sum = unit_sum.saturating_add(got);
        }
    }
    if unit_sum != total_units {
        return Err(format!(
            "events account for {unit_sum} units, header says {total_units}"
        ));
    }
    let max_cell = cells.values().copied().max().unwrap_or(0);
    if max_cell != load {
        return Err(format!(
            "max (server, round) cell is {max_cell}, header says load = {load}"
        ));
    }
    if reported != per_server {
        return Err("report.per_server disagrees with the events".into());
    }
    match report.get("critical") {
        Some(Json::Null) | None => {
            if load > 0 {
                return Err("load is positive but report.critical is null".into());
            }
        }
        Some(critical) => {
            let units = critical.field_u64("units")?;
            if units != load {
                return Err(format!("report.critical.units = {units} but load = {load}"));
            }
            let cell = (
                critical.field_u64("server")? as usize,
                critical.field_u64("round")?,
            );
            if cells.get(&cell).copied().unwrap_or(0) != load {
                return Err("report.critical does not point at a maximal cell".into());
            }
        }
    }

    // The embedded bound-audit verdict, when present, must audit this
    // very trace and be internally consistent.
    let mut audit_note = String::new();
    match doc.get("audit") {
        None => return Err("document missing `audit`".into()),
        Some(Json::Null) => {}
        Some(audit) => {
            let in_audit = |e: String| format!("audit: {e}");
            let measured = audit.field_u64("measured").map_err(in_audit)?;
            if measured != load {
                return Err(format!(
                    "audit.measured = {measured} but the trace's load is {load}"
                ));
            }
            let bound = audit.field_f64("bound").map_err(in_audit)?;
            let slack = audit.field_f64("slack").map_err(in_audit)?;
            let additive = audit.field_f64("additive").map_err(in_audit)?;
            let within = audit.field_bool("within").map_err(in_audit)?;
            if within != (measured as f64 <= slack * bound + additive) {
                return Err(format!(
                    "audit.within = {within} contradicts {measured} vs {slack}·{bound} + {additive}"
                ));
            }
            audit_note = format!(", audit {}", if within { "ok" } else { "VIOLATION" });
        }
    }

    // The fault plane's recovery story: the event list and the embedded
    // report must tell the same one.
    let mut recovery_note = String::new();
    let recovery = doc.field_arr("recovery")?;
    let (mut retransmits, mut crash_replays) = (0u64, 0u64);
    for (i, event) in recovery.iter().enumerate() {
        let at = |e: String| format!("recovery event {i}: {e}");
        match event.field_str("kind").map_err(at)? {
            "retransmit" => retransmits += 1,
            "crash_replay" => crash_replays += 1,
            "dedup" | "resequence" | "straggler" | "compute_retry" | "unrecoverable" => {}
            other => return Err(at(format!("unknown kind `{other}`"))),
        }
        // Recovery fires at round *boundaries*: a compute retry can
        // sit at the boundary after the last credited round, so the
        // legal range is one wider than the events' strict `< rounds`.
        let round = event.field_u64("round").map_err(at)?;
        if round > rounds {
            return Err(at(format!(
                "round {round} out of range (rounds = {rounds})"
            )));
        }
        for k in ["attempt", "units", "delay_ns"] {
            event.field_u64(k).map_err(at)?;
        }
        for k in ["phase", "label"] {
            event.field_str(k).map_err(at)?;
        }
    }
    match doc.get("recovery_report") {
        None => return Err("document missing `recovery_report`".into()),
        Some(Json::Null) => {
            if !recovery.is_empty() {
                return Err("recovery events present but `recovery_report` is null".into());
            }
        }
        Some(report) => {
            let at = |e: String| format!("recovery_report: {e}");
            report.expect_schema("mpcjoin-recovery-v1").map_err(at)?;
            let retries = report.field_u64("retries").map_err(at)?;
            if retries != retransmits {
                return Err(format!(
                    "recovery_report.retries = {retries} but the trace carries {retransmits} retransmit events"
                ));
            }
            let lost = report.field_arr("servers_lost").map_err(at)?.len() as u64;
            if lost != crash_replays {
                return Err(format!(
                    "recovery_report.servers_lost has {lost} entries but the trace carries {crash_replays} crash_replay events"
                ));
            }
            let recovered = report.field_bool("recovered").map_err(at)?;
            let poisoned = !matches!(report.get("unrecoverable"), Some(Json::Null) | None);
            if recovered == poisoned {
                return Err(format!(
                    "recovery_report.recovered = {recovered} contradicts its `unrecoverable` member"
                ));
            }
            let embedded = report.field_arr("events").map_err(at)?.len();
            if embedded != recovery.len() {
                return Err(format!(
                    "recovery_report.events has {embedded} entries, trace `recovery` has {}",
                    recovery.len()
                ));
            }
            recovery_note = format!(
                ", recovery {} ({} events)",
                if recovered { "ok" } else { "FAILED" },
                recovery.len()
            );
        }
    }

    Ok(format!(
        "trace OK ({TRACE_SCHEMA}): {servers} servers, {} events, load {load}, {rounds} rounds, {total_units} units{audit_note}{recovery_note}",
        events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: u64, label: &str, phase: &str, traffic: Vec<Vec<u64>>) -> TraceEvent {
        let servers = traffic.len();
        let received = (0..servers)
            .map(|d| traffic.iter().map(|row| row[d]).sum())
            .collect();
        TraceEvent {
            round,
            kind: EventKind::Exchange,
            label: label.into(),
            phase: phase.into(),
            received,
            traffic,
            at: Duration::ZERO,
        }
    }

    fn two_label_trace() -> Trace {
        Trace {
            servers: 2,
            cost: CostReport {
                load: 7,
                rounds: 2,
                total_units: 15,
                elapsed: Duration::ZERO,
            },
            phases: vec![(0, "build".into()), (1, "probe".into())],
            phase_wall: vec![Duration::from_nanos(700), Duration::from_nanos(300)],
            events: vec![
                event(0, "sort", "build", vec![vec![0, 3], vec![2, 0]]),
                event(0, "scan", "build", vec![vec![0, 4], vec![0, 0]]),
                event(1, "join", "probe", vec![vec![1, 0], vec![5, 0]]),
            ],
            compute: vec![ComputeSpan {
                label: "sort".into(),
                phase: "build".into(),
                round: 0,
                tasks: 2,
                elapsed: Duration::from_nanos(500),
            }],
        }
    }

    #[test]
    fn breakdowns_sum_to_totals() {
        let t = two_label_trace();
        let r = t.report();
        let label_sum: u64 = r.per_label.iter().map(|b| b.total_units).sum();
        let phase_sum: u64 = r.per_phase.iter().map(|b| b.total_units).sum();
        let server_sum: u64 = r.per_server.iter().sum();
        assert_eq!(label_sum, t.cost.total_units);
        assert_eq!(phase_sum, t.cost.total_units);
        assert_eq!(server_sum, t.cost.total_units);
    }

    #[test]
    fn critical_cell_matches_load() {
        let t = two_label_trace();
        // Cell (server 1, round 0) receives 3 (sort) + 4 (scan) = 7.
        let c = t.critical_round().expect("has traffic");
        assert_eq!(c.units, t.cost.load);
        assert_eq!((c.server, c.round), (1, 0));
        assert_eq!(c.label, "scan"); // 4 of the 7 units
    }

    #[test]
    fn per_label_load_is_within_label() {
        let t = two_label_trace();
        let r = t.report();
        let sort = r.per_label.iter().find(|b| b.label == "sort").unwrap();
        assert_eq!(sort.load, 3);
        assert_eq!(sort.total_units, 5);
        assert_eq!(sort.rounds, 1);
        assert_eq!(sort.elapsed, Duration::from_nanos(500));
        let join = r.per_label.iter().find(|b| b.label == "join").unwrap();
        assert_eq!(join.load, 6); // server 0 receives 1 + 5 in round 1
    }

    #[test]
    fn json_roundtrip_preserves_totals() {
        let t = two_label_trace();
        let doc = crate::json::Json::parse(&t.to_json(None, None, None)).expect("valid json");
        assert_eq!(doc.get("load").and_then(crate::json::Json::as_u64), Some(7));
        assert_eq!(
            doc.get("total_units").and_then(crate::json::Json::as_u64),
            Some(15)
        );
        let events = doc
            .get("events")
            .and_then(crate::json::Json::as_arr)
            .unwrap();
        assert_eq!(events.len(), 3);
        let units: u64 = events
            .iter()
            .flat_map(|e| {
                e.get("received")
                    .and_then(crate::json::Json::as_arr)
                    .unwrap()
            })
            .map(|u| u.as_u64().unwrap())
            .sum();
        assert_eq!(units, 15);
    }

    #[test]
    fn json_schema_is_v3_with_audit_and_recovery_slots() {
        let t = two_label_trace();
        let doc = Json::parse(&t.to_json(None, None, None)).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mpcjoin-trace-v3")
        );
        assert_eq!(doc.get("audit"), Some(&Json::Null));
        assert_eq!(doc.get("recovery_report"), Some(&Json::Null));
        assert_eq!(
            doc.get("recovery")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        let audit = Json::Obj(vec![("within".into(), Json::Bool(true))]);
        let doc2 = Json::parse(&t.to_json(Some(&audit), None, None)).unwrap();
        assert_eq!(
            doc2.get("audit").and_then(|a| a.get("within")),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn json_embeds_recovery_events_and_report() {
        use crate::fault::{RecoveryKind, RecoveryReport};
        let t = two_label_trace();
        let report = RecoveryReport {
            faults_injected: 1,
            retries: 1,
            messages_dropped: 4,
            retransmitted_units: 4,
            events: vec![RecoveryEvent {
                round: 1,
                attempt: 1,
                kind: RecoveryKind::Retransmit,
                phase: "probe".into(),
                label: "join".into(),
                server: None,
                units: 4,
                delay: Duration::from_micros(10),
            }],
            ..RecoveryReport::default()
        };
        let doc = Json::parse(&t.to_json(None, Some(&report), None)).unwrap();
        let events = doc.get("recovery").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("kind").and_then(Json::as_str),
            Some("retransmit")
        );
        assert_eq!(events[0].get("phase").and_then(Json::as_str), Some("probe"));
        let rr = doc.get("recovery_report").unwrap();
        assert_eq!(rr.get("recovered"), Some(&Json::Bool(true)));
        assert_eq!(rr.get("retries").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn non_finite_audit_guest_is_sanitized_not_fatal() {
        let t = two_label_trace();
        let audit = Json::Obj(vec![("ratio".into(), Json::Num(f64::NAN))]);
        let doc = Json::parse(&t.to_json(Some(&audit), None, None)).unwrap();
        assert_eq!(
            doc.get("audit").and_then(|a| a.get("ratio")),
            Some(&Json::Null)
        );
    }

    #[test]
    fn equality_ignores_wall_clock() {
        let a = two_label_trace();
        let mut b = two_label_trace();
        b.events[0].at = Duration::from_secs(5);
        b.compute[0].elapsed = Duration::from_secs(5);
        b.phase_wall[1] = Duration::from_secs(5);
        b.cost.elapsed = Duration::from_secs(5);
        assert_eq!(a, b);
    }

    /// A minimal traffic-free document under the given schema tag.
    fn empty_trace(schema: &str) -> String {
        format!(
            r#"{{"schema":"{schema}","servers":2,"load":0,"rounds":0,"total_units":0,
               "events":[],"report":{{"per_server":[0,0],"critical":null}},
               "audit":null,"recovery":[],"recovery_report":null}}"#
        )
    }

    #[test]
    fn only_v3_documents_are_accepted() {
        assert!(validate(&empty_trace("mpcjoin-trace-v3")).is_ok());
        for old in ["mpcjoin-trace-v1", "mpcjoin-trace-v2"] {
            let err = validate(&empty_trace(old)).unwrap_err();
            assert!(err.contains("unsupported schema"), "{old}: {err}");
        }
    }

    #[test]
    fn validate_accepts_its_own_export_and_sizes_nothing_from_a_bare_number() {
        let t = two_label_trace();
        let msg = validate(&t.to_json(None, None, None)).expect("exporter and validator agree");
        assert!(msg.contains("2 servers, 3 events, load 7"), "{msg}");
        // A huge `servers` with a short histogram is a message, not an
        // allocation.
        let err = validate(&empty_trace(TRACE_SCHEMA).replace("\"servers\":2", "\"servers\":9e15"))
            .unwrap_err();
        assert!(err.contains("report.per_server has 2 entries"), "{err}");
    }
}
