//! The executor: turn a parsed request into exactly one response frame.
//!
//! One [`Executor`] is shared by every scheduler worker. It owns the
//! [`ResultCache`]; a [`QueryEngine`] is a stateless builder that runs
//! every query on a fresh cluster, so one is built per request. The
//! `engine_reuse` integration test pins that an executor's runs are
//! bit-identical across requests, sessions, and semirings, which is what
//! makes the result cache sound.
//!
//! ## The request pipeline
//!
//! ```text
//! line
//!  │ wire::parse_frame ─────────── unparseable ──────────► Obs::reject ─┐
//!  ▼                                                                    │
//! Frame::default_session                                                │
//!  ├─ query ─► Scheduler::submit ── refused / shed ──────► Obs::reject ─┤
//!  │               └─► worker ─► Executor::execute ──┐                  │
//!  └─ explain, update (inline) ─► Executor::{explain, update}           │
//!                                                    ▼                  │
//!       validate ─► mpcjoin::with_semiring ─► responder::<S>            │
//!                                                    ▼                  │
//!                                      Result<Answer, WireError>        │
//!                                                    ▼                  │
//!       Executor::complete ── Ok: spans, `complete` event, the frame    │
//!                          └─ Err: `complete` event, Obs::error_frame   │
//!                                                    ▼                  │
//!     send ─► wire::write_frame: `,"rid":N`, `\n`, one write_all ◄──────┘
//! ```
//!
//! Three decisions are each made in exactly one place. *Which semiring*
//! a request runs under is resolved by [`mpcjoin::with_semiring`] (the
//! wire vocabulary's table); the responders here are generic over it.
//! *What went wrong* travels as a typed [`WireError`] from wherever it
//! is detected to [`Obs::error_frame`], the only place it is counted
//! and rendered. *What gets logged* is `Executor::complete` (one
//! `complete` event) for a request that reached a responder and
//! [`Obs::reject`] (one `reject` event) for one that did not.
//!
//! ## The canonical result body
//!
//! A successful run serializes to a *canonical body*: plan, measured
//! cost ledger, audit verdict, and the output rows in canonical order.
//! Everything in it is deterministic; wall-clock time and the recovery
//! report are deliberately excluded (they ride on the outer frame),
//! because the body is what the cache stores and replays bit-exactly.
//! Output rows are `[[value…], "annotation"]` pairs using the
//! semiring's `Debug` rendering — the same rendering for cold and
//! cached responses, trivially, since cached responses are the cold
//! response's bytes.

use crate::cache::{digest_tokens, CacheStats, ResultCache};
use crate::obs::{Obs, RequestSpans, RequestTag};
use crate::wire::{
    explain_frame, result_frame, update_frame, QueryRequest, UpdateRequest, WireError,
};
use mpcjoin::mpc::hash::stable_hash;
use mpcjoin::mpc::json::Json;
use mpcjoin::prelude::*;
use mpcjoin::query::{parse_query, ParsedQuery};
use mpcjoin::{with_semiring, SemiringVisitor, SEMIRING_NAMES};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One in-flight cacheable run, shared between its leader and any
/// coalesced followers (singleflight).
#[derive(Default)]
struct InflightSlot {
    /// The leader finished (successfully or not).
    done: bool,
    /// The canonical body, when the leader succeeded.
    body: Option<Arc<str>>,
}

type InflightCell = (Mutex<InflightSlot>, Condvar);

/// Wire rows per relation name, as frames carry them.
type RowMap = [(String, Vec<Vec<i64>>)];

/// One registered materialized view plus the wire row list it currently
/// reflects. The row list is *authoritative* for update semantics: a
/// delete removes one exactly-matching row from it, regardless of how
/// the semiring coalesces duplicates — so the revalidated cache entry is
/// always what a cold query over the edited row list would return.
struct ViewEntry<S: Semiring> {
    view: MaterializedView<S>,
    relations: Vec<(String, Vec<Vec<i64>>)>,
}

/// Executes requests against the simulated cluster. Shared (behind an
/// `Arc`) by all scheduler workers; internally synchronized.
pub struct Executor {
    /// Upper bound on a request's simulated cluster width.
    pub max_servers: usize,
    /// Worker threads for per-server local computation inside one run.
    pub threads_per_job: usize,
    /// When set, per-query trace/metrics artifacts are written here.
    pub artifact_dir: Option<PathBuf>,
    /// The observability plane (shared with the scheduler and the wire
    /// layer). Measures and counts *around* runs, never inside them.
    obs: Arc<Obs>,
    cache: Mutex<ResultCache>,
    /// Cacheable digests currently executing: a retried or concurrent
    /// identical request waits for the in-flight run instead of
    /// executing twice (singleflight — what makes client retries
    /// idempotent).
    inflight: Mutex<HashMap<u128, Arc<InflightCell>>>,
    /// Registered materialized views, keyed by
    /// `(session, semiring, servers, plan, query structure)`. Update
    /// frames stream deltas against these; re-registering replaces. A
    /// slot holds a `ViewEntry<S>`; the key hashes the semiring name, so
    /// the responder dispatched under `S` finds exactly that type.
    views: Mutex<HashMap<u128, Arc<Mutex<dyn Any + Send>>>>,
}

/// What a successful responder hands [`Executor::complete`]: the frame,
/// plus — for a query run only — its spans and, when it ran cold, the
/// plan that ran with its audit ratio (`None` on a cache hit).
struct Answer {
    frame: String,
    run: Option<(RequestSpans, Option<(String, Option<f64>)>)>,
}

/// One validated request on its way to its responder. Visiting it under
/// the semiring its `semiring` member names runs the responder.
struct Scope<'a, R> {
    ex: &'a Executor,
    req: &'a R,
    parsed: &'a ParsedQuery,
    choice: PlanChoice,
    started: Instant,
    tag: &'a RequestTag,
    ctx: &'a RequestCtx,
}

/// A statistics-only compile of a query frame (explain, admission
/// pricing): build the relations under the named semiring, run nothing.
struct Compile<'a> {
    engine: QueryEngine,
    parsed: &'a ParsedQuery,
    relations: &'a RowMap,
}

impl SemiringVisitor for Compile<'_> {
    type Out = Result<Explain, WireError>;

    fn visit<S: Semiring>(self, weight: fn(Option<i64>) -> S) -> Self::Out {
        let bound = bind_relations(self.relations, self.parsed)?;
        let rels = build_relations(&bound, self.parsed, weight);
        Ok(self.engine.explain(&self.parsed.query, &rels)?)
    }
}

/// Run `v` under the semiring `name` selects from the wire vocabulary;
/// a name outside it is the request's `bad_request`.
fn dispatch<T>(
    name: &str,
    v: impl SemiringVisitor<Out = Result<T, WireError>>,
) -> Result<T, WireError> {
    with_semiring(name, v).unwrap_or_else(|detail| Err(WireError::new("bad_request", detail)))
}

impl Executor {
    /// An executor with a result cache of `cache_cap` entries.
    pub fn new(
        max_servers: usize,
        threads_per_job: usize,
        cache_cap: usize,
        artifact_dir: Option<PathBuf>,
        obs: Arc<Obs>,
    ) -> Self {
        Executor {
            max_servers,
            threads_per_job,
            artifact_dir,
            obs,
            cache: Mutex::new(ResultCache::new(cache_cap)),
            inflight: Mutex::new(HashMap::new()),
            views: Mutex::new(HashMap::new()),
        }
    }

    /// Total relation payload bytes of a request (values are 8-byte
    /// words, as in the MPC load model). The scheduler's per-request
    /// byte budget prices on this.
    pub fn relation_bytes(req: &QueryRequest) -> u64 {
        req.relations
            .iter()
            .map(|(_, rows)| rows.iter().map(|r| r.len() as u64 * 8).sum::<u64>())
            .sum()
    }

    /// The Table-1 bound of the plan the compiler would select for this
    /// request (statistics-only, no simulated run). `None` when the
    /// request does not validate or compile — such requests surface
    /// their real error on the normal execution path, so admission must
    /// not pre-empt it with `cost_exceeded`.
    pub fn predicted_bound(&self, req: &QueryRequest) -> Option<f64> {
        let (_, ex) = self.compile(req).ok()?;
        ex.candidates.iter().find(|c| c.selected).map(|c| c.bound)
    }

    /// Current cache counters (for `stats` frames).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock").stats()
    }

    /// Execute one query request, returning its response frame (a result
    /// frame or an error frame — never nothing, never a panic). Records
    /// per-phase spans and the completion event under `ctx.rid`; the
    /// frame itself is the same for every `ctx.rid` / `ctx.queue_ns` —
    /// observation never changes a response byte. With `ctx.deadline`
    /// set, the run is cancelled at the engine's next round boundary
    /// once the deadline passes, answering `deadline_exceeded`; the
    /// engine's cancellation contract guarantees a rerun is bit-identical
    /// to a fresh run.
    pub fn execute(&self, req: &QueryRequest, ctx: &RequestCtx) -> String {
        if req.delay_ms > 0 {
            // The testing stall never outlives the request's own deadline.
            let delay = Duration::from_millis(req.delay_ms);
            let left = ctx
                .deadline
                .map_or(delay, |d| d.saturating_duration_since(Instant::now()));
            std::thread::sleep(delay.min(left));
        }
        let (tag, started) = (ctx.tag(req.id, &req.session), Instant::now());
        let outcome =
            self.validate(&req.query, req.servers, &req.plan)
                .and_then(|(parsed, choice)| {
                    let scope = Scope {
                        ex: self,
                        req,
                        parsed: &parsed,
                        choice,
                        started,
                        tag: &tag,
                        ctx,
                    };
                    dispatch(&req.semiring, scope)
                });
        self.complete(&tag, "query", outcome)
    }

    /// Compile one explain request, returning its response frame (an
    /// `explain` frame carrying the `mpcjoin-plan-v1` document, or an
    /// error frame). Compilation is statistics-only — no simulated
    /// cluster runs — so callers may answer explain requests inline
    /// without going through the execution queue.
    pub fn explain(&self, req: &QueryRequest, ctx: &RequestCtx) -> String {
        let tag = ctx.tag(req.id, &req.session);
        let outcome = self.compile(req).map(|(parsed, ex)| {
            let body = ex.to_json(Some(&parsed.names)).to_string_sanitized();
            Answer {
                frame: explain_frame(req.id, &body),
                run: None,
            }
        });
        self.complete(&tag, "explain", outcome)
    }

    /// Apply one update frame to its registered view, returning the
    /// response frame (an `update` frame carrying the `mpcjoin-delta-v1`
    /// decision document and the revalidated canonical body, or an error
    /// frame). Updates run inline, and each ends in a full cold
    /// revalidation run of the updated instance, so an update costs at
    /// least a cold query (ROADMAP item 3).
    pub fn update(&self, req: &UpdateRequest, ctx: &RequestCtx) -> String {
        let (tag, started) = (ctx.tag(req.id, &req.session), Instant::now());
        let outcome =
            self.validate(&req.query, req.servers, &req.plan)
                .and_then(|(parsed, choice)| {
                    let scope = Scope {
                        ex: self,
                        req,
                        parsed: &parsed,
                        choice,
                        started,
                        tag: &tag,
                        ctx,
                    };
                    dispatch(&req.semiring, scope)
                });
        self.complete(&tag, "update", outcome)
    }

    /// The shared epilogue of every request that reached a responder:
    /// record a query run's spans, turn an error into its frame (the
    /// request's id filled in; counted and rendered by
    /// [`Obs::error_frame`]), and log the one `complete` event.
    fn complete(&self, tag: &RequestTag, kind: &str, outcome: Result<Answer, WireError>) -> String {
        let mut fields = tag.fields();
        fields.push(("kind".into(), Json::Str(kind.into())));
        let frame = match outcome {
            Ok(answer) => {
                fields.push(("outcome".into(), Json::Str("result".into())));
                if let Some((spans, cold)) = answer.run {
                    self.obs.observe_spans(&spans);
                    let cached = cold.is_none();
                    let (plan, ratio) = match cold {
                        Some((plan, ratio)) => {
                            self.obs.observe_plan(&plan, spans.total_ns);
                            (Json::Str(plan), ratio.map_or(Json::Null, Json::Num))
                        }
                        None => (Json::Null, Json::Null),
                    };
                    fields.extend([
                        ("cached".into(), Json::Bool(cached)),
                        ("plan".into(), plan),
                        ("ratio".into(), ratio),
                        ("spans".into(), spans.to_json()),
                    ]);
                }
                answer.frame
            }
            Err(mut e) => {
                e.id = Some(tag.id);
                fields.extend([
                    ("outcome".into(), Json::Str("error".into())),
                    ("code".into(), Json::Str(e.code.into())),
                ]);
                if kind == "query" {
                    fields.push(("cached".into(), Json::Bool(false)));
                }
                self.obs.error_frame(&e)
            }
        };
        self.obs.log_event("info", "complete", fields);
        frame
    }

    /// Parse + validate the request-level members query, explain and
    /// update frames share.
    fn validate(
        &self,
        query: &str,
        servers: usize,
        plan: &str,
    ) -> Result<(ParsedQuery, PlanChoice), WireError> {
        let parsed = parse_query(query).map_err(|e| WireError::new("bad_query", e.to_string()))?;
        if servers == 0 || servers > self.max_servers {
            return Err(WireError::new(
                "bad_request",
                format!(
                    "`servers` must be between 1 and {} (got {})",
                    self.max_servers, servers
                ),
            ));
        }
        Ok((parsed, mpcjoin::parse_plan_choice(plan)?))
    }

    /// Validate and compile a query frame without running it.
    fn compile(&self, req: &QueryRequest) -> Result<(ParsedQuery, Explain), WireError> {
        let (parsed, choice) = self.validate(&req.query, req.servers, &req.plan)?;
        let compile = Compile {
            engine: self.engine_for(req.servers, choice, false),
            parsed: &parsed,
            relations: &req.relations,
        };
        let ex = dispatch(&req.semiring, compile)?;
        Ok((parsed, ex))
    }

    /// Materialize + register (or replace) the view for a registering
    /// query.
    fn register_view<S: Semiring>(
        &self,
        req: &QueryRequest,
        parsed: &ParsedQuery,
        rels: &[Relation<S>],
        plan: PlanKind,
    ) -> Result<(), WireError> {
        let entry = ViewEntry {
            view: MaterializedView::new(&parsed.query, rels, plan)?,
            relations: req.relations.clone(),
        };
        let key = view_key(&req.session, &req.semiring, req.servers, &req.plan, parsed);
        self.views
            .lock()
            .expect("view registry lock")
            .insert(key, Arc::new(Mutex::new(entry)));
        self.obs.count("view.registered", 1);
        Ok(())
    }

    /// Resolve a singleflight entry this thread leads: publish the
    /// outcome to any waiting followers and remove the entry. A no-op
    /// for non-leaders and uncacheable requests.
    fn settle_inflight(
        &self,
        key: Option<u128>,
        lead: Option<Arc<InflightCell>>,
        body: Option<Arc<str>>,
    ) {
        let (Some(k), Some(cell)) = (key, lead) else {
            return;
        };
        self.inflight.lock().expect("inflight lock").remove(&k);
        let (slot, cv) = &*cell;
        let mut slot = slot.lock().expect("inflight slot");
        slot.done = true;
        slot.body = body;
        cv.notify_all();
    }

    fn engine_for(&self, servers: usize, choice: PlanChoice, instrumented: bool) -> QueryEngine {
        QueryEngine::new(servers)
            .threads(self.threads_per_job)
            .plan(choice)
            .trace(instrumented)
    }

    /// Flush one per-request artifact (`doc` is only rendered when an
    /// artifact directory is configured). Observability is best-effort:
    /// a full disk must not fail the query. The rid lands in the
    /// filename so pipelined duplicates of one client id never overwrite
    /// each other.
    fn write_artifact(&self, stem: &str, tag: &RequestTag, doc: impl FnOnce() -> String) {
        let Some(dir) = &self.artifact_dir else {
            return;
        };
        let session: String = tag
            .session
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{stem}_{session}_{}_r{}.json", tag.id, tag.rid));
        if let Err(e) = std::fs::write(&path, doc()) {
            eprintln!("artifact write failed: {}: {e}", path.display());
        }
    }
}

impl SemiringVisitor for Scope<'_, QueryRequest> {
    type Out = Result<Answer, WireError>;

    /// The query pipeline for one concrete semiring: cache lookup and
    /// singleflight, else a cold engine run whose canonical body is
    /// cached, audited and (for a registering query) materialized.
    fn visit<S: Semiring>(self, weight: fn(Option<i64>) -> S) -> Self::Out {
        let Scope {
            ex,
            req,
            parsed,
            choice,
            started,
            tag,
            ctx,
        } = self;
        let spans = |cache_ns, engine_ns, serialize_ns| RequestSpans {
            queue_ns: ctx.queue_ns,
            cache_ns,
            engine_ns,
            serialize_ns,
            total_ns: elapsed_ns(started),
        };
        ex.obs.count(&format!("semiring.{}", req.semiring), 1);
        // Every relation check runs before the cache is probed (the
        // digest cannot tell a missing relation from an empty one), but
        // relations are built only for what reads them: a miss's run or
        // a registering request's view.
        let bound = bind_relations(&req.relations, parsed)?;
        let build = || build_relations(&bound, parsed, weight);

        // Faulted requests bypass the cache in both directions: they must
        // actually exercise the recovery path, and their (identical)
        // output must not shadow the clean run's entry semantics.
        let cache_started = Instant::now();
        let key = req.fault_plan.is_none().then(|| {
            request_digest(
                &req.semiring,
                req.servers,
                &req.plan,
                req.limit,
                &bound,
                parsed,
            )
        });
        let served_from = |body: &str, coalesced: bool, cache_ns: u64| {
            if req.register {
                // A cache hit still registers: the body records which
                // plan served the digest, and the view builds locally.
                let plan = body_plan_kind(body).ok_or_else(|| {
                    WireError::new(
                        "bad_request",
                        "cached body names no known plan; cannot register the view",
                    )
                })?;
                ex.register_view(req, parsed, &build(), plan)?;
            }
            if coalesced {
                ex.obs.count("coalesce.hits", 1);
            }
            Ok(Answer {
                frame: result_frame(req.id, true, started.elapsed().as_nanos(), None, body),
                run: Some((spans(cache_ns, 0, 0), None)),
            })
        };
        // Cache lookup, then singleflight: a digest already executing is
        // joined, not re-executed — the leader's body answers every
        // coalesced follower (what makes client retries idempotent). A
        // failed leader releases the followers to re-check the cache and
        // contend for leadership themselves.
        let mut lead: Option<Arc<InflightCell>> = None;
        if let Some(k) = key {
            loop {
                if let Some(body) = ex.cache.lock().expect("cache lock").get(k) {
                    return served_from(&body, false, elapsed_ns(cache_started));
                }
                let cell = {
                    let mut map = ex.inflight.lock().expect("inflight lock");
                    match map.entry(k) {
                        Entry::Occupied(e) => Arc::clone(e.get()),
                        Entry::Vacant(e) => {
                            let cell: Arc<InflightCell> = Arc::default();
                            e.insert(Arc::clone(&cell));
                            lead = Some(cell);
                            break;
                        }
                    }
                };
                let (slot, cv) = &*cell;
                let mut slot = slot.lock().expect("inflight slot");
                while !slot.done {
                    slot = cv.wait(slot).expect("inflight slot");
                }
                if let Some(body) = slot.body.clone() {
                    return served_from(&body, true, elapsed_ns(cache_started));
                }
            }
        }
        let cache_ns = elapsed_ns(cache_started);
        let rels = build();

        let instrumented = ex.artifact_dir.is_some();
        let engine = ex.engine_for(req.servers, choice, instrumented);
        let engine_started = Instant::now();
        // The run's engine carries the request's fault plan and deadline
        // token; `engine` itself stays clean for the watchdog's explain.
        let mut derived = engine.clone();
        if let Some(plan) = &req.fault_plan {
            derived = derived.faults(plan.clone());
        }
        if let Some(deadline) = ctx.deadline {
            derived = derived.cancel(CancelToken::new().with_deadline(deadline));
        }
        let result = match derived.run(&parsed.query, &rels) {
            Ok(result) => result,
            Err(e) => {
                ex.settle_inflight(key, lead.take(), None);
                return Err(e.into());
            }
        };
        let engine_ns = elapsed_ns(engine_started);

        // Traces carry the request tag (`rid`/`id`/`session`), linking
        // the artifact's `mpcjoin-trace-v3` round events to the span +
        // log plane; the metrics artifact is a fold over the same trace.
        if let Some(trace) = &result.trace {
            ex.write_artifact("trace", tag, || {
                trace.to_json(
                    Some(&result.audit.to_json()),
                    result.recovery.as_ref(),
                    Some(&tag.to_json()),
                )
            });
            ex.write_artifact("metrics", tag, || {
                trace.metrics(result.recovery.as_ref()).to_json()
            });
        }
        let serialize_started = Instant::now();
        let body = canonical_body(&result, req.limit);
        let recovery = result.recovery.as_ref().map(RecoveryReport::to_json);
        let serialize_ns = elapsed_ns(serialize_started);
        if let Some(k) = key {
            let shared: Arc<str> = Arc::from(body.as_str());
            ex.cache
                .lock()
                .expect("cache lock")
                .insert(k, Arc::clone(&shared));
            ex.settle_inflight(key, lead.take(), Some(shared));
        }
        if req.register {
            ex.register_view(req, parsed, &rels, result.plan)?;
        }

        // Watchdog: feed the verdict; on a near-violation, capture the
        // explain artifact (a statistics-only recompile — read-only, so
        // it cannot perturb the run or the ledger) and recovery report.
        ex.obs.record_audit(tag, &result.audit, || {
            let explain = engine
                .explain(&parsed.query, &rels)
                .ok()
                .map(|ex| ex.to_json(Some(&parsed.names)));
            (explain, recovery.clone())
        });

        let elapsed = started.elapsed().as_nanos();
        let ratio = result.audit.ratio;
        let cold = (
            format!("{:?}", result.plan),
            ratio.is_finite().then_some(ratio),
        );
        Ok(Answer {
            frame: result_frame(req.id, false, elapsed, recovery.as_ref(), &body),
            run: Some((spans(cache_ns, engine_ns, serialize_ns), Some(cold))),
        })
    }
}

impl SemiringVisitor for Scope<'_, UpdateRequest> {
    type Out = Result<Answer, WireError>;

    /// The update pipeline for one concrete semiring: look up the view,
    /// edit its authoritative row list, absorb the delta on the engine
    /// (incremental where the classification allows, deterministic rerun
    /// otherwise), then *revalidate* the cache — recompute the updated
    /// instance's canonical body cold and install it under the updated
    /// digest, so the next identical query is a byte-identical hit.
    fn visit<S: Semiring>(self, weight: fn(Option<i64>) -> S) -> Self::Out {
        let Scope {
            ex,
            req,
            parsed,
            choice,
            started,
            tag,
            ..
        } = self;
        let key = view_key(&req.session, &req.semiring, req.servers, &req.plan, parsed);
        let cell = ex
            .views
            .lock()
            .expect("view registry lock")
            .get(&key)
            .cloned()
            .ok_or_else(|| {
                WireError::new(
                    "unknown_view",
                    "no registered view for this (session, query, semiring, servers, plan); \
                     send the query frame with \"register\":true first",
                )
            })?;
        // The view mutex is held across the whole absorption, so updates
        // against one view apply in a total order.
        let mut guard = cell.lock().expect("view lock");
        let entry = guard
            .downcast_mut::<ViewEntry<S>>()
            .expect("the view key hashes the semiring name");

        // All-or-nothing validation: both the edited row list and the
        // delta batch are built (and every delete's target row located)
        // before any state changes.
        let relations = edited_row_list(req, &entry.relations)?;
        let batch = build_batch(req, parsed, weight)?;
        let bound = bind_relations(&relations, parsed)?;
        let rels = build_relations(&bound, parsed, weight);

        let engine = ex.engine_for(req.servers, choice, false);
        // An engine error past this point can leave the view mid-patch,
        // so the entry is evicted on failure (the client re-registers).
        let evict = |e: MpcError| {
            ex.views.lock().expect("view registry lock").remove(&key);
            WireError::from(e)
        };
        let outcome = engine.apply_delta(&mut entry.view, &batch).map_err(evict)?;
        if outcome.report.class == Maintainability::RerunFallback {
            ex.obs.count("delta.fallback", 1);
            // Row-list semantics are authoritative: rebuild the view from
            // the edited list (bag-level withdrawal can diverge from
            // row-level deletion when the list holds duplicate rows under
            // a non-ring semiring).
            let plan = entry.view.plan();
            entry.view = MaterializedView::new(&parsed.query, &rels, plan).map_err(evict)?;
        } else {
            ex.obs.count("delta.applied", 1);
        }

        // Revalidation: a cold deterministic rerun over the updated
        // instance rebuilds the canonical body byte-identically to what
        // a fresh query would produce, and installs it under the updated
        // digest — the next identical query frame is a cache hit.
        let result = engine.run(&parsed.query, &rels).map_err(evict)?;
        let body = canonical_body(&result, req.limit);
        let digest = request_digest(
            &req.semiring,
            req.servers,
            &req.plan,
            req.limit,
            &bound,
            parsed,
        );
        entry.relations = relations;
        ex.cache
            .lock()
            .expect("cache lock")
            .insert(digest, Arc::from(body.as_str()));
        ex.obs.count("cache.revalidated", 1);

        let Json::Obj(mut members) = outcome.report.to_json() else {
            unreachable!("delta reports serialize to objects");
        };
        members.push(("load".into(), Json::Num(outcome.result.cost.load as f64)));
        members.push(("audit".into(), outcome.result.audit.to_json()));
        ex.write_artifact("delta", tag, || {
            let mut members = members.clone();
            members.push(("tag".into(), tag.to_json()));
            Json::Obj(members).to_string_sanitized()
        });
        Ok(Answer {
            frame: update_frame(
                req.id,
                started.elapsed().as_nanos(),
                &Json::Obj(members),
                &body,
            ),
            run: None,
        })
    }
}

/// What the scheduler / wire layer knows about a request beyond its
/// frame. The default (rid 0, no queue wait, no deadline) is what a
/// caller outside the server passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestCtx {
    /// Server-allocated request id (tags spans, log events, artifacts).
    pub rid: u64,
    /// Queue-wait span already measured by the scheduler.
    pub queue_ns: u64,
    /// Wall-clock deadline the run is cancelled at, if any.
    pub deadline: Option<Instant>,
}

impl RequestCtx {
    fn tag(&self, id: u64, session: &str) -> RequestTag {
        RequestTag {
            rid: self.rid,
            id,
            session: session.to_string(),
        }
    }
}

/// Saturating nanosecond elapsed-time read.
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Check one wire row of relation `name` (row `j`) against an edge of
/// `arity` attributes: the edge's non-negative values in attribute
/// order, plus an optional trailing weight.
fn check_row(name: &str, j: usize, row: &[i64], arity: usize) -> Result<(), WireError> {
    let got = row.len();
    let detail = if got != arity && got != arity + 1 {
        format!("expected {arity} values (plus an optional weight), got {got}")
    } else if let Some(v) = row[..arity].iter().find(|&&v| v < 0) {
        format!("negative value {v}")
    } else {
        return Ok(());
    };
    let detail = format!("relation `{name}` row {j}: {detail}");
    Err(WireError::new("bad_request", detail))
}

/// A [`check_row`]ed row's edge values and annotation.
fn row_entry<S>(row: &[i64], arity: usize, weight: fn(Option<i64>) -> S) -> (Vec<Value>, S) {
    let values = row[..arity].iter().map(|&v| v as Value).collect();
    (values, weight(row.get(arity).copied()))
}

/// Bind a frame's relation rows to the parsed query's body atoms, in
/// atom order, checking every row: every `bad_request` a request's
/// relations can earn is raised here, before anything is built.
fn bind_relations<'r>(
    relations: &'r RowMap,
    parsed: &ParsedQuery,
) -> Result<Vec<&'r [Vec<i64>]>, WireError> {
    let atoms = parsed.relation_names.iter().zip(parsed.query.edges());
    atoms
        .map(|(name, edge)| {
            let (_, rows) = relations.iter().find(|(n, _)| n == name).ok_or_else(|| {
                WireError::new(
                    "bad_request",
                    format!("no rows provided for relation `{name}`"),
                )
            })?;
            for (j, row) in rows.iter().enumerate() {
                check_row(name, j, row, edge.attrs().len())?;
            }
            Ok(rows.as_slice())
        })
        .collect()
}

/// Build annotated relations from [`bind_relations`]' rows.
fn build_relations<S: Semiring>(
    bound: &[&[Vec<i64>]],
    parsed: &ParsedQuery,
    weight: fn(Option<i64>) -> S,
) -> Vec<Relation<S>> {
    let atoms = bound.iter().zip(parsed.query.edges());
    atoms
        .map(|(rows, edge)| {
            let entries = rows
                .iter()
                .map(|row| row_entry(row, edge.attrs().len(), weight));
            Relation::from_entries(Schema::new(edge.attrs().to_vec()), entries.collect())
        })
        .collect()
}

/// Append the query's structural tokens: edges (attr ids in edge
/// order), then outputs. Shared by the cache digest and the view key.
fn query_tokens(parsed: &ParsedQuery, tokens: &mut Vec<u64>) {
    tokens.push(parsed.query.edges().len() as u64);
    for edge in parsed.query.edges() {
        tokens.push(edge.attrs().len() as u64);
        tokens.extend(edge.attrs().iter().map(|a| a.0 as u64));
    }
    for a in parsed.query.output() {
        tokens.push(a.0 as u64);
    }
}

/// The registry key of a registered view:
/// `(session, semiring, servers, plan, query structure)`. Relation rows
/// are deliberately *not* part of the key — the view's instance evolves
/// under updates — and the session is (views are per-tenant state,
/// unlike the shared result cache).
fn view_key(
    session: &str,
    semiring: &str,
    servers: usize,
    plan: &str,
    parsed: &ParsedQuery,
) -> u128 {
    let mut tokens: Vec<u64> = vec![
        stable_hash(session),
        stable_hash(semiring),
        servers as u64,
        stable_hash(plan),
    ];
    query_tokens(parsed, &mut tokens);
    digest_tokens(&tokens)
}

/// Recover the [`PlanKind`] a canonical body records (its `plan` member
/// is the kind's `Debug` name).
fn body_plan_kind(body: &str) -> Option<PlanKind> {
    let doc = Json::parse(body).ok()?;
    let name = doc.get("plan")?.as_str()?.to_string();
    PlanKind::ALL.into_iter().find(|k| format!("{k:?}") == name)
}

/// Apply an update's row-level edits to a view's wire row list
/// (inserts append, then each delete removes one exactly-matching row —
/// trailing weight included). The input list is untouched on error by
/// construction (the edits operate on a clone).
fn edited_row_list(
    req: &UpdateRequest,
    relations: &RowMap,
) -> Result<Vec<(String, Vec<Vec<i64>>)>, WireError> {
    let bad = |detail: String| WireError::new("bad_request", detail);
    let mut edited = relations.to_vec();
    for (name, rows) in &req.inserts {
        let slot = edited
            .iter_mut()
            .find(|(n, _)| n == name)
            .ok_or_else(|| bad(format!("`inserts`: unknown relation `{name}`")))?;
        slot.1.extend(rows.iter().cloned());
    }
    for (name, rows) in &req.deletes {
        let slot = edited
            .iter_mut()
            .find(|(n, _)| n == name)
            .ok_or_else(|| bad(format!("`deletes`: unknown relation `{name}`")))?;
        for row in rows {
            let at =
                slot.1.iter().position(|r| r == row).ok_or_else(|| {
                    bad(format!("`deletes`: relation `{name}` has no row {row:?}"))
                })?;
            slot.1.remove(at);
        }
    }
    Ok(edited)
}

/// Build the [`DeltaBatch`] an update frame describes, binding each
/// relation name to its query edge (row conventions: [`check_row`]).
fn build_batch<S: Semiring>(
    req: &UpdateRequest,
    parsed: &ParsedQuery,
    weight: fn(Option<i64>) -> S,
) -> Result<DeltaBatch<S>, WireError> {
    let mut batch = DeltaBatch::new(parsed.query.edges().len());
    for (side, is_delete) in [(&req.inserts, false), (&req.deletes, true)] {
        for (name, rows) in side {
            let k = parsed
                .relation_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| {
                    WireError::new(
                        "bad_request",
                        format!("relation `{name}` is not part of the query"),
                    )
                })?;
            let arity = parsed.query.edges()[k].attrs().len();
            for (j, row) in rows.iter().enumerate() {
                check_row(name, j, row, arity)?;
                let (values, w) = row_entry(row, arity, weight);
                if is_delete {
                    batch.delete(k, values, w);
                } else {
                    batch.insert(k, values, w);
                }
            }
        }
    }
    Ok(batch)
}

/// The cache digest of a request, over its canonical token stream. Relation
/// and attribute *names* never enter the stream (attributes are the
/// parser's appearance-ordered ids; relations bind to atoms by
/// position — `bound` is [`bind_relations`]' output), and rows are
/// sorted, so renamed or reordered spellings of the same run share a
/// cache entry. The semiring enters as its index in the wire
/// vocabulary (unknown names never reach the digest).
fn request_digest(
    semiring: &str,
    servers: usize,
    plan: &str,
    limit: Option<usize>,
    bound: &[&[Vec<i64>]],
    parsed: &ParsedQuery,
) -> u128 {
    let mut tokens: Vec<u64> = vec![
        SEMIRING_NAMES
            .iter()
            .position(|n| *n == semiring)
            .map_or(u64::MAX, |tag| tag as u64),
        servers as u64,
        stable_hash(plan),
        limit.map_or(u64::MAX, |n| n as u64),
    ];
    query_tokens(parsed, &mut tokens);
    // Relation data, in atom order, rows sorted (by reference).
    for rows in bound {
        let mut rows: Vec<&Vec<i64>> = rows.iter().collect();
        rows.sort_unstable();
        tokens.push(rows.len() as u64);
        for row in rows {
            tokens.push(row.len() as u64);
            tokens.extend(row.iter().map(|&v| v as u64));
        }
    }
    digest_tokens(&tokens)
}

/// Serialize a run's deterministic summary + output rows. Excludes
/// wall-clock and recovery by design (see the module docs).
fn canonical_body<S: Semiring>(result: &ExecutionResult<S>, limit: Option<usize>) -> String {
    let canonical = result.output.canonical();
    let shown = limit.unwrap_or(canonical.len()).min(canonical.len());
    let rows: Vec<Json> = canonical[..shown]
        .iter()
        .map(|(row, annot)| {
            Json::Arr(vec![
                Json::Arr(row.iter().map(|&v| Json::Num(v as f64)).collect()),
                Json::Str(format!("{annot:?}")),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("plan".into(), Json::Str(format!("{:?}", result.plan))),
        ("load".into(), Json::Num(result.cost.load as f64)),
        ("rounds".into(), Json::Num(result.cost.rounds as f64)),
        (
            "total_units".into(),
            Json::Num(result.cost.total_units as f64),
        ),
        ("output_rows".into(), Json::Num(result.output.len() as f64)),
        ("output_skew".into(), Json::Num(result.output_skew)),
        ("audit".into(), result.audit.to_json()),
        ("rows".into(), Json::Arr(rows)),
    ])
    // The sanitized printer is deterministic and total (non-finite
    // numbers — e.g. the skew of an empty output — become null instead
    // of failing), which is exactly the cache's requirement.
    .to_string_sanitized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{parse_frame, Frame, ResponseView};

    fn request(line: &str) -> QueryRequest {
        match parse_frame(line).expect("frame parses") {
            Frame::Query(req) => *req,
            other => panic!("expected a query frame, got {other:?}"),
        }
    }

    fn mm_request(id: u64) -> QueryRequest {
        request(&format!(
            "{{\"type\":\"query\",\"id\":{id},\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\
             \"relations\":{{\"R\":[[1,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}}}"
        ))
    }

    fn executor() -> Executor {
        Executor::new(64, 1, 16, None, Arc::new(Obs::new()))
    }

    #[test]
    fn cold_run_then_cache_hit_bit_identical() {
        let ex = executor();
        let cold =
            ResponseView::parse(&ex.execute(&mm_request(1), &RequestCtx::default())).unwrap();
        assert_eq!(cold.kind, "result");
        assert!(!cold.cached);
        let hit = ResponseView::parse(&ex.execute(&mm_request(2), &RequestCtx::default())).unwrap();
        assert!(hit.cached, "identical request must hit");
        assert_eq!(cold.result, hit.result, "hit must be bit-identical");
        let stats = ex.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn cache_result_matches_oracle_and_body_shape() {
        let ex = executor();
        let view =
            ResponseView::parse(&ex.execute(&mm_request(1), &RequestCtx::default())).unwrap();
        let body = Json::parse(view.result.as_deref().unwrap()).unwrap();
        assert_eq!(body.get("plan").and_then(Json::as_str), Some("MatMul"));
        // (1, 7) reachable via b = 10 and b = 11 ⇒ Count(2).
        let rows = body.get("rows").and_then(Json::as_arr).unwrap();
        let rendered: Vec<String> = rows
            .iter()
            .map(|r| r.to_string_compact().unwrap())
            .collect();
        assert!(
            rendered.iter().any(|r| r == "[[1,7],\"Count(2)\"]"),
            "{rendered:?}"
        );
        assert!(body.get("elapsed_ns").is_none(), "body is wall-clock-free");
        assert!(body.get("recovery").is_none(), "recovery rides the frame");
    }

    #[test]
    fn digest_ignores_names_and_row_order() {
        let ex = executor();
        assert!(
            !ResponseView::parse(&ex.execute(&mm_request(1), &RequestCtx::default()))
                .unwrap()
                .cached
        );
        // Same run, different spelling: renamed attrs/relations, rows
        // shuffled, members reordered.
        let renamed = request(
            "{\"type\":\"query\",\"id\":9,\"servers\":4,\
             \"relations\":{\"Hop2\":[[11,7],[10,7]],\"Hop1\":[[2,10],[1,11],[1,10]]},\
             \"query\":\"Out(u, w) :- Hop1(u, v), Hop2(v, w)\"}",
        );
        let view = ResponseView::parse(&ex.execute(&renamed, &RequestCtx::default())).unwrap();
        assert!(view.cached, "canonicalized digest must match");
    }

    #[test]
    fn digest_separates_different_runs() {
        let ex = executor();
        let base = mm_request(1);
        assert!(
            !ResponseView::parse(&ex.execute(&base, &RequestCtx::default()))
                .unwrap()
                .cached
        );
        for tweak in [
            "\"servers\":8",
            "\"semiring\":\"bool\"",
            "\"plan\":\"tree\"",
            "\"limit\":1",
        ] {
            let line = format!(
                "{{\"type\":\"query\",\"id\":5,{tweak},\
                 \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
                 \"relations\":{{\"R\":[[1,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}}}"
            );
            let mut req = request(&line);
            if !line.contains("servers") {
                req.servers = base.servers;
            }
            let view = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
            assert!(!view.cached, "{tweak} must change the digest");
        }
    }

    #[test]
    fn faulted_requests_bypass_the_cache_and_recover() {
        let ex = executor();
        let clean =
            ResponseView::parse(&ex.execute(&mm_request(1), &RequestCtx::default())).unwrap();
        let mut faulted = mm_request(2);
        faulted.fault_plan = Some(FaultPlan::new(11).retries(10).reorder(1));
        let view = ResponseView::parse(&ex.execute(&faulted, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "result");
        assert!(!view.cached, "faulted twin must not be served from cache");
        assert!(view.recovered, "recovery report must ride the frame");
        assert_eq!(
            view.result, clean.result,
            "recovered output is bit-identical to the clean twin"
        );
        // And the faulted run must not have poisoned the cache either.
        let mut again = mm_request(3);
        again.fault_plan = Some(FaultPlan::new(11).retries(10).reorder(1));
        assert!(
            !ResponseView::parse(&ex.execute(&again, &RequestCtx::default()))
                .unwrap()
                .cached
        );
    }

    #[test]
    fn errors_are_frames_with_engine_codes() {
        let ex = executor();
        let mut req = mm_request(1);
        req.query = "Q(a c) :- R(a, b)".into();
        let view = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.code.as_deref(), Some("bad_query"));

        let mut req = mm_request(2);
        req.plan = "star".into(); // wrong shape for a matmul query
        let view = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.code.as_deref(), Some("unsupported_plan"));

        let mut req = mm_request(3);
        req.relations.pop();
        let view = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.code.as_deref(), Some("bad_request"));

        let mut req = mm_request(4);
        req.servers = 10_000;
        let view = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.code.as_deref(), Some("bad_request"));

        let mut req = mm_request(5);
        req.semiring = "tropical".into();
        let view = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.code.as_deref(), Some("bad_request"));
        assert_eq!(view.id, Some(5));
    }

    #[test]
    fn relations_are_checked_before_the_cache_is_probed() {
        // A missing relation and an empty one digest alike, so a check
        // that ran after the cache probe would turn this `bad_request`
        // into a hit on the empty twin's entry.
        let ex = executor();
        let empty = request(&mm_query_line(1, false, "{\"R\":[[1,10]],\"S\":[]}"));
        let view = ResponseView::parse(&ex.execute(&empty, &RequestCtx::default())).unwrap();
        assert_eq!((view.kind.as_str(), view.cached), ("result", false));
        let missing = request(&mm_query_line(2, false, "{\"R\":[[1,10]]}"));
        let view = ResponseView::parse(&ex.execute(&missing, &RequestCtx::default())).unwrap();
        assert_eq!(view.code.as_deref(), Some("bad_request"));
        assert!(view.detail.unwrap().contains("relation `S`"));
        assert_eq!(ex.cache_stats().hits, 0);
    }

    #[test]
    fn explain_requests_compile_without_executing() {
        let ex = executor();
        let req = request(
            "{\"type\":\"query\",\"id\":11,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\
             \"relations\":{\"R\":[[1,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}",
        );
        let view = ResponseView::parse(&ex.explain(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "explain");
        assert_eq!(view.id, Some(11));
        let plan = Json::parse(view.plan.as_deref().unwrap()).unwrap();
        assert_eq!(
            plan.get("schema").and_then(Json::as_str),
            Some("mpcjoin-plan-v1")
        );
        assert_eq!(plan.get("chosen").and_then(Json::as_str), Some("MatMul"));
        assert!(plan.get("candidates").and_then(Json::as_arr).is_some());
        // Compilation is side-effect-free: no cache entry was created.
        let stats = ex.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn unknown_plan_names_get_the_typed_error() {
        let ex = executor();
        let mut req = mm_request(8);
        req.plan = "warp".into();
        let view = ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "error");
        assert_eq!(view.code.as_deref(), Some("unknown_plan"));
        assert!(view.detail.as_deref().unwrap().contains("cec"));
    }

    #[test]
    fn expired_deadline_cancels_and_leaves_the_executor_reusable() {
        let ex = executor();
        let req = mm_request(1);
        // A deadline already in the past: the engine cancels at its
        // first round boundary and the typed error becomes the frame.
        let past = Instant::now() - std::time::Duration::from_millis(10);
        let view = ResponseView::parse(&ex.execute(
            &req,
            &RequestCtx {
                rid: 1,
                deadline: Some(past),
                ..RequestCtx::default()
            },
        ))
        .unwrap();
        assert_eq!(view.kind, "error");
        assert_eq!(view.code.as_deref(), Some("deadline_exceeded"));
        assert!(view.detail.as_deref().unwrap().contains("round boundary"));

        // The pooled engine (and the singleflight entry) recovered: the
        // identical request now runs to completion, bit-identical to a
        // fresh executor's run.
        let view =
            ResponseView::parse(&ex.execute(&mm_request(2), &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "result");
        assert!(!view.cached, "cancelled run must not have cached anything");
        let fresh =
            ResponseView::parse(&executor().execute(&mm_request(2), &RequestCtx::default()))
                .unwrap();
        assert_eq!(view.result, fresh.result, "rerun matches a fresh run");
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_execution() {
        use std::sync::Barrier;

        let ex = Arc::new(Executor::new(64, 1, 16, None, Arc::new(Obs::new())));
        // A large-enough instance that execution outlives thread startup,
        // so the followers reliably find the leader in flight.
        let line = {
            let rows: Vec<String> = (0..400)
                .map(|i| format!("[{},{}]", i % 40, 100 + (i * 7) % 50))
                .collect();
            let srows: Vec<String> = (0..400)
                .map(|i| format!("[{},{}]", 100 + (i * 3) % 50, i % 30))
                .collect();
            format!(
                "{{\"type\":\"query\",\"id\":1,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
                 \"servers\":8,\"relations\":{{\"R\":[{}],\"S\":[{}]}}}}",
                rows.join(","),
                srows.join(",")
            )
        };
        const N: usize = 8;
        let barrier = Arc::new(Barrier::new(N));
        let views: Vec<ResponseView> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let ex = Arc::clone(&ex);
                    let barrier = Arc::clone(&barrier);
                    let req = request(&line);
                    scope.spawn(move || {
                        barrier.wait();
                        ResponseView::parse(&ex.execute(&req, &RequestCtx::default())).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let uncached = views.iter().filter(|v| !v.cached).count();
        assert_eq!(uncached, 1, "exactly one thread executed");
        let bodies: Vec<_> = views.iter().map(|v| v.result.as_deref()).collect();
        assert!(
            bodies.iter().all(|b| *b == bodies[0] && b.is_some()),
            "every coalesced response is byte-identical"
        );
        // Each of the other N-1 responses is accounted as either a cache
        // hit or a coalesce hit — never a second execution.
        let coalesced = ex.obs.counter_value("coalesce.hits");
        let stats = ex.cache_stats();
        assert_eq!(stats.hits + coalesced, (N - 1) as u64);
        assert!(coalesced >= 1, "followers joined the in-flight run");
    }

    fn update_request(line: &str) -> UpdateRequest {
        match parse_frame(line).expect("frame parses") {
            Frame::Update(req) => *req,
            other => panic!("expected an update frame, got {other:?}"),
        }
    }

    fn mm_query_line(id: u64, register: bool, relations: &str) -> String {
        format!(
            "{{\"type\":\"query\",\"id\":{id},\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"register\":{register},\"relations\":{relations}}}"
        )
    }

    const MM_ROWS: &str = "{\"R\":[[1,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}";
    const MM_UPDATED_ROWS: &str = "{\"R\":[[1,10],[1,11],[2,10],[9,10]],\"S\":[[10,7]]}";

    #[test]
    fn registered_view_updates_and_revalidates_byte_identically() {
        let ex = executor();
        let reg = request(&mm_query_line(1, true, MM_ROWS));
        assert!(
            !ResponseView::parse(&ex.execute(&reg, &RequestCtx::default()))
                .unwrap()
                .cached
        );

        let upd = update_request(
            "{\"type\":\"update\",\"id\":2,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"inserts\":{\"R\":[[9,10]]},\"deletes\":{\"S\":[[11,7]]}}",
        );
        let view = ResponseView::parse(&ex.update(&upd, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "update");
        let delta = Json::parse(view.delta.as_deref().unwrap()).unwrap();
        assert_eq!(
            delta.get("schema").and_then(Json::as_str),
            Some("mpcjoin-delta-v1")
        );
        assert_eq!(
            delta.get("class").and_then(Json::as_str),
            Some("ring_delta"),
            "count has subtraction: deletes stay incremental"
        );
        assert_eq!(ex.obs.counter_value("delta.applied"), 1);
        assert_eq!(ex.obs.counter_value("cache.revalidated"), 1);

        // The revalidated entry answers the next query over the updated
        // instance as a cache hit...
        let hit = ResponseView::parse(&ex.execute(
            &request(&mm_query_line(3, false, MM_UPDATED_ROWS)),
            &RequestCtx::default(),
        ))
        .unwrap();
        assert!(hit.cached, "revalidated entry must hit");
        // ...byte-identical to the update's echoed body and to a cold
        // run on a fresh executor.
        assert_eq!(view.result, hit.result);
        let fresh = ResponseView::parse(&executor().execute(
            &request(&mm_query_line(3, false, MM_UPDATED_ROWS)),
            &RequestCtx::default(),
        ))
        .unwrap();
        assert_eq!(hit.result, fresh.result, "revalidation is sound");
    }

    #[test]
    fn update_without_registration_is_unknown_view() {
        let ex = executor();
        let upd = update_request(
            "{\"type\":\"update\",\"id\":1,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"inserts\":{\"R\":[[9,10]]}}",
        );
        let view = ResponseView::parse(&ex.update(&upd, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "error");
        assert_eq!(view.code.as_deref(), Some("unknown_view"));
        assert!(view.detail.as_deref().unwrap().contains("register"));
    }

    #[test]
    fn bad_deletes_reject_and_leave_the_view_usable() {
        let ex = executor();
        ex.execute(
            &request(&mm_query_line(1, true, MM_ROWS)),
            &RequestCtx::default(),
        );
        // Deleting a row the view does not hold is all-or-nothing.
        let bad = update_request(
            "{\"type\":\"update\",\"id\":2,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"inserts\":{\"R\":[[9,10]]},\"deletes\":{\"S\":[[5,5]]}}",
        );
        let view = ResponseView::parse(&ex.update(&bad, &RequestCtx::default())).unwrap();
        assert_eq!(view.code.as_deref(), Some("bad_request"));
        assert!(view.detail.as_deref().unwrap().contains("no row"));
        assert_eq!(ex.obs.counter_value("delta.applied"), 0);
        // The rejected frame changed nothing: the same view still
        // absorbs a valid update afterwards.
        let good = update_request(
            "{\"type\":\"update\",\"id\":3,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"inserts\":{\"R\":[[9,10]]},\"deletes\":{\"S\":[[11,7]]}}",
        );
        let view = ResponseView::parse(&ex.update(&good, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "update", "{:?}", view.detail);
        let hit = ResponseView::parse(&ex.execute(
            &request(&mm_query_line(4, false, MM_UPDATED_ROWS)),
            &RequestCtx::default(),
        ))
        .unwrap();
        assert!(hit.cached);
        assert_eq!(view.result, hit.result);
    }

    #[test]
    fn idempotent_semirings_fall_back_and_still_revalidate() {
        let ex = executor();
        let reg = request(
            "{\"type\":\"query\",\"id\":1,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"semiring\":\"bool\",\"register\":true,\
             \"relations\":{\"R\":[[1,10],[1,11],[2,10]],\"S\":[[10,7],[11,7]]}}",
        );
        ex.execute(&reg, &RequestCtx::default());
        let upd = update_request(
            "{\"type\":\"update\",\"id\":2,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"semiring\":\"bool\",\"deletes\":{\"R\":[[2,10]]}}",
        );
        let view = ResponseView::parse(&ex.update(&upd, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "update");
        let delta = Json::parse(view.delta.as_deref().unwrap()).unwrap();
        assert_eq!(
            delta.get("class").and_then(Json::as_str),
            Some("rerun_fallback"),
            "bool has no subtraction: deletes rerun deterministically"
        );
        assert_eq!(ex.obs.counter_value("delta.fallback"), 1);
        assert_eq!(ex.obs.counter_value("cache.revalidated"), 1);
        let requery = request(
            "{\"type\":\"query\",\"id\":3,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"semiring\":\"bool\",\
             \"relations\":{\"R\":[[1,10],[1,11]],\"S\":[[10,7],[11,7]]}}",
        );
        let hit = ResponseView::parse(&ex.execute(&requery, &RequestCtx::default())).unwrap();
        assert!(hit.cached);
        assert_eq!(view.result, hit.result);
        let fresh =
            ResponseView::parse(&executor().execute(&requery, &RequestCtx::default())).unwrap();
        assert_eq!(hit.result, fresh.result);
    }

    #[test]
    fn registration_from_a_cache_hit_works() {
        let ex = executor();
        // Cold, unregistered...
        assert!(
            !ResponseView::parse(&ex.execute(
                &request(&mm_query_line(1, false, MM_ROWS)),
                &RequestCtx::default()
            ))
            .unwrap()
            .cached
        );
        // ...then the registering twin is served from cache AND registers.
        let hit = ResponseView::parse(&ex.execute(
            &request(&mm_query_line(2, true, MM_ROWS)),
            &RequestCtx::default(),
        ))
        .unwrap();
        assert!(hit.cached, "`register` must not change the digest");
        assert_eq!(ex.obs.counter_value("view.registered"), 1);
        let upd = update_request(
            "{\"type\":\"update\",\"id\":3,\"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
             \"servers\":4,\"inserts\":{\"R\":[[9,10]]},\"deletes\":{\"S\":[[11,7]]}}",
        );
        let view = ResponseView::parse(&ex.update(&upd, &RequestCtx::default())).unwrap();
        assert_eq!(view.kind, "update", "{:?}", view.detail);
    }

    #[test]
    fn weighted_semirings_execute() {
        let line = "{\"type\":\"query\",\"id\":1,\"semiring\":\"minplus\",\"servers\":4,\
                    \"query\":\"Q(a, c) :- R(a, b), S(b, c)\",\
                    \"relations\":{\"R\":[[1,10,5],[1,11,2]],\"S\":[[10,7,1],[11,7,9]]}}";
        let view = ResponseView::parse(&executor().execute(&request(line), &RequestCtx::default()))
            .unwrap();
        let body = Json::parse(view.result.as_deref().unwrap()).unwrap();
        let rows = body.get("rows").and_then(Json::as_arr).unwrap();
        // Shortest 1→7 cost: min(5 + 1, 2 + 9) = 6.
        let rendered = rows[0].to_string_compact().unwrap();
        assert!(rendered.contains('6'), "{rendered}");
    }
}
