//! The scheduler: bounded admission queue, worker pool, per-session
//! quotas, and graceful drain.
//!
//! Admission control is explicit and structured: a request that cannot
//! be queued is *answered* — with an `overloaded`, `quota_exceeded`, or
//! `draining` error frame carrying a retry hint — never silently
//! dropped, and the connection stays open. This is the serving analogue
//! of the library's "errors at the boundary, never panics" rule.
//!
//! ## Lifecycle
//!
//! ```text
//! submit ──► [admission checks] ──► queue ──► worker: execute ──► respond
//!                 │ full / quota / draining
//!                 └──► error frame (retry_after_ms)
//! ```
//!
//! A session's quota counts its queued *and* running jobs, and is
//! released only after the response callback returns — a tenant can
//! never hold more than `session_quota` executor slots no matter how
//! fast it pipelines.
//!
//! [`Scheduler::drain`] flips the admission gate (new work is rejected
//! with `draining`), waits for the queue to empty and every in-flight
//! job's response to be delivered, and reports how many jobs completed
//! over the scheduler's lifetime. [`Scheduler::shutdown`] then stops and
//! joins the workers.

use crate::obs::Obs;
use crate::run::{Executor, RequestCtx};
use crate::wire::{QueryRequest, WireError};
use mpcjoin::mpc::json::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer tuning knobs (every one has a CLI flag on
/// `mpcjoin-serve`).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent executor slots (worker threads).
    pub workers: usize,
    /// Admission queue capacity (jobs waiting for a worker).
    pub queue_cap: usize,
    /// Maximum queued + running jobs per session.
    pub session_quota: usize,
    /// Result cache capacity (entries).
    pub cache_cap: usize,
    /// Upper bound on a request's simulated cluster width.
    pub max_servers: usize,
    /// Local-computation threads inside one job.
    pub threads_per_job: usize,
    /// Retry hint attached to backpressure rejections.
    pub retry_after_ms: u64,
    /// Upper bound on how long [`Scheduler::drain`] waits for the queue
    /// and in-flight work; past it, still-queued requests are answered
    /// with `draining` errors and the drain returns anyway.
    pub drain_deadline_ms: u64,
    /// Admission byte budget: requests whose relation payload exceeds
    /// this are rejected with `cost_exceeded` (default: unlimited).
    pub max_relation_bytes: u64,
    /// Admission cost ceiling: requests whose compiler-predicted load
    /// bound exceeds this are rejected with `cost_exceeded` (default:
    /// unlimited).
    pub cost_ceiling: f64,
    /// Per-query trace/metrics artifact directory.
    pub artifact_dir: Option<std::path::PathBuf>,
    /// `mpcjoin-log-v1` operational log file (`--log`).
    pub log_file: Option<std::path::PathBuf>,
    /// Text-exposition dump written at drain time (`--obs-dump`).
    pub obs_dump: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            session_quota: 16,
            cache_cap: 256,
            max_servers: 256,
            threads_per_job: 1,
            retry_after_ms: 25,
            drain_deadline_ms: 30_000,
            max_relation_bytes: u64::MAX,
            cost_ceiling: f64::INFINITY,
            artifact_dir: None,
            log_file: None,
            obs_dump: None,
        }
    }
}

/// Monotone serving counters (reported in `stats` frames).
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Jobs admitted to the queue.
    pub admitted: u64,
    /// Jobs whose response has been delivered.
    pub completed: u64,
    /// Rejections: queue full.
    pub rejected_overload: u64,
    /// Rejections: session over quota.
    pub rejected_quota: u64,
    /// Rejections: server draining.
    pub rejected_draining: u64,
    /// Rejections: relation-byte budget or cost ceiling exceeded.
    pub rejected_cost: u64,
    /// Queued jobs shed (unexecuted) because their deadline expired.
    pub shed_deadline: u64,
}

impl SchedStats {
    /// The counters as a `(name, value)` list — the one field list the
    /// stats payload's JSON and text renderings are both built from.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("admitted", self.admitted),
            ("completed", self.completed),
            ("rejected_overload", self.rejected_overload),
            ("rejected_quota", self.rejected_quota),
            ("rejected_draining", self.rejected_draining),
            ("rejected_cost", self.rejected_cost),
            ("shed_deadline", self.shed_deadline),
        ]
    }
}

struct Job {
    /// Server-allocated request id (spans + log linkage).
    rid: u64,
    /// When the job entered the queue (queue-wait span).
    enqueued: Instant,
    /// Absolute deadline (from the request's `deadline_ms`): expired
    /// jobs are shed from the queue before consuming a worker, and a
    /// running job is cancelled at its next engine round boundary.
    deadline: Option<Instant>,
    request: QueryRequest,
    respond: Box<dyn FnOnce(String) + Send>,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Queued + running jobs per session key.
    session_load: HashMap<String, usize>,
    running: usize,
    draining: bool,
    stopped: bool,
}

struct Inner {
    cfg: ServerConfig,
    obs: Arc<Obs>,
    executor: Executor,
    state: Mutex<State>,
    /// Signaled when work arrives or the scheduler stops.
    work_cv: Condvar,
    /// Signaled when a job finishes (drain waits on this).
    idle_cv: Condvar,
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_cost: AtomicU64,
    shed_deadline: AtomicU64,
}

/// The worker pool + admission queue. Shared across connection threads
/// behind an `Arc`; owns its worker threads until [`Scheduler::shutdown`].
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Start `cfg.workers` workers over a fresh executor (and the
    /// observability plane — with the operational log attached when
    /// `cfg.log_file` is set; a log-file open failure downgrades to
    /// metrics-only with a stderr note rather than refusing to serve).
    pub fn new(cfg: ServerConfig) -> Self {
        let obs = Arc::new(match &cfg.log_file {
            None => Obs::new(),
            Some(path) => Obs::with_log(path).unwrap_or_else(|e| {
                eprintln!(
                    "cannot open log file {}: {e}; logging disabled",
                    path.display()
                );
                Obs::new()
            }),
        });
        obs.log_event(
            "info",
            "server_start",
            vec![
                ("workers".into(), Json::Num(cfg.workers as f64)),
                ("queue_cap".into(), Json::Num(cfg.queue_cap as f64)),
                ("session_quota".into(), Json::Num(cfg.session_quota as f64)),
                ("cache_cap".into(), Json::Num(cfg.cache_cap as f64)),
            ],
        );
        let executor = Executor::new(
            cfg.max_servers,
            cfg.threads_per_job,
            cfg.cache_cap,
            cfg.artifact_dir.clone(),
            Arc::clone(&obs),
        );
        let inner = Arc::new(Inner {
            obs,
            executor,
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            rejected_cost: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The executor (for cache statistics).
    pub fn executor(&self) -> &Executor {
        &self.inner.executor
    }

    /// The shared observability plane.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// The full `mpcjoin-serverstats-v1` payload.
    pub fn stats_doc(&self) -> Json {
        self.inner
            .obs
            .stats_json(&self.stats(), &self.inner.executor.cache_stats())
    }

    /// The text exposition of the stats payload.
    pub fn stats_text(&self) -> String {
        self.inner
            .obs
            .stats_text(&self.stats(), &self.inner.executor.cache_stats())
    }

    /// Submit a query under a server-allocated request id. Exactly one
    /// call to `respond` happens — either immediately (a rejection
    /// frame, on the submitter's thread) or from a worker once the job
    /// executes. `respond` must be cheap-ish: it runs with no scheduler
    /// lock held but occupies the worker.
    pub fn submit(
        &self,
        rid: u64,
        request: QueryRequest,
        respond: impl FnOnce(String) + Send + 'static,
    ) {
        let inner = &self.inner;
        // Admission pricing runs outside the queue lock: both checks are
        // pure reads of the request (compilation is statistics-only).
        let (counter, e) = 'refused: {
            if let Some(priced) = inner.price(&request) {
                break 'refused priced;
            }
            let mut state = inner.state.lock().expect("scheduler lock");
            if let Some(refused) = inner.refuse(&state, &request) {
                break 'refused refused;
            }
            *state
                .session_load
                .entry(request.session.clone())
                .or_insert(0) += 1;
            inner.admitted.fetch_add(1, Ordering::Relaxed);
            inner.obs.queue_enter();
            let now = Instant::now();
            state.queue.push_back(Job {
                rid,
                enqueued: now,
                deadline: request
                    .deadline_ms
                    .map(|ms| now + Duration::from_millis(ms)),
                request,
                respond: Box::new(respond),
            });
            inner.work_cv.notify_one();
            return;
        };
        // Rejections are counted, logged, and delivered outside the lock.
        (respond)(inner.reject(counter, rid, &request, e));
    }

    /// Stop admitting work, wait until the queue is empty and every
    /// in-flight job's response has been delivered, and return the
    /// number of jobs completed over the scheduler's lifetime.
    ///
    /// The wait is bounded by `drain_deadline_ms`: past it, still-queued
    /// jobs are answered with structured `draining` errors instead of
    /// executing, so a wedged or saturated worker pool can never hold
    /// shutdown hostage.
    pub fn drain(&self) -> u64 {
        let inner = &self.inner;
        let deadline = Instant::now() + Duration::from_millis(inner.cfg.drain_deadline_ms);
        let (completed, shed) = {
            let mut state = inner.state.lock().expect("scheduler lock");
            state.draining = true;
            let mut shed: Vec<Job> = Vec::new();
            while !state.queue.is_empty() || state.running > 0 {
                let now = Instant::now();
                if now >= deadline {
                    shed = state.queue.drain(..).collect();
                    for job in &shed {
                        release_session(&mut state, &job.request.session);
                    }
                    break;
                }
                state = inner
                    .idle_cv
                    .wait_timeout(state, deadline - now)
                    .expect("scheduler lock")
                    .0;
            }
            (inner.completed.load(Ordering::Relaxed), shed)
        };
        let shed_count = shed.len();
        for job in shed {
            // Shed jobs were admitted, so balance the gauges exactly as
            // a worker pop would before answering.
            inner.obs.job_start();
            inner.obs.job_end();
            let e = WireError::new(
                "draining",
                "drain deadline reached before this job could run",
            );
            (job.respond)(inner.reject(&inner.rejected_draining, job.rid, &job.request, e));
        }
        let mut fields = vec![("completed".into(), Json::Num(completed as f64))];
        if shed_count > 0 {
            fields.push(("shed".into(), Json::Num(shed_count as f64)));
        }
        inner.obs.log_event("info", "drain", fields);
        if let Some(path) = &inner.cfg.obs_dump {
            if let Err(e) = std::fs::write(path, self.stats_text()) {
                eprintln!("cannot write obs dump {}: {e}", path.display());
            }
        }
        completed
    }

    /// Drain, then stop and join the worker threads. Safe to call from a
    /// shared handle; a second call finds no workers left to join.
    pub fn shutdown(&self) -> u64 {
        let completed = self.drain();
        {
            let mut state = self.inner.state.lock().expect("scheduler lock");
            state.stopped = true;
            self.inner.work_cv.notify_all();
        }
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.inner.obs.log_event(
            "info",
            "shutdown",
            vec![("completed".into(), Json::Num(completed as f64))],
        );
        completed
    }

    /// Current counters.
    pub fn stats(&self) -> SchedStats {
        let inner = &self.inner;
        SchedStats {
            admitted: inner.admitted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            rejected_overload: inner.rejected_overload.load(Ordering::Relaxed),
            rejected_quota: inner.rejected_quota.load(Ordering::Relaxed),
            rejected_draining: inner.rejected_draining.load(Ordering::Relaxed),
            rejected_cost: inner.rejected_cost.load(Ordering::Relaxed),
            shed_deadline: inner.shed_deadline.load(Ordering::Relaxed),
        }
    }
}

impl Inner {
    /// Priced admission: the relation-byte budget, then the compiler's
    /// predicted load bound against the cost ceiling.
    fn price(&self, request: &QueryRequest) -> Option<(&AtomicU64, WireError)> {
        let cfg = &self.cfg;
        let bytes = Executor::relation_bytes(request);
        let detail = if bytes > cfg.max_relation_bytes {
            format!(
                "relation payload {bytes} bytes exceeds the {}-byte budget",
                cfg.max_relation_bytes
            )
        } else if cfg.cost_ceiling.is_finite() {
            let bound = self.executor.predicted_bound(request)?;
            if bound <= cfg.cost_ceiling {
                return None;
            }
            format!(
                "predicted load bound {bound:.0} exceeds the ceiling {:.0}",
                cfg.cost_ceiling
            )
        } else {
            return None;
        };
        Some((&self.rejected_cost, WireError::new("cost_exceeded", detail)))
    }

    /// Queue admission, under the state lock: why `request` cannot be
    /// queued right now (draining, queue full, session over quota).
    fn refuse(&self, state: &State, request: &QueryRequest) -> Option<(&AtomicU64, WireError)> {
        let cfg = &self.cfg;
        if state.draining || state.stopped {
            let detail = "server is shutting down; no new work admitted";
            return Some((&self.rejected_draining, WireError::new("draining", detail)));
        }
        let load = state.session_load.get(&request.session).map_or(0, |n| *n);
        let (counter, code, detail) = if state.queue.len() >= cfg.queue_cap {
            let detail = format!("admission queue full ({} queued)", state.queue.len());
            (&self.rejected_overload, "overloaded", detail)
        } else if load >= cfg.session_quota {
            let detail = format!(
                "session `{}` already has {load} jobs in flight (quota {})",
                request.session, cfg.session_quota
            );
            (&self.rejected_quota, "quota_exceeded", detail)
        } else {
            return None;
        };
        // Backpressure is a retryable answer; draining is not.
        let mut e = WireError::new(code, detail);
        e.retry_after_ms = Some(cfg.retry_after_ms);
        Some((counter, e))
    }

    /// The scheduler's rejection epilogue: bump the reason's counter,
    /// then hand the error to [`Obs::reject`] (event, `error.{code}`,
    /// frame) under the request's id and session.
    fn reject(
        &self,
        counter: &AtomicU64,
        rid: u64,
        request: &QueryRequest,
        mut e: WireError,
    ) -> String {
        counter.fetch_add(1, Ordering::Relaxed);
        e.id = Some(request.id);
        let session = Json::Str(request.session.clone());
        self.obs.reject(rid, ("session", session), &e)
    }
}

/// Release one queued-or-running slot of `session`'s quota.
fn release_session(state: &mut State, session: &str) {
    if let Some(load) = state.session_load.get_mut(session) {
        *load -= 1;
        if *load == 0 {
            state.session_load.remove(session);
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("scheduler lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.running += 1;
                    break job;
                }
                if state.stopped {
                    return;
                }
                state = inner.work_cv.wait(state).expect("scheduler lock");
            }
        };
        inner.obs.job_start();
        let frame = if job.deadline.is_some_and(|d| Instant::now() >= d) {
            // The deadline expired while the job was queued: shed it
            // before doing any work. A shed is a rejection, not a
            // completion — `completed` stays put.
            inner.obs.job_end();
            let e = WireError::new(
                "deadline_exceeded",
                format!(
                    "deadline expired after {}ms in queue",
                    job.enqueued.elapsed().as_millis()
                ),
            );
            inner.reject(&inner.shed_deadline, job.rid, &job.request, e)
        } else {
            let queue_ns = job.enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let ctx = RequestCtx {
                rid: job.rid,
                queue_ns,
                deadline: job.deadline,
            };
            let frame = inner.executor.execute(&job.request, &ctx);
            // The completion counter and gauge move *before* the response
            // is delivered: a client that scrapes stats after receiving
            // all its responses must see `completed` cover every one.
            inner.completed.fetch_add(1, Ordering::Relaxed);
            inner.obs.job_end();
            frame
        };
        (job.respond)(frame);
        let mut state = inner.state.lock().expect("scheduler lock");
        state.running -= 1;
        release_session(&mut state, &job.request.session);
        inner.idle_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ResponseView;
    use std::sync::mpsc;

    fn mm_request(id: u64, session: &str, delay_ms: u64) -> QueryRequest {
        QueryRequest {
            id,
            session: session.to_string(),
            query: "Q(a, c) :- R(a, b), S(b, c)".into(),
            semiring: "count".into(),
            servers: 4,
            plan: "auto".into(),
            relations: vec![
                ("R".into(), vec![vec![1, 10], vec![1, 11], vec![2, 10]]),
                ("S".into(), vec![vec![10, 7], vec![11, 7]]),
            ],
            limit: None,
            delay_ms,
            deadline_ms: None,
            fault_plan: None,
            register: false,
        }
    }

    fn small(workers: usize, queue_cap: usize, quota: usize) -> Scheduler {
        Scheduler::new(ServerConfig {
            workers,
            queue_cap,
            session_quota: quota,
            cache_cap: 0, // keep every run cold so delays actually apply
            ..ServerConfig::default()
        })
    }

    #[test]
    fn every_submission_gets_exactly_one_response() {
        let sched = small(4, 64, 64);
        let (tx, rx) = mpsc::channel::<String>();
        const N: u64 = 40;
        for id in 0..N {
            let tx = tx.clone();
            sched.submit(id + 1, mm_request(id, "t", 0), move |frame| {
                tx.send(frame).expect("collector alive");
            });
        }
        let mut ids: Vec<u64> = (0..N)
            .map(|_| {
                let frame = rx.recv().expect("a response per submission");
                let view = ResponseView::parse(&frame).expect("parseable");
                assert_eq!(view.kind, "result");
                view.id.expect("result frames echo ids")
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..N).collect::<Vec<_>>(), "no lost or duplicated");
        assert_eq!(sched.shutdown(), N);
    }

    #[test]
    fn overload_rejects_with_retry_hint() {
        // One deliberately-slow worker and a tiny queue: the tail of a
        // burst must be rejected as `overloaded`, not dropped.
        let sched = small(1, 2, 1000);
        let (tx, rx) = mpsc::channel::<String>();
        for id in 0..20 {
            let tx = tx.clone();
            sched.submit(id + 1, mm_request(id, "t", 30), move |frame| {
                tx.send(frame).expect("collector alive");
            });
        }
        let frames: Vec<ResponseView> = (0..20)
            .map(|_| ResponseView::parse(&rx.recv().unwrap()).unwrap())
            .collect();
        let rejected = frames.iter().filter(|v| v.kind == "error").count();
        assert!(rejected > 0, "burst must overflow the queue");
        for v in frames.iter().filter(|v| v.kind == "error") {
            assert_eq!(v.code.as_deref(), Some("overloaded"));
            assert!(v.retry_after_ms.is_some());
        }
        let stats = sched.stats();
        assert_eq!(stats.rejected_overload, rejected as u64);
        assert_eq!(stats.admitted, 20 - rejected as u64);
        sched.shutdown();
    }

    #[test]
    fn session_quota_is_enforced_per_session() {
        let sched = small(1, 64, 2);
        let (tx, rx) = mpsc::channel::<String>();
        // Session `a` floods; session `b` sends one job. Only `a` may be
        // quota-rejected.
        for id in 0..6 {
            let tx = tx.clone();
            sched.submit(id + 1, mm_request(id, "a", 20), move |f| {
                tx.send(f).unwrap()
            });
        }
        let tx2 = tx.clone();
        sched.submit(101, mm_request(100, "b", 0), move |f| tx2.send(f).unwrap());
        let frames: Vec<ResponseView> = (0..7)
            .map(|_| ResponseView::parse(&rx.recv().unwrap()).unwrap())
            .collect();
        let quota_rejected: Vec<_> = frames
            .iter()
            .filter(|v| v.code.as_deref() == Some("quota_exceeded"))
            .collect();
        assert_eq!(quota_rejected.len(), 4, "a: 2 admitted of 6");
        assert!(
            quota_rejected.iter().all(|v| v.id != Some(100)),
            "session b is under quota"
        );
        assert!(frames
            .iter()
            .any(|v| v.id == Some(100) && v.kind == "result"));
        sched.shutdown();
    }

    #[test]
    fn drain_completes_in_flight_work_then_rejects() {
        let sched = small(2, 64, 64);
        let (tx, rx) = mpsc::channel::<String>();
        for id in 0..6 {
            let tx = tx.clone();
            sched.submit(id + 1, mm_request(id, "t", 25), move |f| {
                tx.send(f).unwrap()
            });
        }
        let completed = sched.drain();
        assert_eq!(completed, 6, "drain waits for in-flight work");
        // All six responses were delivered before drain returned.
        for _ in 0..6 {
            let v = ResponseView::parse(&rx.try_recv().expect("delivered")).unwrap();
            assert_eq!(v.kind, "result");
        }
        // Post-drain submissions are structured rejections.
        let (tx2, rx2) = mpsc::channel::<String>();
        sched.submit(100, mm_request(99, "t", 0), move |f| tx2.send(f).unwrap());
        let v = ResponseView::parse(&rx2.recv().unwrap()).unwrap();
        assert_eq!(v.code.as_deref(), Some("draining"));
        assert_eq!(sched.stats().rejected_draining, 1);
        sched.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_from_the_queue() {
        // One worker busy for ~60ms; a 1ms-deadline job queued behind it
        // must be shed (never executed), while a no-deadline sibling
        // still runs.
        let sched = small(1, 64, 64);
        let (tx, rx) = mpsc::channel::<String>();
        let tx1 = tx.clone();
        sched.submit(1, mm_request(1, "t", 60), move |f| tx1.send(f).unwrap());
        let mut doomed = mm_request(2, "t", 0);
        doomed.deadline_ms = Some(1);
        let tx2 = tx.clone();
        sched.submit(2, doomed, move |f| tx2.send(f).unwrap());
        let tx3 = tx.clone();
        sched.submit(3, mm_request(3, "t", 0), move |f| tx3.send(f).unwrap());

        let frames: Vec<ResponseView> = (0..3)
            .map(|_| ResponseView::parse(&rx.recv().unwrap()).unwrap())
            .collect();
        let shed: Vec<_> = frames
            .iter()
            .filter(|v| v.code.as_deref() == Some("deadline_exceeded"))
            .collect();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, Some(2));
        assert!(shed[0].detail.as_deref().unwrap().contains("in queue"));
        assert!(frames.iter().any(|v| v.id == Some(3) && v.kind == "result"));
        let stats = sched.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.completed, 2, "shed jobs are not completions");
        assert_eq!(sched.shutdown(), 2);
    }

    #[test]
    fn drain_deadline_sheds_the_queue_and_returns() {
        // One slow worker, a deep queue, and a 1ms drain budget: drain
        // must answer the queued tail with `draining` errors instead of
        // waiting for every job.
        let sched = Scheduler::new(ServerConfig {
            workers: 1,
            queue_cap: 64,
            session_quota: 64,
            cache_cap: 0,
            drain_deadline_ms: 1,
            ..ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel::<String>();
        for id in 0..8 {
            let tx = tx.clone();
            sched.submit(id + 1, mm_request(id, "t", 40), move |f| {
                tx.send(f).unwrap()
            });
        }
        let started = Instant::now();
        sched.drain();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drain must not wait for the whole queue"
        );
        let frames: Vec<ResponseView> = (0..8)
            .map(|_| ResponseView::parse(&rx.recv().unwrap()).unwrap())
            .collect();
        let drained = frames
            .iter()
            .filter(|v| v.code.as_deref() == Some("draining"))
            .count();
        assert!(drained > 0, "queued tail must be shed");
        assert_eq!(
            sched.stats().rejected_draining,
            drained as u64,
            "every shed job is counted"
        );
        assert_eq!(
            frames.iter().filter(|v| v.kind == "result").count() + drained,
            8,
            "every submission still gets exactly one response"
        );
        sched.shutdown();
    }

    #[test]
    fn admission_prices_bytes_and_bounds() {
        // Byte budget: the mm request carries 10 values = 80 bytes.
        let sched = Scheduler::new(ServerConfig {
            max_relation_bytes: 40,
            ..ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel::<String>();
        sched.submit(1, mm_request(1, "t", 0), move |f| tx.send(f).unwrap());
        let v = ResponseView::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(v.code.as_deref(), Some("cost_exceeded"));
        assert!(v.detail.as_deref().unwrap().contains("byte"));
        assert_eq!(sched.stats().rejected_cost, 1);
        assert_eq!(sched.stats().admitted, 0);
        sched.shutdown();

        // Cost ceiling: an absurdly low ceiling rejects with the bound
        // in the detail; a generous one admits.
        let sched = Scheduler::new(ServerConfig {
            cost_ceiling: 0.001,
            ..ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel::<String>();
        sched.submit(1, mm_request(1, "t", 0), move |f| tx.send(f).unwrap());
        let v = ResponseView::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(v.code.as_deref(), Some("cost_exceeded"));
        assert!(v.detail.as_deref().unwrap().contains("ceiling"));
        sched.shutdown();

        let sched = Scheduler::new(ServerConfig {
            cost_ceiling: 1e12,
            ..ServerConfig::default()
        });
        let (tx, rx) = mpsc::channel::<String>();
        sched.submit(1, mm_request(1, "t", 0), move |f| tx.send(f).unwrap());
        let v = ResponseView::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(v.kind, "result", "under the ceiling: admitted and run");
        sched.shutdown();
    }
}
