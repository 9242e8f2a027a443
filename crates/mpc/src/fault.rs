//! Deterministic fault plane: seeded fault injection, recovery
//! simulation, and recovery reporting for the MPC simulator.
//!
//! The MPC model of §1.3 assumes fail-free servers; a production cluster
//! does not get that luxury. This module adds an opt-in *fault plane* —
//! a [`crate::observe::RoundObserver`] at the boundary of
//! [`crate::Cluster::exchange`], the simulator's single data-movement
//! operation — that models the reliable-delivery layer a real deployment
//! would run on lossy hardware:
//!
//! * every message in a round carries a **sequence number**; receivers
//!   acknowledge, deduplicate, and resequence by it,
//! * **dropped** messages are detected (missing acks) and selectively
//!   retransmitted under a bounded [`RetryPolicy`] with backoff,
//! * **duplicated** deliveries are discarded by the dedup buffer,
//! * **reordered** deliveries are corrected by the resequencing buffer,
//! * a **crash-stop** server failure at a round boundary voids the
//!   in-flight round; the round is *replayed* from the sender-side
//!   buffer (the simulation works on message sequence numbers, see
//!   [`FaultPlane`]) and the lost physical server's slots are
//!   deterministically rehashed onto the surviving `p − f` servers,
//! * **stragglers** delay a round's completion — visible in wall-clock
//!   spans only, never in the cost ledger,
//! * transient **local-compute faults** are retried by the same policy.
//!
//! Faults are scheduled by a [`FaultPlan`]: a small DSL of fault specs
//! (kind + round window + parameters) plus a `u64` seed driving a
//! dedicated [`DetRng`] stream, so every fault schedule — and every
//! recovery action it forces — is exactly reproducible.
//!
//! ## Why the cost ledger is fault-invariant
//!
//! The ledger measures the *algorithm* in the MPC model: the load `L` of
//! §1.3 is a property of what the algorithm communicates, not of how
//! many times the transport had to resend it. The fault plane therefore
//! never touches the ledger: recovery overhead (retransmitted units,
//! replayed rounds, retries, dedup discards) is accounted separately in
//! the [`RecoveryReport`], and delays surface in wall-clock spans. A
//! recovered run's output *and* ledger are bit-identical to the
//! fault-free run — pinned by the recovery-equivalence suite and the
//! `chaos` harness — because the reliable-delivery layer, when it
//! succeeds, delivers exactly the faithful message sequence.
//!
//! When recovery is impossible within the retry budget (e.g. a plan that
//! drops every retransmission), the plane marks the run *unrecoverable*;
//! the simulator finishes the computation (to keep library invariants)
//! and the engine boundary surfaces [`crate::MpcError::Unrecoverable`]
//! instead of a result — never a panic.

use crate::json::Json;
use crate::observe::{Proceed, RoundCtx, RoundObserver};
use crate::rng::DetRng;
use crate::{CancelCause, MpcError};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

/// Bounded retry/backoff policy for transient faults (dropped messages,
/// failing local-compute tasks).
///
/// Attempt `k` (1-based) waits `backoff · k` before retransmitting —
/// linear backoff, deterministic, and visible only in wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt; a round whose messages
    /// are still missing after this many retransmissions is
    /// unrecoverable.
    pub max_retries: u32,
    /// Base backoff delay; attempt `k` sleeps `backoff · k`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::ZERO,
        }
    }
}

/// What kind of fault a [`FaultSpec`] injects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Crash-stop failure of a physical server at the round boundary:
    /// the in-flight round is voided and replayed from the sender-side buffer,
    /// and the server's logical slots are rehashed onto survivors.
    /// Ignored when it would leave no survivor (a 1-server cluster).
    Crash {
        /// Physical server that fails.
        server: usize,
    },
    /// Each in-flight message is independently dropped with probability
    /// `prob` (per delivery attempt, redrawn on retransmission).
    Drop {
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
    },
    /// Each delivered message is independently duplicated with
    /// probability `prob`; duplicates are discarded by sequence-number
    /// dedup.
    Duplicate {
        /// Per-message duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// The round's delivery order is shuffled; the resequencing buffer
    /// restores `(src, position)` order.
    Reorder,
    /// A straggling server delays the round by `delay` (wall clock
    /// only).
    Straggle {
        /// The slow physical server.
        server: usize,
        /// How long it lags the round barrier.
        delay: Duration,
    },
    /// A local-compute task fails transiently `failures` times before
    /// succeeding; each failure costs one retry under the
    /// [`RetryPolicy`]. More failures than `max_retries` is
    /// unrecoverable.
    ComputeFault {
        /// Number of consecutive transient failures.
        failures: u32,
    },
}

impl FaultKind {
    /// Stable lowercase name (used in the JSON plan format).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Drop { .. } => "drop",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Straggle { .. } => "straggle",
            FaultKind::ComputeFault { .. } => "compute",
        }
    }
}

/// One scheduled fault: a kind active over a half-open global-round
/// window `[from, to)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// First round the fault is active in.
    pub from: u64,
    /// First round the fault is no longer active in.
    pub to: u64,
    /// What to inject.
    pub kind: FaultKind,
}

impl FaultSpec {
    fn active(&self, round: u64) -> bool {
        self.from <= round && round < self.to
    }
}

/// A deterministic, seeded schedule of faults — the fault plane's DSL.
///
/// Build one with the chainable constructors and install it with
/// `QueryEngine::faults` (or as a [`FaultPlane`] through
/// [`crate::Cluster::observe`] when driving a cluster directly):
///
/// ```
/// use mpcjoin_mpc::fault::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new(42)
///     .drop_window(0, 8, 0.2)            // 20% loss in rounds 0..8
///     .duplicate(3, 0.5)                 // duplications in round 3
///     .reorder(2)                        // shuffled delivery in round 2
///     .crash(4, 1)                       // server 1 dies at round 4
///     .straggle(1, 0, Duration::from_micros(50))
///     .retries(4);
/// assert_eq!(plan.specs().len(), 5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    policy: RetryPolicy,
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan whose fault draws are driven by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            policy: RetryPolicy::default(),
            faults: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replace the seed (the CLI's `--fault-seed` override).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The retry/backoff policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Set the maximum transient-fault retries.
    #[must_use]
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.policy.max_retries = max_retries;
        self
    }

    /// Set the base backoff delay (attempt `k` sleeps `backoff · k`).
    #[must_use]
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.policy.backoff = backoff;
        self
    }

    /// The scheduled fault specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedule a fault over the round window `[from, to)`.
    #[must_use]
    pub fn spec(mut self, from: u64, to: u64, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec { from, to, kind });
        self
    }

    /// Crash-stop physical server `server` at the boundary of `round`.
    #[must_use]
    pub fn crash(self, round: u64, server: usize) -> Self {
        self.spec(round, round + 1, FaultKind::Crash { server })
    }

    /// Drop each message of `round` with probability `prob`.
    #[must_use]
    pub fn drop(self, round: u64, prob: f64) -> Self {
        self.drop_window(round, round + 1, prob)
    }

    /// Drop each message of rounds `[from, to)` with probability `prob`.
    #[must_use]
    pub fn drop_window(self, from: u64, to: u64, prob: f64) -> Self {
        self.spec(from, to, FaultKind::Drop { prob })
    }

    /// Duplicate each delivered message of `round` with probability
    /// `prob`.
    #[must_use]
    pub fn duplicate(self, round: u64, prob: f64) -> Self {
        self.spec(round, round + 1, FaultKind::Duplicate { prob })
    }

    /// Shuffle the delivery order of `round`.
    #[must_use]
    pub fn reorder(self, round: u64) -> Self {
        self.spec(round, round + 1, FaultKind::Reorder)
    }

    /// Delay `round` by `delay` on behalf of straggling `server`.
    #[must_use]
    pub fn straggle(self, round: u64, server: usize, delay: Duration) -> Self {
        self.spec(round, round + 1, FaultKind::Straggle { server, delay })
    }

    /// Fail the next local-compute span at `round` transiently,
    /// `failures` times.
    #[must_use]
    pub fn compute_fault(self, round: u64, failures: u32) -> Self {
        self.spec(round, round + 1, FaultKind::ComputeFault { failures })
    }

    /// Serialize the plan (schema `mpcjoin-faultplan-v1`).
    pub fn to_json(&self) -> Json {
        let faults = self
            .faults
            .iter()
            .map(|s| {
                let mut members = vec![
                    ("kind".to_string(), Json::Str(s.kind.name().into())),
                    ("from".to_string(), Json::Num(s.from as f64)),
                    ("to".to_string(), Json::Num(s.to as f64)),
                ];
                match s.kind {
                    FaultKind::Crash { server } | FaultKind::Straggle { server, .. } => {
                        members.push(("server".into(), Json::Num(server as f64)));
                    }
                    _ => {}
                }
                match s.kind {
                    FaultKind::Drop { prob } | FaultKind::Duplicate { prob } => {
                        members.push(("prob".into(), Json::Num(prob)));
                    }
                    FaultKind::Straggle { delay, .. } => {
                        members.push(("delay_us".into(), Json::Num(delay.as_micros() as f64)));
                    }
                    FaultKind::ComputeFault { failures } => {
                        members.push(("failures".into(), Json::Num(failures as f64)));
                    }
                    _ => {}
                }
                Json::Obj(members)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("mpcjoin-faultplan-v1".into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            (
                "max_retries".into(),
                Json::Num(self.policy.max_retries as f64),
            ),
            (
                "backoff_us".into(),
                Json::Num(self.policy.backoff.as_micros() as f64),
            ),
            ("faults".into(), Json::Arr(faults)),
        ])
    }

    /// Parse a plan from its JSON form (see [`FaultPlan::to_json`]).
    /// Errors with [`MpcError::InvalidFaultPlan`] on malformed input.
    pub fn from_json(text: &str) -> Result<FaultPlan, MpcError> {
        let bad = |msg: String| MpcError::InvalidFaultPlan(msg);
        let doc = Json::parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        if let Some(schema) = doc.get("schema").and_then(Json::as_str) {
            if schema != "mpcjoin-faultplan-v1" {
                return Err(bad(format!("unknown schema `{schema}`")));
            }
        }
        let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let mut plan = FaultPlan::new(seed);
        if let Some(n) = doc.get("max_retries").and_then(Json::as_u64) {
            plan.policy.max_retries =
                u32::try_from(n).map_err(|_| bad(format!("`max_retries` {n} exceeds u32")))?;
        }
        if let Some(us) = doc.get("backoff_us").and_then(Json::as_u64) {
            plan.policy.backoff = Duration::from_micros(us);
        }
        let faults = doc
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing `faults` array".into()))?;
        for (i, f) in faults.iter().enumerate() {
            let kind = f
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("fault {i}: missing `kind`")))?;
            let num = |k: &str| f.get(k).and_then(Json::as_u64);
            let round = num("round");
            let from = num("from").or(round);
            let from = from.ok_or_else(|| bad(format!("fault {i}: missing `round`/`from`")))?;
            let to = match num("to") {
                Some(to) => to,
                None => from
                    .checked_add(1)
                    .ok_or_else(|| bad(format!("fault {i}: `round`/`from` {from} has no end")))?,
            };
            if to <= from {
                return Err(bad(format!("fault {i}: empty window [{from}, {to})")));
            }
            let prob = || -> Result<f64, MpcError> {
                let p = f
                    .get("prob")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(format!("fault {i}: missing `prob`")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(bad(format!("fault {i}: prob {p} outside [0, 1]")));
                }
                Ok(p)
            };
            let server =
                || num("server").ok_or_else(|| bad(format!("fault {i}: missing `server`")));
            let kind = match kind {
                "crash" => FaultKind::Crash {
                    server: server()? as usize,
                },
                "drop" => FaultKind::Drop { prob: prob()? },
                "duplicate" => FaultKind::Duplicate { prob: prob()? },
                "reorder" => FaultKind::Reorder,
                "straggle" => FaultKind::Straggle {
                    server: server()? as usize,
                    delay: Duration::from_micros(
                        num("delay_us")
                            .ok_or_else(|| bad(format!("fault {i}: missing `delay_us`")))?,
                    ),
                },
                "compute" => {
                    let n = num("failures")
                        .ok_or_else(|| bad(format!("fault {i}: missing `failures`")))?;
                    FaultKind::ComputeFault {
                        failures: u32::try_from(n)
                            .map_err(|_| bad(format!("fault {i}: `failures` {n} exceeds u32")))?,
                    }
                }
                other => return Err(bad(format!("fault {i}: unknown kind `{other}`"))),
            };
            plan.faults.push(FaultSpec { from, to, kind });
        }
        Ok(plan)
    }
}

/// What a recovery action was (the `kind` of a [`RecoveryEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Missing messages were selectively retransmitted (one retry).
    Retransmit,
    /// Duplicate deliveries were discarded by sequence-number dedup.
    Dedup,
    /// Out-of-order deliveries were restored by the resequencing buffer.
    Resequence,
    /// A crashed server's round was replayed from the sender-side buffer and its
    /// slots rehashed onto a survivor.
    CrashReplay,
    /// A straggling server delayed the round barrier.
    Straggler,
    /// A transient local-compute failure was retried.
    ComputeRetry,
    /// The retry budget was exhausted; the run cannot recover.
    Unrecoverable,
}

impl RecoveryKind {
    /// Stable lowercase name (used in the trace v3 JSON export).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryKind::Retransmit => "retransmit",
            RecoveryKind::Dedup => "dedup",
            RecoveryKind::Resequence => "resequence",
            RecoveryKind::CrashReplay => "crash_replay",
            RecoveryKind::Straggler => "straggler",
            RecoveryKind::ComputeRetry => "compute_retry",
            RecoveryKind::Unrecoverable => "unrecoverable",
        }
    }
}

/// One recovery action the fault plane took, attributed to the operation
/// scope and algorithm phase active when it happened (trace v3 embeds
/// these so recovery overhead is attributable per phase, like load).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Global round the action belongs to.
    pub round: u64,
    /// Delivery attempt (0 = first try) the action happened on.
    pub attempt: u32,
    /// What happened.
    pub kind: RecoveryKind,
    /// Innermost phase mark at the time (see
    /// [`crate::Cluster::mark_phase`]).
    pub phase: String,
    /// Operation-scope path at the time (see [`crate::Cluster::op`]).
    pub label: String,
    /// The physical server involved, when the action is server-specific
    /// (crash, straggler).
    pub server: Option<usize>,
    /// Units involved: messages retransmitted / duplicates discarded /
    /// messages resequenced / messages replayed, depending on `kind`.
    pub units: u64,
    /// Simulated delay charged to wall clock (backoff, straggling).
    pub delay: Duration,
}

impl RecoveryEvent {
    /// Serialize one event (used by the trace v3 export).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("round".into(), Json::Num(self.round as f64)),
            ("attempt".into(), Json::Num(self.attempt as f64)),
            ("kind".into(), Json::Str(self.kind.name().into())),
            ("phase".into(), Json::Str(self.phase.clone())),
            ("label".into(), Json::Str(self.label.clone())),
            (
                "server".into(),
                self.server.map_or(Json::Null, |s| Json::Num(s as f64)),
            ),
            ("units".into(), Json::Num(self.units as f64)),
            ("delay_ns".into(), Json::Num(self.delay.as_nanos() as f64)),
        ])
    }
}

/// What the fault plane did over a whole run: every injected fault and
/// every recovery action, aggregated — plus the verdict. Returned by
/// [`FaultPlane::take_report`] and surfaced on `ExecutionResult`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Individual fault injections that actually perturbed something.
    pub faults_injected: u64,
    /// Transient retransmission rounds (retries) performed.
    pub retries: u64,
    /// Rounds replayed from the sender-side buffer after a crash.
    pub rounds_replayed: u64,
    /// Messages dropped in flight (across all attempts).
    pub messages_dropped: u64,
    /// Duplicate deliveries discarded by dedup.
    pub messages_duplicated: u64,
    /// Rounds whose delivery order had to be resequenced.
    pub reordered_rounds: u64,
    /// Units re-sent by retransmission or crash replay (recovery
    /// traffic; deliberately *not* in the cost ledger — see the module
    /// docs).
    pub retransmitted_units: u64,
    /// Transient local-compute failures retried.
    pub compute_retries: u64,
    /// Physical servers permanently lost to crash-stop failures, in
    /// crash order.
    pub servers_lost: Vec<usize>,
    /// Total wall-clock delay injected by stragglers.
    pub straggler_delay: Duration,
    /// Total wall-clock delay injected by retry backoff.
    pub backoff_delay: Duration,
    /// `Some((round, detail))` when the retry budget was exhausted and
    /// the run could not recover.
    pub unrecoverable: Option<(u64, String)>,
    /// Every recovery action, in simulation order (embedded in trace
    /// v3 when tracing is on).
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryReport {
    /// Whether every injected fault was recovered from.
    pub fn recovered(&self) -> bool {
        self.unrecoverable.is_none()
    }

    /// Whether the plane never had to act (no fault actually fired).
    pub fn is_clean(&self) -> bool {
        self.faults_injected == 0 && self.unrecoverable.is_none()
    }

    /// Serialize the report (schema `mpcjoin-recovery-v1`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("mpcjoin-recovery-v1".into())),
            ("recovered".into(), Json::Bool(self.recovered())),
            (
                "faults_injected".into(),
                Json::Num(self.faults_injected as f64),
            ),
            ("retries".into(), Json::Num(self.retries as f64)),
            (
                "rounds_replayed".into(),
                Json::Num(self.rounds_replayed as f64),
            ),
            (
                "messages_dropped".into(),
                Json::Num(self.messages_dropped as f64),
            ),
            (
                "messages_duplicated".into(),
                Json::Num(self.messages_duplicated as f64),
            ),
            (
                "reordered_rounds".into(),
                Json::Num(self.reordered_rounds as f64),
            ),
            (
                "retransmitted_units".into(),
                Json::Num(self.retransmitted_units as f64),
            ),
            (
                "compute_retries".into(),
                Json::Num(self.compute_retries as f64),
            ),
            (
                "servers_lost".into(),
                Json::Arr(
                    self.servers_lost
                        .iter()
                        .map(|&s| Json::Num(s as f64))
                        .collect(),
                ),
            ),
            (
                "straggler_delay_ns".into(),
                Json::Num(self.straggler_delay.as_nanos() as f64),
            ),
            (
                "backoff_delay_ns".into(),
                Json::Num(self.backoff_delay.as_nanos() as f64),
            ),
            (
                "unrecoverable".into(),
                match &self.unrecoverable {
                    None => Json::Null,
                    Some((round, detail)) => Json::Obj(vec![
                        ("round".into(), Json::Num(*round as f64)),
                        ("detail".into(), Json::Str(detail.clone())),
                    ]),
                },
            ),
            (
                "events".into(),
                Json::Arr(self.events.iter().map(RecoveryEvent::to_json).collect()),
            ),
        ])
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "no faults fired");
        }
        write!(
            f,
            "{} faults, {} retries, {} replays, {} dropped, {} duplicated, {} lost server(s)",
            self.faults_injected,
            self.retries,
            self.rounds_replayed,
            self.messages_dropped,
            self.messages_duplicated,
            self.servers_lost.len(),
        )?;
        if let Some((round, detail)) = &self.unrecoverable {
            write!(f, " — UNRECOVERABLE at round {round}: {detail}")?;
        }
        Ok(())
    }
}

/// The runtime state of a fault plane: install with
/// [`crate::Cluster::observe`] (sub-clusters created by
/// [`crate::Cluster::split`] share the one plane and its seeded draw
/// stream), read the verdict back with [`FaultPlane::take_report`]. With a
/// plane installed a corrupted exchange destination is reported through
/// it (the run becomes unrecoverable) instead of aborting the process.
#[derive(Debug)]
pub struct FaultPlane {
    plan: FaultPlan,
    rng: DetRng,
    /// Physical-server dimension (for crash rehash).
    servers: usize,
    /// Physical servers permanently lost.
    crashed: BTreeSet<usize>,
    /// Deterministic rehash targets: `(lost server, survivor)`.
    rehash: Vec<(usize, usize)>,
    /// Indices into `plan.faults` of one-shot specs (crash, compute)
    /// already applied.
    applied: BTreeSet<usize>,
    report: RecoveryReport,
}

impl FaultPlane {
    /// A plane driving `plan` over `servers` physical servers (the
    /// top-level cluster's `p`).
    pub fn new(plan: FaultPlan, servers: usize) -> Self {
        let rng = DetRng::seed_from_u64(plan.seed);
        FaultPlane {
            plan,
            rng,
            servers,
            crashed: BTreeSet::new(),
            rehash: Vec::new(),
            applied: BTreeSet::new(),
            report: RecoveryReport::default(),
        }
    }

    /// Hand back everything the plane did, leaving an empty report
    /// behind. Callers running algorithms directly on a cluster should
    /// check [`RecoveryReport::unrecoverable`] and refuse to trust the
    /// output when it is `Some` — `QueryEngine` does this and returns
    /// [`crate::MpcError::Unrecoverable`].
    pub fn take_report(&mut self) -> RecoveryReport {
        std::mem::take(&mut self.report)
    }

    /// The deterministic rehash target for a crashed server: the next
    /// surviving physical server cyclically after it.
    fn rehash_target(&self, server: usize) -> usize {
        (1..self.servers)
            .map(|k| (server + k) % self.servers)
            .find(|t| !self.crashed.contains(t))
            .unwrap_or(server)
    }

    /// Whether any spec is active at `round` (cheap pre-check so clean
    /// rounds pay nothing beyond the scan).
    fn any_active(&self, round: u64) -> bool {
        self.report.unrecoverable.is_none()
            && self
                .plan
                .faults
                .iter()
                .enumerate()
                .any(|(i, s)| s.active(round) && !self.applied.contains(&i))
    }

    /// Log one recovery action, attributed to where `ctx` says it
    /// happened.
    fn record(
        &mut self,
        ctx: &RoundCtx<'_>,
        attempt: u32,
        kind: RecoveryKind,
        server: Option<usize>,
        units: u64,
        delay: Duration,
    ) {
        self.report.events.push(RecoveryEvent {
            round: ctx.round,
            attempt,
            kind,
            phase: ctx.phase.to_string(),
            label: ctx.label.to_string(),
            server,
            units,
            delay,
        });
    }

    /// Simulate the reliable-delivery protocol for one exchange of
    /// `n` sequence-numbered messages at `ctx.round`. Mutates the report;
    /// returns the wall-clock delay the round must absorb (the cluster
    /// sleeps it).
    ///
    /// The protocol operates on message *sequence numbers*: the caller
    /// retains the round's messages (the sender-side buffer), so
    /// retransmission and crash replay re-deliver from that buffer, and
    /// dedup/resequencing restore exactly the faithful `(src, position)`
    /// delivery order — which is why a recovered exchange is
    /// bit-identical to a fault-free one.
    fn on_exchange(&mut self, ctx: &RoundCtx<'_>, n: usize) -> Duration {
        let (round, label) = (ctx.round, ctx.label);
        let mut delays = Duration::ZERO;
        if !self.any_active(round) {
            return delays;
        }
        let policy = self.plan.policy;

        // Round-boundary crash-stop failures: the in-flight round is
        // voided and replayed from the sender buffer; the lost server's
        // slots rehash deterministically onto a survivor. Each crash
        // burns one replay, not a transient retry.
        let crashes: Vec<(usize, usize)> = self
            .plan
            .faults
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.kind {
                FaultKind::Crash { server } if s.active(round) && !self.applied.contains(&i) => {
                    Some((i, server))
                }
                _ => None,
            })
            .collect();
        for (idx, server) in crashes {
            self.applied.insert(idx);
            if self.crashed.contains(&server)
                || server >= self.servers
                || self.crashed.len() + 1 >= self.servers
            {
                // Already dead, out of range, or no survivor would
                // remain: crash-stop needs p − f ≥ 1.
                continue;
            }
            self.crashed.insert(server);
            let target = self.rehash_target(server);
            self.rehash.push((server, target));
            self.report.faults_injected += 1;
            self.report.rounds_replayed += 1;
            self.report.retransmitted_units += n as u64;
            self.report.servers_lost.push(server);
            self.record(
                ctx,
                0,
                RecoveryKind::CrashReplay,
                Some(server),
                n as u64,
                Duration::ZERO,
            );
        }

        // Stragglers delay the round barrier (wall clock only).
        let stragglers: Vec<(usize, Duration)> = self
            .plan
            .faults
            .iter()
            .filter_map(|s| match s.kind {
                FaultKind::Straggle { server, delay } if s.active(round) => Some((server, delay)),
                _ => None,
            })
            .collect();
        for (server, delay) in stragglers {
            if self.crashed.contains(&server) || server >= self.servers {
                continue;
            }
            self.report.faults_injected += 1;
            self.report.straggler_delay += delay;
            delays += delay;
            self.record(ctx, 0, RecoveryKind::Straggler, Some(server), 0, delay);
        }

        if n == 0 {
            return delays;
        }
        let drop_prob = self
            .plan
            .faults
            .iter()
            .filter_map(|s| match s.kind {
                FaultKind::Drop { prob } if s.active(round) => Some(prob),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        let dup_prob = self
            .plan
            .faults
            .iter()
            .filter_map(|s| match s.kind {
                FaultKind::Duplicate { prob } if s.active(round) => Some(prob),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        let reorder = self
            .plan
            .faults
            .iter()
            .any(|s| matches!(s.kind, FaultKind::Reorder) && s.active(round));

        // The resequencing buffer: seq → arrived. Deliveries may come in
        // any order and more than once; the buffer restores seq order
        // and discards duplicates, so a complete round always commits
        // the faithful message sequence.
        let mut arrived = vec![false; n];
        let mut pending: Vec<usize> = (0..n).collect();

        if reorder {
            // Shuffle the delivery order (Fisher–Yates on the seed
            // stream); the buffer resequences, so this perturbs arrival
            // order only, never the committed order.
            for i in (1..pending.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                pending.swap(i, j);
            }
            self.report.faults_injected += 1;
            self.report.reordered_rounds += 1;
            self.record(
                ctx,
                0,
                RecoveryKind::Resequence,
                None,
                n as u64,
                Duration::ZERO,
            );
        }

        let mut attempt: u32 = 0;
        loop {
            let mut dropped: Vec<usize> = Vec::new();
            let mut duplicates: u64 = 0;
            for &seq in &pending {
                if drop_prob > 0.0 && self.rng.gen_bool(drop_prob) {
                    dropped.push(seq);
                    continue;
                }
                arrived[seq] = true;
                if dup_prob > 0.0 && self.rng.gen_bool(dup_prob) {
                    // A second copy arrives; the dedup buffer discards
                    // it by sequence number.
                    duplicates += 1;
                }
            }
            if duplicates > 0 {
                self.report.faults_injected += 1;
                self.report.messages_duplicated += duplicates;
                self.record(
                    ctx,
                    attempt,
                    RecoveryKind::Dedup,
                    None,
                    duplicates,
                    Duration::ZERO,
                );
            }
            if dropped.is_empty() {
                break;
            }
            self.report.faults_injected += 1;
            self.report.messages_dropped += dropped.len() as u64;
            if attempt >= policy.max_retries {
                let detail = format!(
                    "{} of {} messages undelivered after {} retransmission(s) during `{}`",
                    dropped.len(),
                    n,
                    attempt,
                    label,
                );
                self.fail(ctx, attempt, dropped.len() as u64, detail);
                break;
            }
            attempt += 1;
            let backoff = policy.backoff * attempt;
            self.report.retries += 1;
            self.report.retransmitted_units += dropped.len() as u64;
            self.report.backoff_delay += backoff;
            delays += backoff;
            self.record(
                ctx,
                attempt,
                RecoveryKind::Retransmit,
                None,
                dropped.len() as u64,
                backoff,
            );
            pending = dropped;
        }
        debug_assert!(
            self.report.unrecoverable.is_some() || arrived.iter().all(|&a| a),
            "a recovered round must have delivered every message"
        );
        delays
    }

    /// Simulate transient failures of a local-compute span at
    /// `ctx.round`; returns the retry backoff to absorb.
    fn on_compute(&mut self, ctx: &RoundCtx<'_>) -> Duration {
        let (round, label) = (ctx.round, ctx.label);
        let mut delays = Duration::ZERO;
        if !self.any_active(round) {
            return delays;
        }
        let policy = self.plan.policy;
        let specs: Vec<(usize, u32)> = self
            .plan
            .faults
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.kind {
                FaultKind::ComputeFault { failures }
                    if s.active(round) && !self.applied.contains(&i) =>
                {
                    Some((i, failures))
                }
                _ => None,
            })
            .collect();
        for (idx, failures) in specs {
            self.applied.insert(idx);
            if failures == 0 {
                continue;
            }
            self.report.faults_injected += 1;
            let retriable = failures.min(policy.max_retries);
            for attempt in 1..=retriable {
                let backoff = policy.backoff * attempt;
                self.report.compute_retries += 1;
                self.report.backoff_delay += backoff;
                delays += backoff;
                self.record(ctx, attempt, RecoveryKind::ComputeRetry, None, 1, backoff);
            }
            if failures > policy.max_retries {
                let detail = format!(
                    "local task still failing after {} retries during `{label}`",
                    policy.max_retries,
                );
                self.fail(ctx, policy.max_retries, 1, detail);
            }
        }
        delays
    }

    /// Give up on recovery: log the terminal event and latch the verdict
    /// (the first failure wins; once failed, the plane stops injecting).
    fn fail(&mut self, ctx: &RoundCtx<'_>, attempt: u32, units: u64, detail: String) {
        if self.report.unrecoverable.is_none() {
            self.record(
                ctx,
                attempt,
                RecoveryKind::Unrecoverable,
                None,
                units,
                Duration::ZERO,
            );
            self.report.unrecoverable = Some((ctx.round, detail));
        }
    }
}

/// The plane at the seam: the reliable-delivery simulation decides what
/// the transport had to do over the round's message sequence and returns
/// the wall-clock delay to absorb. The delivery the cluster then commits
/// is the faithful one in all cases, which is why output and ledger are
/// bit-identical under faults.
impl RoundObserver for FaultPlane {
    fn before_round(&mut self, ctx: &RoundCtx<'_>, n: usize) -> Result<Proceed, CancelCause> {
        Ok(Proceed {
            delay: self.on_exchange(ctx, n),
            ..Proceed::default()
        })
    }

    fn before_compute(&mut self, ctx: &RoundCtx<'_>) -> Duration {
        self.on_compute(ctx)
    }

    /// A violation surfacing under the plane (a corrupted destination)
    /// makes the run unrecoverable instead of aborting the process.
    fn violation(&mut self, ctx: &RoundCtx<'_>, detail: &str) -> bool {
        self.fail(ctx, 0, 0, detail.to_string());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A context at `round` (phase and label are attribution only).
    fn at(round: u64) -> RoundCtx<'static> {
        RoundCtx {
            round,
            phase: "p",
            label: "l",
        }
    }

    #[test]
    fn plan_builder_and_json_roundtrip() {
        let plan = FaultPlan::new(7)
            .drop_window(0, 4, 0.25)
            .duplicate(2, 0.5)
            .reorder(1)
            .crash(3, 2)
            .straggle(0, 1, Duration::from_micros(40))
            .compute_fault(2, 2)
            .retries(5)
            .backoff(Duration::from_micros(10));
        let text = plan.to_json().to_string_compact().expect("plan serializes");
        let back = FaultPlan::from_json(&text).expect("plan parses");
        assert_eq!(back, plan);
        assert_eq!(back.policy().max_retries, 5);
        assert_eq!(back.seed(), 7);
        assert_eq!(back.with_seed(9).seed(), 9);
    }

    #[test]
    fn from_json_rejects_malformed_plans() {
        for bad in [
            "not json",
            r#"{"schema":"mpcjoin-faultplan-v9","faults":[]}"#,
            r#"{"faults":[{"kind":"drop","round":0}]}"#,
            r#"{"faults":[{"kind":"drop","round":0,"prob":1.5}]}"#,
            r#"{"faults":[{"kind":"crash","round":0}]}"#,
            r#"{"faults":[{"kind":"warp","round":0}]}"#,
            r#"{"faults":[{"kind":"drop","from":3,"to":3,"prob":0.5}]}"#,
            r#"{"seed":1}"#,
        ] {
            let err = FaultPlan::from_json(bad).expect_err(bad);
            assert!(matches!(err, MpcError::InvalidFaultPlan(_)), "{bad}");
        }
        // Out-of-range numbers are named, not wrapped or truncated.
        for (bad, names) in [
            (
                r#"{"faults":[{"kind":"reorder","from":18446744073709551615}]}"#,
                "fault 0: `round`/`from`",
            ),
            (
                r#"{"faults":[{"kind":"compute","round":0,"failures":4294967296}]}"#,
                "fault 0: `failures`",
            ),
            (r#"{"max_retries":4294967297,"faults":[]}"#, "`max_retries`"),
        ] {
            let err = FaultPlan::from_json(bad).expect_err(bad);
            assert!(matches!(err, MpcError::InvalidFaultPlan(_)), "{bad}");
            assert!(err.to_string().contains(names), "{err}");
        }
    }

    #[test]
    fn clean_rounds_cost_nothing_and_consume_no_rng() {
        let plan = FaultPlan::new(1).drop(5, 0.9);
        let mut plane = FaultPlane::new(plan, 4);
        let before = plane.rng.clone();
        let d = plane.on_exchange(&at(0), 100);
        assert_eq!(d, Duration::ZERO);
        assert!(plane.report.is_clean());
        // The seed stream was not advanced by the inactive round.
        let mut a = before;
        let mut b = plane.rng.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn drops_retry_until_delivered_and_report_counts() {
        let plan = FaultPlan::new(11).drop(0, 0.5).retries(64);
        let mut plane = FaultPlane::new(plan, 4);
        let _ = plane.on_exchange(&at(0), 200);
        let r = &plane.report;
        assert!(r.recovered());
        assert!(r.retries >= 1);
        assert!(r.messages_dropped >= 1);
        assert_eq!(r.messages_dropped, r.retransmitted_units);
        assert!(r.events.iter().any(|e| e.kind == RecoveryKind::Retransmit));
    }

    #[test]
    fn certain_drop_exhausts_retries_and_is_unrecoverable() {
        let plan = FaultPlan::new(3).drop(0, 1.0).retries(2);
        let mut plane = FaultPlane::new(plan, 4);
        let _ = plane.on_exchange(&at(0), 10);
        let r = &plane.report;
        assert!(!r.recovered());
        assert_eq!(r.retries, 2);
        let (round, detail) = r.unrecoverable.as_ref().expect("failed");
        assert_eq!(*round, 0);
        assert!(detail.contains("undelivered"));
        // Once failed, the plane stops injecting.
        let d = plane.on_exchange(&at(1), 10);
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn duplicates_and_reorders_recover_without_retries() {
        let plan = FaultPlan::new(5).duplicate(0, 1.0).reorder(0);
        let mut plane = FaultPlane::new(plan, 4);
        let _ = plane.on_exchange(&at(0), 50);
        let r = &plane.report;
        assert!(r.recovered());
        assert_eq!(r.retries, 0);
        assert_eq!(r.messages_duplicated, 50);
        assert_eq!(r.reordered_rounds, 1);
    }

    #[test]
    fn crash_replays_round_and_rehashes_deterministically() {
        let plan = FaultPlan::new(9).crash(0, 1).crash(2, 2);
        let mut plane = FaultPlane::new(plan, 4);
        let _ = plane.on_exchange(&at(0), 30);
        let _ = plane.on_exchange(&at(1), 30);
        let _ = plane.on_exchange(&at(2), 30);
        let r = plane.report.clone();
        assert!(r.recovered());
        assert_eq!(r.servers_lost, vec![1, 2]);
        assert_eq!(r.rounds_replayed, 2);
        assert_eq!(r.retransmitted_units, 60);
        // Server 1 rehashes to 2 (next alive at crash time); server 2 —
        // by then dead 1 is skipped — rehashes to 3.
        assert_eq!(plane.rehash, vec![(1, 2), (2, 3)]);
        // A crash never repeats.
        let mut again = FaultPlane::new(FaultPlan::new(9).crash(0, 1), 4);
        let _ = again.on_exchange(&at(0), 5);
        let _ = again.on_exchange(&at(0), 5);
        assert_eq!(again.report.servers_lost, vec![1]);
    }

    #[test]
    fn crash_on_single_server_cluster_is_ignored() {
        let plan = FaultPlan::new(2).crash(0, 0);
        let mut plane = FaultPlane::new(plan, 1);
        let _ = plane.on_exchange(&at(0), 10);
        assert!(plane.report.is_clean());
        assert!(plane.report.servers_lost.is_empty());
    }

    #[test]
    fn straggler_delay_accumulates_in_wall_clock_only() {
        let plan = FaultPlan::new(4).straggle(0, 2, Duration::from_micros(30));
        let mut plane = FaultPlane::new(plan, 4);
        let d = plane.on_exchange(&at(0), 10);
        assert_eq!(d, Duration::from_micros(30));
        assert_eq!(plane.report.straggler_delay, Duration::from_micros(30));
        assert_eq!(plane.report.retries, 0);
    }

    #[test]
    fn compute_faults_retry_under_policy_or_fail() {
        let plan = FaultPlan::new(6)
            .compute_fault(0, 2)
            .retries(3)
            .backoff(Duration::from_micros(5));
        let mut plane = FaultPlane::new(plan, 4);
        let d = plane.on_compute(&at(0));
        assert_eq!(plane.report.compute_retries, 2);
        // Linear backoff: 5µs + 10µs.
        assert_eq!(d, Duration::from_micros(15));
        assert!(plane.report.recovered());

        let mut hopeless = FaultPlane::new(FaultPlan::new(6).compute_fault(0, 9).retries(2), 4);
        let _ = hopeless.on_compute(&at(0));
        assert!(!hopeless.report.recovered());
        assert_eq!(hopeless.report.compute_retries, 2);
    }

    #[test]
    fn same_seed_same_recovery_story() {
        let mk = || {
            let plan = FaultPlan::new(77).drop_window(0, 3, 0.4).duplicate(1, 0.3);
            let mut plane = FaultPlane::new(plan, 8);
            for round in 0..3 {
                let _ = plane.on_exchange(&at(round), 64);
            }
            plane.report
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn report_json_and_display_cover_verdicts() {
        let plan = FaultPlan::new(3).drop(0, 1.0).retries(1);
        let mut plane = FaultPlane::new(plan, 4);
        let _ = plane.on_exchange(&at(0), 4);
        let r = plane.report.clone();
        let doc = Json::parse(&r.to_json().to_string_compact().expect("finite"))
            .expect("report serializes");
        assert_eq!(doc.get("recovered"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mpcjoin-recovery-v1")
        );
        assert!(doc.get("unrecoverable").unwrap().get("detail").is_some());
        assert!(r.to_string().contains("UNRECOVERABLE"));
        assert!(RecoveryReport::default().to_string().contains("no faults"));
    }
}
