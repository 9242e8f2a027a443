//! The simulated MPC cluster.

use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::CancelCause;
use crate::cost::{CostReport, CostTracker, PhaseReport};
use crate::exec::{self, ExecBackend};
use crate::observe::{Delivery, EventKind, Proceed, RoundCtx, RoundObserver};

/// Data distributed across the servers of one [`Cluster`]: `data[i]` is the
/// local state of logical server `i`.
///
/// `Distributed` values are plain vectors — local computation (mapping,
/// sorting, joining in place) is free in the MPC cost model and is done by
/// ordinary Rust code over `data[i]`. The only way data *moves between
/// servers* is [`Cluster::exchange`], which is costed.
#[derive(Clone, Debug)]
pub struct Distributed<T> {
    data: Vec<Vec<T>>,
}

impl<T> Distributed<T> {
    /// Per-server empty state for a cluster of `p` servers.
    pub fn empty(p: usize) -> Self {
        Distributed {
            data: (0..p).map(|_| Vec::new()).collect(),
        }
    }

    /// Wrap existing per-server vectors.
    pub fn from_parts(data: Vec<Vec<T>>) -> Self {
        Distributed { data }
    }

    /// Number of logical servers.
    pub fn servers(&self) -> usize {
        self.data.len()
    }

    /// Local state of server `i`.
    pub fn local(&self, i: usize) -> &Vec<T> {
        &self.data[i]
    }

    /// Iterate `(server, local state)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Vec<T>)> {
        self.data.iter().enumerate()
    }

    /// Total items across all servers.
    pub fn total_len(&self) -> usize {
        self.data.iter().map(Vec::len).sum()
    }

    /// Max items on any single server (a storage skew diagnostic).
    pub fn max_local_len(&self) -> usize {
        self.data.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Storage skew: `max_local_len / mean_local_len`. `1.0` is perfectly
    /// balanced; large values flag hot servers. Empty data reports `1.0`.
    pub fn skew(&self) -> f64 {
        let total = self.total_len();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.servers().max(1) as f64;
        self.max_local_len() as f64 / mean
    }

    /// Apply `f` to every item locally (free: no communication).
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Distributed<U> {
        Distributed {
            data: self
                .data
                .into_iter()
                .map(|v| v.into_iter().map(&mut f).collect())
                .collect(),
        }
    }

    /// Apply a per-server transformation locally (free).
    pub fn map_local<U>(self, mut f: impl FnMut(usize, Vec<T>) -> Vec<U>) -> Distributed<U> {
        Distributed {
            data: self
                .data
                .into_iter()
                .enumerate()
                .map(|(i, v)| f(i, v))
                .collect(),
        }
    }

    /// [`Distributed::map_local`] on the cluster's execution backend.
    ///
    /// The closure must be pure local computation: it sees one server's
    /// data at a time and must not touch the cluster (all exchanges stay
    /// on the driver thread). Output slot `i` is `f(i, local_i)` exactly
    /// as with `map_local` — determinism is independent of scheduling.
    pub fn par_map_local<U, F>(self, cluster: &Cluster, f: F) -> Distributed<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, Vec<T>) -> Vec<U> + Sync,
    {
        Distributed {
            data: cluster.par_map_parts(self.data, f),
        }
    }

    /// Collect every item into one vector, in server order.
    ///
    /// **Inspection only** — this models the experimenter reading results
    /// off the cluster, not a cluster operation, and is therefore uncosted.
    /// Algorithms must never use it to move data.
    pub fn collect_all(self) -> Vec<T> {
        self.data.into_iter().flatten().collect()
    }

    /// Consume into per-server vectors.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        self.data
    }

    /// Re-index a sub-cluster's local data into its parent's logical space:
    /// child server `j` corresponds to parent server `(base + j) % parent_p`
    /// (the layout [`Cluster::split`] uses). Wrapped slots concatenate.
    /// Purely a view change — no communication.
    pub fn reindexed(self, parent_p: usize, base: usize) -> Distributed<T> {
        let mut parts: Vec<Vec<T>> = (0..parent_p).map(|_| Vec::new()).collect();
        for (j, local) in self.data.into_iter().enumerate() {
            parts[(base + j) % parent_p].extend(local);
        }
        Distributed { data: parts }
    }
}

/// What a cluster and its [`Cluster::split`] children share: the cost
/// ledger, the installed observers, the operation-scope label stack, and
/// the halt.
#[derive(Debug, Default)]
struct Shared {
    ledger: CostTracker,
    observers: Vec<Rc<RefCell<dyn RoundObserver>>>,
    /// The `"/"`-joined path of open operation scopes (see
    /// [`Cluster::op`]) and, per open scope, the length to truncate it
    /// back to on close. Only maintained while an observer is installed.
    op_path: String,
    op_marks: Vec<usize>,
    /// The round boundary an observer stopped the run at, and why (see
    /// [`Cluster::halted`]). The first stop wins.
    halt: Option<(u64, CancelCause)>,
}

impl Shared {
    /// Whether any observer is still called: one is installed and the
    /// run has not halted.
    fn watched(&self) -> bool {
        !self.observers.is_empty() && self.halt.is_none()
    }

    /// Call `f` on every observer, in installation order, with the
    /// context of `round`. Free (no context strings built) when no
    /// observer is installed, and a no-op once the run halted.
    fn each(&self, round: u64, mut f: impl FnMut(&mut dyn RoundObserver, &RoundCtx<'_>)) {
        if !self.watched() {
            return;
        }
        let ctx = RoundCtx {
            round,
            phase: self.ledger.current_phase(),
            label: if self.op_path.is_empty() {
                "(unlabeled)"
            } else {
                &self.op_path
            },
        };
        for obs in &self.observers {
            f(&mut *obs.borrow_mut(), &ctx);
        }
    }
}

/// A (sub-)cluster of `p` logical servers bound to a shared cost ledger and
/// a global round timeline.
///
/// The top-level cluster is created with [`Cluster::new`]; the paper's
/// "allocate `p_i` servers to subproblem `i`, all running in parallel"
/// steps are modelled with [`Cluster::split`] / [`Cluster::join_parallel`]:
/// children execute one after another in simulation, but their exchanges
/// are credited on the *same* round timeline starting at the parent's
/// cursor, so the measured load is exactly that of a parallel execution.
///
/// Logical servers map onto physical servers `0..p_total`; when callers
/// allocate more logical servers than exist physically (the paper's
/// analyses allocate `c·p` for small constants `c`), the mapping wraps
/// around and the overlapping loads add up — keeping constant-factor
/// oversubscription visible in the measurements instead of hiding it.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Physical server id of each logical server.
    phys: Vec<usize>,
    /// Physical servers of the top-level cluster (the dimension of every
    /// received-vector).
    servers: usize,
    /// Current round cursor on the global timeline.
    round: u64,
    shared: Rc<RefCell<Shared>>,
    /// How per-server local computation is executed (serial or thread
    /// pool). Affects wall-clock time only — never results or costs.
    backend: Arc<dyn ExecBackend>,
}

impl Cluster {
    /// A fresh top-level cluster of `p ≥ 1` physical servers, using the
    /// process-default execution backend (serial unless a binary opted in
    /// via [`exec::set_default_threads`]).
    pub fn new(p: usize) -> Self {
        Cluster::with_backend(p, exec::default_backend())
    }

    /// A fresh cluster executing local computation on `threads` workers.
    pub fn with_threads(p: usize, threads: usize) -> Self {
        Cluster::with_backend(p, exec::backend_for_threads(threads))
    }

    /// A fresh cluster on an explicit execution backend.
    pub fn with_backend(p: usize, backend: Arc<dyn ExecBackend>) -> Self {
        assert!(p >= 1, "a cluster needs at least one server");
        Cluster {
            phys: (0..p).collect(),
            servers: p,
            round: 0,
            shared: Rc::default(),
            backend,
        }
    }

    /// The execution backend local computation runs on.
    pub fn backend(&self) -> &dyn ExecBackend {
        self.backend.as_ref()
    }

    /// Worker threads the backend uses (1 = serial).
    pub fn threads(&self) -> usize {
        self.backend.threads()
    }

    /// Install `obs` at the round boundary (see [`crate::observe`]) and
    /// return the typed handle to read it back after the run. Call on
    /// the top-level cluster *before* running an algorithm; sub-clusters
    /// created by [`Cluster::split`] share every observer. Observers are
    /// consulted in installation order and — pinned by tests — are
    /// invisible in output and [`CostReport`].
    pub fn observe<T: RoundObserver + 'static>(&mut self, obs: T) -> Rc<RefCell<T>> {
        let handle = Rc::new(RefCell::new(obs));
        self.shared.borrow_mut().observers.push(handle.clone());
        handle
    }

    /// Run `task(i)` for every `i < n` on the execution backend and
    /// collect results in index order. `task` must be pure local
    /// computation (no cluster access — exchanges stay on the driver
    /// thread), which is what makes results backend-independent.
    ///
    /// Observers see the span (`before_compute` / `computed`) under the
    /// current operation scope.
    pub fn par_run<R, F>(&self, n: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.timed(n, || exec::par_run(self.backend.as_ref(), n, task))
    }

    /// Transform per-server parts on the execution backend (slot `i`
    /// becomes `f(i, parts[i])`), as one observed compute span.
    pub fn par_map_parts<T, U, F>(&self, parts: Vec<Vec<T>>, f: F) -> Vec<Vec<U>>
    where
        T: Send,
        U: Send,
        F: Fn(usize, Vec<T>) -> Vec<U> + Sync,
    {
        self.timed(parts.len(), || {
            exec::par_map_parts(self.backend.as_ref(), parts, f)
        })
    }

    /// Consume per-server parts into one result each on the execution
    /// backend (slot `i` becomes `f(i, parts[i])`), as one observed
    /// compute span.
    pub fn par_consume<T, R, F>(&self, parts: Vec<Vec<T>>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, Vec<T>) -> R + Sync,
    {
        self.timed(parts.len(), || {
            exec::par_consume_parts(self.backend.as_ref(), parts, f)
        })
    }

    /// One span of `tasks` backend tasks: observers may delay it
    /// (transient compute faults) and are shown its wall clock. The clock
    /// is only read while an observer is called. A halted run still runs
    /// the tasks — callers need their `tasks` results.
    fn timed<R>(&self, tasks: usize, run: impl FnOnce() -> R) -> R {
        if !self.shared.borrow().watched() {
            return run();
        }
        let mut delay = Duration::ZERO;
        self.each(|obs, ctx| delay += obs.before_compute(ctx));
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let start = Instant::now();
        let out = run();
        let elapsed = start.elapsed();
        self.each(|obs, ctx| obs.computed(ctx, tasks, elapsed));
        out
    }

    /// [`Shared::each`] at this cluster's round cursor.
    fn each(&self, f: impl FnMut(&mut dyn RoundObserver, &RoundCtx<'_>)) {
        self.shared.borrow().each(self.round, f);
    }

    /// Number of logical servers in this (sub-)cluster.
    pub fn p(&self) -> usize {
        self.phys.len()
    }

    /// Current round cursor.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The shared cost ledger (read-only; observers finalize against it).
    pub(crate) fn ledger(&self) -> Ref<'_, CostTracker> {
        Ref::map(self.shared.borrow(), |s| &s.ledger)
    }

    /// Snapshot of the whole run's cost (shared across sub-clusters).
    pub fn report(&self) -> CostReport {
        self.ledger().report()
    }

    /// The round boundary an observer (a fired [`crate::CancelToken`])
    /// stopped the run at, and why; the first stop wins. From that
    /// boundary on every exchange and broadcast — of this cluster and of
    /// every [`Cluster::split`] relative — returns empty parts, credits
    /// nothing and calls no observer, and the algorithm returns through
    /// its remaining local code on empty data. Its output is then
    /// meaningless: a caller that drives a cluster directly checks this
    /// once after the run's last cluster operation, the way it checks
    /// [`crate::RecoveryReport::unrecoverable`] (`QueryEngine::run` does
    /// both, this first).
    pub fn halted(&self) -> Option<(u64, CancelCause)> {
        self.shared.borrow().halt
    }

    /// Open a labeled cost phase at the current round; subsequent traffic
    /// is attributed to it until the next mark. See
    /// [`Cluster::phase_reports`].
    pub fn mark_phase(&mut self, label: &str) {
        self.shared
            .borrow_mut()
            .ledger
            .mark_phase(self.round, label);
    }

    /// Per-phase cost summaries for the whole run (labels from
    /// [`Cluster::mark_phase`]).
    pub fn phase_reports(&self) -> Vec<PhaseReport> {
        self.ledger().phase_reports()
    }

    /// Open a named operation scope labeling what observers see; the
    /// scope closes when the returned guard drops. Scopes nest — an event
    /// recorded inside `op("semijoin")` → `op("sort")` is labeled
    /// `"semijoin/sort"`. Free when no observer is installed.
    #[must_use = "the scope closes when the guard drops; bind it with `let _op = …`"]
    pub fn op(&self, label: &str) -> OpScope {
        let shared = &mut *self.shared.borrow_mut();
        let pushed = !shared.observers.is_empty();
        if pushed {
            shared.op_marks.push(shared.op_path.len());
            if !shared.op_path.is_empty() {
                shared.op_path.push('/');
            }
            shared.op_path.push_str(label);
        }
        OpScope {
            shared: pushed.then(|| self.shared.clone()),
        }
    }

    /// The round boundary: consult every observer before any delivery of
    /// this round (see [`crate::observe`]). The first stop halts the run
    /// here (see [`Cluster::halted`]) and this boundary, like every later
    /// one, returns `None`: the caller delivers nothing, so a stopped run
    /// leaves no partially-delivered exchange behind. Otherwise the
    /// requested delays are slept here, outside any borrow, and the
    /// result says whether an observer asked for the traffic matrix.
    fn round_boundary(&self, messages: usize) -> Option<bool> {
        let mut go = Proceed::default();
        let mut stop = None;
        self.each(|obs, ctx| {
            if stop.is_none() {
                match obs.before_round(ctx, messages) {
                    Ok(p) => {
                        go.delay += p.delay;
                        go.traffic |= p.traffic;
                    }
                    Err(cause) => stop = Some(cause),
                }
            }
        });
        if let Some(cause) = stop {
            self.shared.borrow_mut().halt = Some((self.round, cause));
        }
        if self.halted().is_some() {
            return None;
        }
        if !go.delay.is_zero() {
            std::thread::sleep(go.delay);
        }
        Some(go.traffic)
    }

    /// Close the round: credit the ledger once per destination from
    /// `received`, show observers the same vector, advance the cursor.
    fn deliver(&mut self, kind: EventKind, received: &[u64], traffic: Option<&[u64]>) {
        let mut units = 0;
        {
            let ledger = &mut self.shared.borrow_mut().ledger;
            for (server, &u) in received.iter().enumerate() {
                ledger.credit(server, self.round, u);
                units += u;
            }
        }
        if units > 0 {
            let delivery = Delivery {
                kind,
                received,
                traffic,
            };
            self.each(|obs, ctx| obs.delivered(ctx, &delivery));
        }
        self.round += 1;
    }

    /// The exchange: deliver `outboxes[src] = [(dest, item), …]` and charge
    /// each destination for what it receives. Consumes one round.
    ///
    /// `dest` is a logical server index in this cluster. Items are
    /// delivered in `(src, position)` order, making simulations fully
    /// deterministic. An out-of-range `dest` panics unless an installed
    /// observer absorbs the violation (the fault plane does, turning it
    /// into an unrecoverable run instead of a process abort). A halted
    /// cluster delivers nothing: `p` empty parts (see [`Cluster::halted`]).
    pub fn exchange<T>(&mut self, outboxes: Vec<Vec<(usize, T)>>) -> Distributed<T> {
        let p = self.p();
        assert_eq!(outboxes.len(), p, "one outbox per logical server required");
        let Some(want_traffic) = self.round_boundary(outboxes.iter().map(Vec::len).sum()) else {
            return Distributed::empty(p);
        };
        let n = self.servers;
        let mut inboxes: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut received = vec![0u64; n];
        let mut traffic = want_traffic.then(|| vec![0u64; n * n]);
        for (src, outbox) in outboxes.into_iter().enumerate() {
            for (dest, item) in outbox {
                if dest >= p {
                    let detail =
                        format!("exchange destination {dest} out of range for {p} servers");
                    let mut absorbed = false;
                    self.each(|obs, ctx| absorbed |= obs.violation(ctx, &detail));
                    assert!(absorbed, "{detail}");
                    continue;
                }
                received[self.phys[dest]] += 1;
                if let Some(t) = &mut traffic {
                    t[self.phys[src] * n + self.phys[dest]] += 1;
                }
                inboxes[dest].push(item);
            }
        }
        self.deliver(EventKind::Exchange, &received, traffic.as_deref());
        Distributed::from_parts(inboxes)
    }

    /// Deliver every item of every server to **all** servers (used for the
    /// paper's "broadcast R1 to all servers" steps on tiny relations).
    /// Each server pays the full item count. Consumes one round. A halted
    /// cluster delivers nothing, like [`Cluster::exchange`].
    pub fn broadcast<T: Clone>(&mut self, data: &Distributed<T>) -> Distributed<T> {
        // One message per (item, destination) pair.
        let Some(want_traffic) = self.round_boundary(data.total_len() * self.p()) else {
            return Distributed::empty(self.p());
        };
        let items: Vec<T> = data.iter().flat_map(|(_, v)| v.iter().cloned()).collect();
        let n = self.servers;
        let mut received = vec![0u64; n];
        for &dest in &self.phys {
            // Oversubscribed slots stack, as charged.
            received[dest] += items.len() as u64;
        }
        let traffic = want_traffic.then(|| {
            let mut t = vec![0u64; n * n];
            for (src, local) in data.iter() {
                for &dest in &self.phys {
                    t[self.phys[src] * n + dest] += local.len() as u64;
                }
            }
            t
        });
        self.deliver(EventKind::Broadcast, &received, traffic.as_deref());
        Distributed::from_parts((0..self.p()).map(|_| items.clone()).collect())
    }

    /// Initial placement of input data: round-robin, `⌈n/p⌉` per server.
    ///
    /// Models §1.3's "data is initially distributed across `p` servers with
    /// each server holding `N/p` tuples"; it is the *starting state*, not a
    /// cluster operation, and is uncosted.
    pub fn scatter_initial<T>(&self, items: Vec<T>) -> Distributed<T> {
        let mut data: Vec<Vec<T>> = (0..self.p()).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            data[i % self.p()].push(item);
        }
        Distributed::from_parts(data)
    }

    /// Place each item on the chosen logical server without cost.
    ///
    /// **For adversarial test setups only** (e.g. the lower-bound instances
    /// of Theorems 2–3 prescribe an initial distribution); algorithms must
    /// use [`Cluster::exchange`] to move data.
    pub fn place_initial<T>(&self, items: Vec<(usize, T)>) -> Distributed<T> {
        let mut data: Vec<Vec<T>> = (0..self.p()).map(|_| Vec::new()).collect();
        for (dest, item) in items {
            data[dest % self.p()].push(item);
        }
        Distributed::from_parts(data)
    }

    /// Carve the cluster into sub-clusters of the given sizes, all starting
    /// at this cluster's round cursor and sharing its ledger and observers.
    ///
    /// Logical slots are dealt out contiguously and wrap around the
    /// physical servers modulo `p` when `sizes` sums past `p` (honest
    /// oversubscription, see the type-level docs).
    pub fn split(&self, sizes: &[usize]) -> Vec<Cluster> {
        self.split_with_offsets(sizes).0
    }

    /// [`Cluster::split`], additionally returning each child's base offset
    /// in this cluster's logical server space — children occupy logical
    /// servers `(offset + j) % p` for `j < size`, which parent-level
    /// exchanges can target directly.
    pub fn split_with_offsets(&self, sizes: &[usize]) -> (Vec<Cluster>, Vec<usize>) {
        let mut out = Vec::with_capacity(sizes.len());
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut offset = 0usize;
        for &size in sizes {
            assert!(size >= 1, "sub-cluster must have at least one server");
            let phys = (0..size)
                .map(|j| self.phys[(offset + j) % self.phys.len()])
                .collect();
            out.push(Cluster {
                phys,
                servers: self.servers,
                round: self.round,
                shared: self.shared.clone(),
                backend: self.backend.clone(),
            });
            offsets.push(offset);
            offset += size;
        }
        (out, offsets)
    }

    /// Re-synchronize after parallel sub-cluster work: advance this
    /// cluster's cursor to the furthest round any child consumed.
    pub fn join_parallel(&mut self, children: &[Cluster]) {
        for c in children {
            self.round = self.round.max(c.round);
        }
    }

    /// Advance the cursor by `n` rounds without traffic (used to keep
    /// conditional branches round-aligned when required).
    pub fn skip_rounds(&mut self, n: u64) {
        self.round += n;
    }
}

/// RAII guard for an operation-scope label, returned by [`Cluster::op`];
/// dropping it closes the scope. Holds nothing when no observer is
/// installed.
#[derive(Debug)]
pub struct OpScope {
    shared: Option<Rc<RefCell<Shared>>>,
}

impl Drop for OpScope {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let shared = &mut *shared.borrow_mut();
            let reopened = shared.op_marks.pop().unwrap_or(0);
            shared.op_path.truncate(reopened);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::fault::{FaultPlan, FaultPlane};
    use crate::trace::Tracer;

    #[test]
    fn exchange_routes_and_charges() {
        let mut c = Cluster::new(3);
        // Server 0 sends two items to server 2; server 1 sends one to 0.
        let out = vec![vec![(2, "a"), (2, "b")], vec![(0, "c")], vec![]];
        let d = c.exchange(out);
        assert_eq!(d.local(2), &vec!["a", "b"]);
        assert_eq!(d.local(0), &vec!["c"]);
        let r = c.report();
        assert_eq!(r.load, 2);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.total_units, 3);
    }

    #[test]
    fn broadcast_charges_every_server() {
        let mut c = Cluster::new(4);
        let d = c.scatter_initial(vec![1, 2, 3]);
        let b = c.broadcast(&d);
        for i in 0..4 {
            assert_eq!(b.local(i), &vec![1, 2, 3]);
        }
        assert_eq!(c.report().load, 3);
        assert_eq!(c.report().total_units, 12);
    }

    #[test]
    fn scatter_initial_is_balanced_and_free() {
        let c = Cluster::new(4);
        let d = c.scatter_initial((0..10).collect::<Vec<_>>());
        assert_eq!(d.max_local_len(), 3);
        assert_eq!(d.total_len(), 10);
        assert_eq!(c.report().total_units, 0);
    }

    #[test]
    fn split_shares_timeline_and_ledger() {
        let mut parent = Cluster::new(4);
        let mut children = parent.split(&[2, 2]);
        // Both children exchange once, in "parallel": loads land on the
        // same global round, on disjoint physical servers.
        for child in &mut children {
            let out = vec![vec![(0, 1u32)], vec![(0, 2u32)]];
            let _ = child.exchange(out);
        }
        parent.join_parallel(&children);
        assert_eq!(parent.round(), 1);
        let r = parent.report();
        assert_eq!(r.rounds, 1);
        assert_eq!(r.load, 2); // two items into each child's server 0
        assert_eq!(r.total_units, 4);
    }

    #[test]
    fn oversubscription_wraps_and_stacks_load() {
        let mut parent = Cluster::new(2);
        // Four sub-clusters of one server each on two physical servers.
        let mut children = parent.split(&[1, 1, 1, 1]);
        for child in &mut children {
            let out = vec![vec![(0, ())]];
            let _ = child.exchange(out);
        }
        parent.join_parallel(&children);
        // Children 0 and 2 share physical server 0; load stacks to 2.
        assert_eq!(parent.report().load, 2);
    }

    #[test]
    fn rounds_advance_monotonically() {
        let mut c = Cluster::new(2);
        let _ = c.exchange(vec![vec![(0, ())], vec![]]);
        let _ = c.exchange(vec![vec![(1, ())], vec![]]);
        assert_eq!(c.round(), 2);
        assert_eq!(c.report().rounds, 2);
        assert_eq!(c.report().load, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn exchange_rejects_bad_destination() {
        let mut c = Cluster::new(2);
        let _ = c.exchange(vec![vec![(5, ())], vec![]]);
    }

    #[test]
    fn reindexed_wraps_and_concatenates_in_child_order() {
        // 5 logical child servers over 3 parent servers, base 1:
        // child j lands on parent (1 + j) % 3, so parents get
        //   parent 0 ← child 2,   parent 1 ← children 0 and 3 (in that
        //   order), parent 2 ← children 1 and 4.
        let child = Distributed::from_parts(vec![
            vec!["c0"],
            vec!["c1a", "c1b"],
            vec!["c2"],
            vec!["c3"],
            vec!["c4"],
        ]);
        let parent = child.reindexed(3, 1);
        assert_eq!(parent.servers(), 3);
        assert_eq!(parent.local(0), &vec!["c2"]);
        assert_eq!(parent.local(1), &vec!["c0", "c3"]);
        assert_eq!(parent.local(2), &vec!["c1a", "c1b", "c4"]);
        // Wrap preserves every item exactly once.
        assert_eq!(parent.total_len(), 6);
    }

    #[test]
    fn skew_measures_imbalance() {
        let balanced = Distributed::from_parts(vec![vec![1u8; 4], vec![1; 4]]);
        assert!((balanced.skew() - 1.0).abs() < 1e-12);
        let hot = Distributed::from_parts(vec![vec![1u8; 9], vec![1; 1]]);
        assert!((hot.skew() - 1.8).abs() < 1e-12);
        let empty: Distributed<u8> = Distributed::empty(4);
        assert!((empty.skew() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traced_exchange_matches_untraced_costs() {
        let route = |c: &mut Cluster| {
            let out = vec![vec![(2, "a"), (2, "b")], vec![(0, "c")], vec![]];
            let _ = c.exchange(out);
            let d = c.scatter_initial(vec![1u8, 2]);
            let _ = c.broadcast(&d);
        };
        let mut plain = Cluster::new(3);
        route(&mut plain);
        let mut traced = Cluster::new(3);
        let tracer = traced.observe(Tracer::new(3));
        route(&mut traced);
        assert_eq!(plain.report(), traced.report());
        let trace = tracer.borrow_mut().finish(&traced);
        assert_eq!(trace.cost, plain.report());
        assert_eq!(trace.events.len(), 2);
        // Event 0: exchange; received = [1, 0, 2].
        assert_eq!(trace.events[0].received, vec![1, 0, 2]);
        assert_eq!(trace.events[0].traffic[0][2], 2);
        // Event 1: broadcast of 2 items to all 3 servers.
        assert_eq!(trace.events[1].received, vec![2, 2, 2]);
        // Critical cell matches the measured load.
        let critical = trace.critical_round().expect("has traffic");
        assert_eq!(critical.units, trace.cost.load);
    }

    #[test]
    fn metrics_match_ledger_and_stay_invisible() {
        let route = |c: &mut Cluster| {
            {
                let _op = c.op("route");
                let out = vec![vec![(2, "a"), (2, "b")], vec![(0, "c")], vec![]];
                let _ = c.exchange(out);
            }
            let d = c.scatter_initial(vec![1u8, 2]);
            let _ = c.broadcast(&d);
        };
        let mut plain = Cluster::new(3);
        route(&mut plain);
        let mut metered = Cluster::new(3);
        let tracer = metered.observe(Tracer::new(3));
        route(&mut metered);
        // Recording never perturbs the ledger.
        assert_eq!(plain.report(), metered.report());
        let snap = tracer.borrow_mut().finish(&metered).metrics(None);
        // Exchange received [1, 0, 2]; broadcast adds 2 to every server.
        assert_eq!(snap.per_server, vec![3, 2, 4]);
        assert_eq!(snap.received.max, 4);
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("events.exchange"), Some(1));
        assert_eq!(counter("events.broadcast"), Some(1));
        // The op scope labeled the exchange.
        let route_hist = snap
            .per_primitive
            .iter()
            .find(|(k, _)| k == "route")
            .map(|(_, h)| h)
            .expect("scope label recorded");
        assert_eq!(route_hist.sum, 3);
        assert_eq!(route_hist.count, 1);
        // The gauges are the ledger totals the trace was finished with.
        let gauge = |name: &str| snap.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(gauge("load"), Some(plain.report().load as f64));
        assert_eq!(gauge("rounds"), Some(2.0));
    }

    #[test]
    fn metrics_and_tracing_compose() {
        let mut c = Cluster::new(2);
        let tracer = c.observe(Tracer::new(2));
        let _ = c.exchange(vec![vec![(1, ()), (1, ())], vec![(0, ())]]);
        let trace = tracer.borrow_mut().finish(&c);
        let snap = trace.metrics(None);
        // Server 0 receives one item, server 1 two.
        assert_eq!(trace.per_server(), vec![1, 2]);
        assert_eq!(snap.per_server, vec![1, 2]);
        assert_eq!(trace.cost.load, 2);
        assert_eq!(snap.received.max, 2);
    }

    #[test]
    fn op_scopes_nest_and_label_events() {
        let mut c = Cluster::new(2);
        let tracer = c.observe(Tracer::new(2));
        {
            let _outer = c.op("semijoin");
            {
                let _inner = c.op("sort");
                let _ = c.exchange(vec![vec![(1, ())], vec![]]);
            }
            let _ = c.exchange(vec![vec![(0, ())], vec![]]);
        }
        c.mark_phase("late");
        let _ = c.exchange(vec![vec![(1, ())], vec![]]);
        let trace = tracer.borrow_mut().finish(&c);
        let labels: Vec<&str> = trace.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["semijoin/sort", "semijoin", "(unlabeled)"]);
        let phases: Vec<&str> = trace.events.iter().map(|e| e.phase.as_str()).collect();
        assert_eq!(phases, vec!["(preamble)", "(preamble)", "late"]);
    }

    #[test]
    fn oversubscribed_trace_stacks_like_ledger() {
        let mut parent = Cluster::new(2);
        let tracer = parent.observe(Tracer::new(2));
        let mut children = parent.split(&[1, 1, 1, 1]);
        for child in &mut children {
            let _ = child.exchange(vec![vec![(0, ())]]);
        }
        parent.join_parallel(&children);
        let trace = tracer.borrow_mut().finish(&parent);
        // Children 0 and 2 share physical server 0: the trace's cell view
        // must stack exactly as the ledger did.
        assert_eq!(trace.cost.load, 2);
        assert_eq!(trace.critical_round().unwrap().units, 2);
        assert_eq!(trace.per_server(), vec![2, 2]);
    }

    #[test]
    fn compute_spans_record_task_counts() {
        let mut c = Cluster::with_threads(3, 2);
        let tracer = c.observe(Tracer::new(3));
        let _op = c.op("map");
        let squares = c.par_run(3, |i| i * i);
        assert_eq!(squares, vec![0, 1, 4]);
        drop(_op);
        let trace = tracer.borrow_mut().finish(&c);
        assert_eq!(trace.compute.len(), 1);
        assert_eq!(trace.compute[0].tasks, 3);
        assert_eq!(trace.compute[0].label, "map");
    }

    #[test]
    fn fault_plane_never_perturbs_ledger_or_deliveries() {
        let route = |c: &mut Cluster| -> Vec<Vec<&'static str>> {
            let out = vec![vec![(2, "a"), (2, "b")], vec![(0, "c")], vec![]];
            let d = c.exchange(out);
            let s = c.scatter_initial(vec!["x", "y"]);
            let b = c.broadcast(&s);
            let mut parts = d.into_parts();
            parts.extend(b.into_parts());
            parts
        };
        let mut plain = Cluster::new(3);
        let plain_parts = route(&mut plain);
        let mut faulted = Cluster::new(3);
        let plan = FaultPlan::new(42)
            .drop_window(0, 8, 0.5)
            .duplicate(0, 0.5)
            .reorder(1)
            .retries(64);
        let plane = faulted.observe(FaultPlane::new(plan, 3));
        let faulted_parts = route(&mut faulted);
        // Recovered deliveries and the cost ledger are bit-identical.
        assert_eq!(faulted_parts, plain_parts);
        assert_eq!(faulted.report(), plain.report());
        let report = plane.borrow_mut().take_report();
        assert!(report.recovered());
        assert!(report.faults_injected > 0, "schedule should have fired");
    }

    #[test]
    fn crash_recovery_keeps_costs_and_reports_lost_server() {
        let route = |c: &mut Cluster| {
            for _ in 0..3 {
                let out = vec![vec![(1, ())], vec![(0, ())], vec![(2, ())]];
                let _ = c.exchange(out);
            }
        };
        let mut plain = Cluster::new(3);
        route(&mut plain);
        let mut faulted = Cluster::new(3);
        let plane = faulted.observe(FaultPlane::new(FaultPlan::new(7).crash(1, 2), 3));
        route(&mut faulted);
        assert_eq!(faulted.report(), plain.report());
        let report = plane.borrow_mut().take_report();
        assert!(report.recovered());
        assert_eq!(report.servers_lost, vec![2]);
        assert_eq!(report.rounds_replayed, 1);
    }

    #[test]
    fn exhausted_retries_poison_instead_of_panicking() {
        let mut c = Cluster::new(2);
        let plan = FaultPlan::new(3).drop_window(0, 100, 1.0).retries(1);
        let plane = c.observe(FaultPlane::new(plan, 2));
        // The run completes (delivery stays faithful so invariants hold)…
        let d = c.exchange(vec![vec![(1, 5u32)], vec![]]);
        assert_eq!(d.local(1), &vec![5]);
        // …but the plane has recorded the terminal failure.
        let report = plane.borrow_mut().take_report();
        let (round, detail) = report.unrecoverable.clone().expect("budget exhausted");
        assert_eq!(round, 0);
        assert!(detail.contains("undelivered"));
        assert!(!report.recovered());
    }

    #[test]
    fn bad_destination_poisons_under_fault_plane() {
        let mut c = Cluster::new(2);
        let plane = c.observe(FaultPlane::new(FaultPlan::new(1), 2));
        let d = c.exchange(vec![vec![(5, "lost"), (1, "kept")], vec![]]);
        assert_eq!(d.local(1), &vec!["kept"]);
        let report = plane.borrow_mut().take_report();
        let (_, detail) = report.unrecoverable.expect("poisoned");
        assert!(detail.contains("out of range"));
    }

    #[test]
    fn halt_delivers_nothing_and_calls_no_observer() {
        let route = vec![vec![(2, "a"), (2, "b")], vec![(0, "c")], vec![]];
        let mut bare = Cluster::new(3);
        let _ = bare.exchange(route.clone());
        let mut c = Cluster::new(3);
        c.observe(CancelToken::new().at_round(1));
        let tracer = c.observe(Tracer::new(3));
        let d = c.exchange(route.clone());
        assert_eq!(d.local(2), &vec!["a", "b"]);
        assert_eq!(c.halted(), None);
        let e = c.exchange(route);
        assert_eq!(e.into_parts(), vec![Vec::<&str>::new(); 3]);
        let b = c.broadcast(&d);
        assert_eq!(b.into_parts(), vec![Vec::<&str>::new(); 3]);
        let mut child = c.split(&[2]).remove(0);
        assert_eq!(child.exchange(vec![vec![(1, 7u8)], vec![]]).total_len(), 0);
        assert_eq!(c.halted(), Some((1, CancelCause::Cancelled)));
        // Local work still runs and keeps its order.
        assert_eq!(c.par_run(3, |i| i * 10), vec![0, 10, 20]);
        assert_eq!(c.report(), bare.report());
        let trace = tracer.borrow_mut().finish(&c);
        assert_eq!(trace.events.len(), 1);
        assert!(trace.compute.is_empty());
    }

    #[test]
    fn par_map_local_matches_map_local_on_every_backend() {
        let parts: Vec<Vec<u64>> = (0..13).map(|i| (0..i).collect()).collect();
        let serial = Distributed::from_parts(parts.clone())
            .map_local(|s, v| v.into_iter().map(|x| x * 3 + s as u64).collect())
            .into_parts();
        for threads in [1, 2, 8] {
            let c = Cluster::with_threads(4, threads);
            let par = Distributed::from_parts(parts.clone())
                .par_map_local(&c, |s, v| v.into_iter().map(|x| x * 3 + s as u64).collect())
                .into_parts();
            assert_eq!(par, serial, "threads={threads}");
        }
    }
}
