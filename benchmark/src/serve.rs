//! The three wire workloads: `serve_cold`, `serve_hot`, `serve_update`.
//!
//! Each spawns the real `mpcjoin-serve` binary as a child process
//! (`--workers min(2, nproc) --threads 1`) and drives it over
//! `mpcjoin-wire-v1` from this one process, on [`CONNECTIONS`] TCP
//! connections with `TCP_NODELAY` and one write per frame. Replies are
//! timestamped as they are read and checked after the clock stops, so
//! checking never competes with the server for the machine's cores.

use crate::gen::{self, Digest, Frame, Instance, Mirror, Ring, SplitMix64};
use crate::layers::{
    build_case, check_body, time_parse_frame, update_delta_load, Expected, ServerStats, Span,
};
use crate::metrics::{mean, median, ms, quantile, Report};
use crate::sizes::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["serve_cold", "serve_hot", "serve_update"];

/// How long a client waits for one reply before calling it lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// The server process.
// ---------------------------------------------------------------------

/// Directory of this executable — where cargo also puts `mpcjoin-serve`.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf())
}

/// Build `mpcjoin-serve` next to this executable. It is built through
/// the benchmark's own workspace (`-p mpcjoin-server --bin
/// mpcjoin-serve`), so it links the very library objects the in-process
/// workloads run and the tree is compiled once, not twice. Compile time
/// is outside `setup_s` and every measured interval.
fn build_server() -> Result<PathBuf, String> {
    let dir = exe_dir()?;
    let target_dir = dir
        .parent()
        .ok_or("executable is not under a target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(&manifest)
        .args([
            "-p",
            "mpcjoin-server",
            "--bin",
            "mpcjoin-serve",
            "--target-dir",
        ])
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build mpcjoin-serve: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build mpcjoin-serve: {status}"));
    }
    let bin = dir.join("mpcjoin-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

struct Server {
    child: Child,
    /// Kept open until the child exits: the server prints a last line
    /// when it drains, and a closed pipe would turn that into a panic.
    stdout: BufReader<ChildStdout>,
    addr: String,
    log: Option<PathBuf>,
}

impl Server {
    /// Spawn and wait until it answers a ping. The traced run adds
    /// `--log`, the server's own operational log.
    fn spawn(bin: &Path, traced: bool) -> Result<Server, String> {
        let log = if traced {
            let dir = exe_dir()?.join("bench-run");
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Some(dir.join(format!("serve-{}.log", std::process::id())))
        } else {
            None
        };
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--threads", "1", "--workers"])
            .arg(crate::nproc().min(2).to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(path) = &log {
            cmd.arg("--log").arg(path);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let addr = match stdout.read_line(&mut first) {
            Ok(n) if n > 0 => first
                .trim()
                .strip_prefix("mpcjoin-serve listening on ")
                .map(str::to_string),
            _ => None,
        };
        let mut server = Server {
            child,
            stdout,
            addr: String::new(),
            log,
        };
        server.addr =
            addr.ok_or_else(|| format!("no listening line from the server: {first:?}"))?;
        let pong = server.control("{\"type\":\"ping\",\"id\":0}\n")?;
        if Reply::scan(&pong).kind != "pong" {
            return Err(format!("server not ready: {pong}"));
        }
        Ok(server)
    }

    /// One request/response on a connection of its own.
    fn control(&self, line: &str) -> Result<String, String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.send(line)?;
        conn.recv()
    }

    fn stats(&self) -> Result<ServerStats, String> {
        ServerStats::parse(&self.control("{\"type\":\"stats\",\"id\":0}\n")?)
    }

    /// `VmHWM` of the server process, MiB.
    fn rss_peak_mb(&self) -> f64 {
        crate::vm_hwm_mb(self.child.id())
    }

    /// Graceful drain, then wait for the process to end.
    fn stop(mut self) -> Result<(), String> {
        let ack = self.control("{\"type\":\"shutdown\",\"id\":0}\n")?;
        if Reply::scan(&ack).kind != "shutdown_ack" {
            return Err(format!("no shutdown_ack: {ack}"));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("mpcjoin-serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    /// Whatever path led here, no child outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(path) = &self.log {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------
// The client side of the wire.
// ---------------------------------------------------------------------

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// `line` ends in a newline; it goes out in one write.
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed by the server".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Send `line`, wait for its reply: `(wall in ms, reply line)`.
    fn exchange(&mut self, line: &str) -> Result<(f64, String), String> {
        let at = Instant::now();
        self.send(line)?;
        let got = self.recv()?;
        Ok((ms(at.elapsed()), got))
    }
}

/// The start of a reply line, for error messages.
fn head(line: &str) -> &str {
    line.get(..160).unwrap_or(line).trim_end()
}

/// Run `work` on one scoped thread per element of `states` and collect
/// the results in order; the first error wins.
fn on_threads<S: Send, T: Send>(
    states: Vec<S>,
    work: impl Fn(S) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = states
            .into_iter()
            .map(|state| scope.spawn(move || work(state)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The header members of a response line, read without parsing the
/// (possibly large) body, and the body's raw bytes.
#[derive(Debug, Default)]
struct Reply<'a> {
    kind: &'a str,
    id: Option<u64>,
    cached: bool,
    elapsed_ns: u64,
    /// Raw bytes of the `result` member — the canonical body.
    body: Option<&'a str>,
}

impl<'a> Reply<'a> {
    fn scan(line: &'a str) -> Reply<'a> {
        let line = line.trim_end();
        let body_at = line.find("\"result\":");
        let head_end = [body_at, line.find("\"delta\":")]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(line.len());
        let head = &line[..head_end];
        let field = |key: &str| -> Option<&'a str> {
            let at = head.find(key)? + key.len();
            let rest = &head[at..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim_matches('"'))
        };
        Reply {
            kind: field("\"type\":").unwrap_or(""),
            id: field("\"id\":").and_then(|v| v.parse().ok()),
            cached: field("\"cached\":") == Some("true"),
            elapsed_ns: field("\"elapsed_ns\":")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            // The server stamps `,"rid":N}` after the spliced body.
            body: body_at.and_then(|at| {
                let rest = &line[at + "\"result\":".len()..];
                rest.rfind(",\"rid\":").map(|end| &rest[..end])
            }),
        }
    }
}

/// `(load, rounds)` of a canonical body, which opens
/// `{"plan":"…","load":L,"rounds":R,…`.
fn body_cost(body: &str) -> Option<(f64, f64)> {
    let num = |key: &str| -> Option<f64> {
        let rest = &body[body.find(key)? + key.len()..];
        rest[..rest.find(',')?].parse().ok()
    };
    Some((num("\"load\":")?, num("\"rounds\":")?))
}

/// Running `mpc_load_mean` / `mpc_rounds_mean` over result bodies.
#[derive(Default)]
struct CostSum {
    load: f64,
    rounds: f64,
    bodies: f64,
}

impl CostSum {
    fn add(&mut self, body: &str) {
        if let Some((load, rounds)) = body_cost(body) {
            self.load += load;
            self.rounds += rounds;
            self.bodies += 1.0;
        }
    }

    fn absorb(&mut self, other: &CostSum) {
        self.load += other.load;
        self.rounds += other.rounds;
        self.bodies += other.bodies;
    }

    fn report(&self, report: &mut Report) {
        report.set("mpc_load_mean", self.load / self.bodies.max(1.0));
        report.set("mpc_rounds_mean", self.rounds / self.bodies.max(1.0));
    }
}

/// What a closed-loop connection saw, one entry per exchange.
#[derive(Default)]
struct Tally {
    /// `(kind, wall in ms)`: the reply-size class on `serve_hot`;
    /// 0 = update, 1 = re-query on `serve_update`.
    latency_ms: Vec<(usize, f64)>,
    /// Wall minus the reply's own `elapsed_ns`, ms.
    outside_ms: Vec<f64>,
    response_bytes: Vec<f64>,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, kind: usize, wall_ms: f64, got: &str, reply: &Reply) {
        self.latency_ms.push((kind, wall_ms));
        self.outside_ms
            .push(wall_ms - reply.elapsed_ns as f64 / 1e6);
        self.response_bytes.push(got.len() as f64);
    }

    fn absorb(&mut self, other: Tally) {
        self.latency_ms.extend(other.latency_ms);
        self.outside_ms.extend(other.outside_ms);
        self.response_bytes.extend(other.response_bytes);
        self.failures.extend(other.failures);
    }

    fn of_kind(&self, kind: usize) -> Vec<f64> {
        let of_kind = self.latency_ms.iter().filter(|(k, _)| *k == kind);
        of_kind.map(|&(_, l)| l).collect()
    }

    /// The closed-loop end-to-end metrics, and the failures.
    fn report(&mut self, report: &mut Report, elapsed: f64) {
        let every: Vec<f64> = self.latency_ms.iter().map(|&(_, l)| l).collect();
        report.attempted += every.len() as u64;
        self.failures.drain(..).for_each(|f| report.fail(f));
        report.set("latency_ms_p50", median(&every));
        report.set("latency_ms_p75", quantile(&every, 0.75));
        report.set("throughput_per_s", every.len() as f64 / elapsed);
    }
}

/// Type `inst`, evaluate the oracle, and check `body` against it.
fn check_against_oracle(inst: &Instance, body: &str, limit: Option<usize>) -> Result<(), String> {
    let expected: Expected = build_case(inst)?.expected();
    check_body(body, &expected, limit).map_err(|e| format!("{}: {e}", inst.label))
}

// ---------------------------------------------------------------------
// Shared run skeleton.
// ---------------------------------------------------------------------

pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let outcome = build_server().and_then(|bin| {
        let run = match workload {
            "serve_cold" => cold,
            "serve_hot" => hot,
            "serve_update" => update,
            other => unreachable!("not a serve workload: {other}"),
        };
        run(&bin, seed, seconds, traced, &mut report)
    });
    if let Err(e) = outcome {
        report.fail(e);
    }
    report
}

/// Set up `SETUP_REPEATS` times (once when traced, which reports no
/// `setup_s`), keep the last, stop the servers of the others.
fn set_up_repeatedly<T>(
    traced: bool,
    report: &mut Report,
    mut set_up: impl FnMut(&mut Report) -> Result<(Server, T), String>,
) -> Result<(Server, T), String> {
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut walls = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        if let Some((server, _)) = kept.take() {
            Server::stop(server)?;
        }
        let at = Instant::now();
        kept = Some(set_up(report)?);
        walls.push(at.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&walls));
    Ok(kept.expect("at least one set-up"))
}

/// The per-layer metrics every serve workload derives the same way:
/// the server's own spans and counters over the measured interval
/// (difference of two `stats` scrapes), and the wire-side numbers the
/// generator times itself.
struct WireSample<'a> {
    frames: &'a [String],
    response_bytes: &'a [f64],
    /// Client latency minus the reply's own `elapsed_ns`, ms.
    outside_ms: &'a [f64],
}

fn report_layers(
    report: &mut Report,
    before: &ServerStats,
    after: &ServerStats,
    wire: WireSample,
) -> Result<(), String> {
    let mean_ms = |f: fn(&ServerStats) -> Span| {
        let (a, b) = (f(after), f(before));
        let n = a.count - b.count;
        if n > 0.0 {
            (a.sum_ns - b.sum_ns) / n / 1e6
        } else {
            0.0
        }
    };
    let delta = |f: fn(&ServerStats) -> f64| f(after) - f(before);
    report.set("sched.queue_ms_mean", mean_ms(|s| s.queue));
    report.set("sched.admitted", delta(|s| s.admitted));
    report.set("sched.completed", delta(|s| s.completed));
    report.set("sched.rejected", delta(|s| s.rejected));
    report.set("sched.shed_deadline", delta(|s| s.shed_deadline));
    let (hits, misses) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
    report.set(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    report.set("cache.probe_ms_mean", mean_ms(|s| s.cache));
    report.set("cache.evictions", delta(|s| s.cache_evictions));
    report.set("cache.bytes", after.cache_bytes);
    report.set("cache.revalidated", delta(|s| s.revalidated));
    report.set("run.engine_ms_mean", mean_ms(|s| s.engine));
    report.set("run.serialize_ms_mean", mean_ms(|s| s.serialize));
    report.set("run.total_ms_mean", mean_ms(|s| s.total));
    report.set("run.coalesce_hits", delta(|s| s.coalesce_hits));
    report.set("delta.applied", delta(|s| s.delta_applied));
    report.set("delta.fallback", delta(|s| s.delta_fallback));

    let mut parse_us = Vec::new();
    for frame in wire.frames {
        parse_us.push(time_parse_frame(frame.trim_end())?.as_secs_f64() * 1e6);
    }
    report.set("wire.parse_us_p50", median(&parse_us));
    report.set(
        "wire.request_bytes_mean",
        mean(
            &wire
                .frames
                .iter()
                .map(|f| f.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("wire.response_bytes_mean", mean(wire.response_bytes));
    report.set("wire.outside_ms_p50", median(wire.outside_ms));
    report.set("gen.samples", wire.outside_ms.len() as f64);
    Ok(())
}

// ---------------------------------------------------------------------
// serve_cold — open loop, every request a cache miss.
// ---------------------------------------------------------------------

/// The arrival schedule: `ROUNDS` rounds of the same five-step rate
/// ladder. A step of a round is a *slot*.
struct ColdPlan {
    requests: Vec<Instance>,
    /// Frame lines, ids `1..=n` in due order.
    lines: Vec<String>,
    /// Due time of each request, from the start of the first round.
    due: Vec<Duration>,
    /// `round · COLD_STEPS + step` of each request.
    slot: Vec<usize>,
    slot_secs: f64,
}

/// Seconds from the start of the first round to the start of `slot`.
fn slot_start(slot: usize, slot_secs: f64) -> f64 {
    slot as f64 * slot_secs + (slot / COLD_STEPS) as f64 * COLD_LIMIT_MS / 1e3
}

fn cold_rate(step: usize) -> f64 {
    COLD_RATE_1 * COLD_STEP_FACTOR.powi(step as i32)
}

fn cold_request(root: &SplitMix64, i: usize) -> Instance {
    let mut rng = root.fork(i as u64);
    match i % 3 {
        0 => gen::mm_blocks(&mut rng, SERVE_SERVERS, COLD_MM.0, COLD_MM.1, MM_THICKNESS),
        1 => gen::funnel_line(
            &mut rng,
            SERVE_SERVERS,
            COLD_LINE.0,
            COLD_LINE.1,
            COLD_LINE.2,
        ),
        _ => gen::overlapping_star(
            &mut rng,
            Ring::Bool,
            SERVE_SERVERS,
            COLD_STAR.0,
            COLD_STAR.1,
        ),
    }
}

fn cold_plan(seed: u64, seconds: f64) -> ColdPlan {
    let root = SplitMix64::new(seed);
    // Each round ends with an idle gap of the latency limit, in which
    // the overload step's backlog is sent or dropped, so that it never
    // reaches the next round's first step.
    let slot_secs = (seconds / ROUNDS as f64 - COLD_LIMIT_MS / 1e3) / COLD_STEPS as f64;
    let mut plan = ColdPlan {
        requests: Vec::new(),
        lines: Vec::new(),
        due: Vec::new(),
        slot: Vec::new(),
        slot_secs,
    };
    // Evenly spaced arrivals with a seeded phase per slot. With two
    // connections and near-constant service times this keeps queueing
    // out of the steps below capacity, so their latency is the
    // server's and repeats from run to run; the steps near and above
    // capacity still queue, which is what the ladder looks for.
    let mut phases = root.fork(u64::MAX - 1);
    for slot in 0..ROUNDS * COLD_STEPS {
        let rate = cold_rate(slot % COLD_STEPS);
        let phase = (phases.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        for j in 0..(rate * slot_secs).floor() as usize {
            let i = plan.requests.len();
            let inst = cold_request(&root, i);
            plan.lines
                .push(inst.query_frame(None, false).line(i as u64 + 1));
            plan.requests.push(inst);
            plan.due.push(Duration::from_secs_f64(
                slot_start(slot, slot_secs) + (j as f64 + phase) / rate,
            ));
            plan.slot.push(slot);
        }
    }
    plan
}

/// One answered request: index, whether a connection was free at the
/// due time, send and receive instants, the reply line.
type Answer = (usize, bool, Instant, Instant, String);

fn cold(
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let (server, (plan, samples)) = set_up_repeatedly(traced, report, |_| {
        let plan = cold_plan(seed, seconds);
        let mut digest = Digest::default();
        plan.requests.iter().for_each(|r| digest.instance(r));
        // The oracle for the sampled requests.
        let samples: Vec<(usize, Expected)> = (0..plan.requests.len())
            .step_by(SAMPLE_EVERY)
            .map(|i| Ok((i, build_case(&plan.requests[i])?.expected())))
            .collect::<Result<_, String>>()?;
        let server = Server::spawn(bin, traced)?;
        // Warm every worker and both code paths of each class with
        // requests the ladder never sends.
        let root = SplitMix64::new(seed ^ 0x5EED);
        let mut conn = Conn::open(&server.addr)?;
        for i in 0..12 {
            conn.send(&cold_request(&root, i).query_frame(None, false).line(0))?;
            let reply = conn.recv()?;
            if Reply::scan(&reply).kind != "result" {
                return Err(format!("warm-up request failed: {reply}"));
            }
        }
        println!(
            "serve_cold: {} requests, {ROUNDS} rounds of {COLD_STEPS} steps, input_digest={}",
            plan.requests.len(),
            digest.hex()
        );
        Ok((server, (plan, samples)))
    })?;

    let before = if traced { Some(server.stats()?) } else { None };
    let n = plan.lines.len();
    let start = Instant::now() + Duration::from_millis(20);
    let limit = Duration::from_secs_f64(COLD_LIMIT_MS / 1e3);
    let slot_end = |slot: usize| {
        start + Duration::from_secs_f64(slot_start(slot, plan.slot_secs) + plan.slot_secs)
    };
    let round_end = |slot: usize| slot_end(slot / COLD_STEPS * COLD_STEPS + COLD_STEPS - 1);
    let next = AtomicUsize::new(0);
    let answered = on_threads((0..CONNECTIONS).collect(), |_| {
        let mut conn = Conn::open(&server.addr)?;
        let mut got: Vec<Answer> = Vec::new();
        loop {
            // Arrivals are claimed in due order by whichever connection
            // is free; while both are busy they wait here, and the wait
            // counts as latency.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return Ok(got);
            }
            let due = start + plan.due[i];
            let free = match due.checked_duration_since(Instant::now()) {
                Some(wait) => {
                    std::thread::sleep(wait);
                    true
                }
                None => false,
            };
            let sent = Instant::now();
            if sent > round_end(plan.slot[i]) + limit {
                // The overload step's backlog outlived its round: what
                // is left of it has missed the limit already and is
                // dropped unsent.
                continue;
            }
            conn.send(&plan.lines[i])?;
            let line = conn.recv()?;
            got.push((i, free, sent, Instant::now(), line));
        }
    });
    let after = if traced { Some(server.stats()?) } else { None };
    report.set("rss_peak_mb", server.rss_peak_mb());
    Server::stop(server)?;

    // The clock has stopped; now read what came back.
    let mut latency: Vec<Option<f64>> = vec![None; n]; // ms from due time; None = dropped unsent
    let mut bodies: Vec<Option<&str>> = vec![None; n];
    let mut done_in_slot = [0usize; ROUNDS * COLD_STEPS];
    let mut costs = CostSum::default();
    let (mut response_bytes, mut outside_ms, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let mut service_ms: [Vec<f64>; 3] = Default::default(); // server-side, per request class
    let answered: Vec<Answer> = answered?.concat();
    for (i, free, sent, at, line) in &answered {
        let reply = Reply::scan(line);
        report.attempted += 1;
        match reply.body {
            Some(body) if reply.kind == "result" && reply.id == Some(*i as u64 + 1) => {
                if reply.cached {
                    report.fail(format!(
                        "request {i} was distinct yet answered from the cache"
                    ));
                }
                latency[*i] = Some(ms(at.saturating_duration_since(start + plan.due[*i])));
                bodies[*i] = Some(body);
                // The ledger means are over the steps every request of
                // which is answered, so they depend on the seed alone.
                if plan.slot[*i] % COLD_STEPS < COLD_STEPS - 1 {
                    costs.add(body);
                }
                response_bytes.push(line.len() as f64);
                outside_ms.push(ms(*at - *sent) - reply.elapsed_ns as f64 / 1e6);
                service_ms[*i % 3].push(reply.elapsed_ns as f64 / 1e6);
                if *free {
                    lateness.push(ms(sent.saturating_duration_since(start + plan.due[*i])));
                }
                if let Some(slot) = (0..ROUNDS * COLD_STEPS).find(|&slot| *at < slot_end(slot)) {
                    done_in_slot[slot] += 1;
                }
            }
            _ => report.fail(format!("request {i}: unexpected reply {}", head(line))),
        }
    }
    for (i, expected) in &samples {
        // A sampled request dropped with the backlog has no body to check.
        if let Some(body) = bodies[*i] {
            report.attempted += 1;
            if let Err(e) = check_body(body, expected, None) {
                report.fail(format!("request {i}: {e}"));
            }
        }
    }

    // Per slot: latency from the due time, a dropped request counting
    // as a miss; per step: the median over the rounds.
    let of_slot = |slot: usize| -> Vec<f64> {
        (0..n)
            .filter(|&i| plan.slot[i] == slot)
            .map(|i| latency[i].unwrap_or(f64::INFINITY))
            .collect()
    };
    let over_rounds = |step: usize, f: &dyn Fn(usize) -> f64| -> f64 {
        median(
            &(0..ROUNDS)
                .map(|r| f(r * COLD_STEPS + step))
                .collect::<Vec<_>>(),
        )
    };
    let mut slo_rate = 0.0;
    let mut still_passing = true;
    let mut step_p95 = [0.0; COLD_STEPS];
    for (step, step_p95) in step_p95.iter_mut().enumerate() {
        let p50 = over_rounds(step, &|slot| median(&of_slot(slot)));
        let p75 = over_rounds(step, &|slot| quantile(&of_slot(slot), 0.75));
        *step_p95 = over_rounds(step, &|slot| quantile(&of_slot(slot), 0.95));
        // A growing backlog shows as answers arriving after the slot
        // ended by more than the limit.
        let late = over_rounds(step, &|slot| {
            (0..n)
                .filter(|&i| plan.slot[i] == slot)
                .filter(|&i| {
                    latency[i].is_none_or(|l| {
                        start + plan.due[i] + Duration::from_secs_f64(l / 1e3)
                            > slot_end(slot) + limit
                    })
                })
                .count() as f64
        });
        let passes = *step_p95 <= COLD_LIMIT_MS && late == 0.0;
        still_passing &= passes;
        if still_passing {
            slo_rate = cold_rate(step);
        }
        println!(
            "serve_cold: step {} at {:.0}/s: p50 {p50:.2} p75 {p75:.2} p95 {:.2} ms, {late} late -> {}",
            step + 1,
            cold_rate(step),
            *step_p95,
            if passes { "meets the limit" } else { "misses the limit" }
        );
        if step == 1 {
            report.set("latency_ms_p50", p50);
            report.set("latency_ms_p75", p75);
        }
    }
    println!(
        "serve_cold: server-side ms per class (mm, line, star): {:.2} {:.2} {:.2}",
        median(&service_ms[0]),
        median(&service_ms[1]),
        median(&service_ms[2])
    );
    if (0..n).any(|i| plan.slot[i] % COLD_STEPS < 2 && latency[i].is_none()) {
        report.fail("requests of steps 1-2, under half capacity, were dropped unsent".into());
    }
    // Results completed per second while the last step offers more
    // than the server can take: its saturation throughput.
    report.set(
        "throughput_per_s",
        over_rounds(COLD_STEPS - 1, &|slot| {
            done_in_slot[slot] as f64 / plan.slot_secs
        }),
    );
    costs.report(report);

    if let (Some(before), Some(after)) = (before, after) {
        report_layers(
            report,
            &before,
            &after,
            WireSample {
                frames: &plan.lines,
                response_bytes: &response_bytes,
                outside_ms: &outside_ms,
            },
        )?;
        report.set("gen.lateness_ms_p95", quantile(&lateness, 0.95));
        report.set("gen.slo_rate_rps", slo_rate);
        for (name, p95) in [
            "gen.step1_ms_p95",
            "gen.step2_ms_p95",
            "gen.step3_ms_p95",
            "gen.step4_ms_p95",
            "gen.step5_ms_p95",
        ]
        .into_iter()
        .zip(step_p95)
        {
            // An unbounded p95 (over 5 % dropped) reads as the reply timeout.
            report.set(name, p95.min(ms(REPLY_TIMEOUT)));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// serve_hot — closed loop, every request a cache hit.
// ---------------------------------------------------------------------

struct HotSet {
    frames: Vec<Frame>,
    /// The body each request's cold run returned.
    cold_bodies: Vec<String>,
    /// Reply-size class (index into `HOT_CLASSES`) of each request.
    class: Vec<usize>,
}

fn hot(
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let (server, set) = set_up_repeatedly(traced, report, |report| {
        let root = SplitMix64::new(seed);
        let mut digest = Digest::default();
        let (mut insts, mut class) = (Vec::new(), Vec::new());
        for (c, &(count, k, side)) in HOT_CLASSES.iter().enumerate() {
            for _ in 0..count {
                let mut rng = root.fork(insts.len() as u64);
                let inst = gen::mm_blocks(&mut rng, SERVE_SERVERS, k, side, MM_THICKNESS);
                digest.instance(&inst);
                insts.push(inst);
                class.push(c);
            }
        }
        let frames: Vec<Frame> = insts.iter().map(|i| i.query_frame(None, false)).collect();
        let server = Server::spawn(bin, traced)?;
        // Pre-warm: every request once, cold, the two connections in
        // parallel; each body is checked against the oracle.
        let halves = on_threads((0..CONNECTIONS).collect(), |c| {
            let mut conn = Conn::open(&server.addr)?;
            let mut bodies = Vec::new();
            for i in (c..frames.len()).step_by(CONNECTIONS) {
                let (_, line) = conn.exchange(&frames[i].line(i as u64 + 1))?;
                let reply = Reply::scan(&line);
                match reply.body {
                    Some(body) if reply.kind == "result" && !reply.cached => {
                        bodies.push((i, body.to_string()));
                    }
                    _ => return Err(format!("pre-warm {i}: {}", head(&line))),
                }
            }
            Ok(bodies)
        })?;
        let mut cold_bodies = vec![String::new(); frames.len()];
        for (i, body) in halves.concat() {
            report.attempted += 1;
            check_against_oracle(&insts[i], &body, None)?;
            cold_bodies[i] = body;
        }
        println!(
            "serve_hot: {} pre-warmed requests, reply bytes {}..{}, input_digest={}",
            frames.len(),
            cold_bodies.iter().map(String::len).min().unwrap_or(0),
            cold_bodies.iter().map(String::len).max().unwrap_or(0),
            digest.hex()
        );
        Ok((
            server,
            HotSet {
                frames,
                cold_bodies,
                class,
            },
        ))
    })?;

    let before = if traced { Some(server.stats()?) } else { None };
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let began = Instant::now();
    let tallies = on_threads((0..CONNECTIONS).collect(), |c| {
        let mut conn = Conn::open(&server.addr)?;
        let mut rng = SplitMix64::new(seed).fork(1000 + c as u64);
        let mut t = Tally::default();
        let mut id = 1_000_000 * (c as u64 + 1);
        while Instant::now() < until {
            let i = rng.below(set.frames.len() as u64) as usize;
            id += 1;
            let (wall, got) = conn.exchange(&set.frames[i].line(id))?;
            let reply = Reply::scan(&got);
            if reply.kind != "result" || reply.id != Some(id) || !reply.cached {
                t.failures.push(format!("replay of {i}: {}", head(&got)));
            } else if reply.body != Some(set.cold_bodies[i].as_str()) {
                t.failures
                    .push(format!("replay of {i}: hit differs from its cold twin"));
            }
            t.record(set.class[i], wall, &got, &reply);
        }
        Ok(t)
    });
    let elapsed = began.elapsed().as_secs_f64();
    let after = if traced { Some(server.stats()?) } else { None };
    report.set("rss_peak_mb", server.rss_peak_mb());
    Server::stop(server)?;

    let mut all = Tally::default();
    tallies?.into_iter().for_each(|t| all.absorb(t));
    all.report(report, elapsed);
    println!(
        "serve_hot: {} replays in {elapsed:.2} s",
        all.latency_ms.len()
    );
    // Every replay returned its cold twin's bytes (or failed above), so
    // the ledger means are those of the distinct requests.
    let mut costs = CostSum::default();
    set.cold_bodies.iter().for_each(|b| costs.add(b));
    costs.report(report);

    if let (Some(before), Some(after)) = (before, after) {
        let lines: Vec<String> = set
            .frames
            .iter()
            .enumerate()
            .map(|(i, f)| f.line(i as u64))
            .collect();
        report_layers(
            report,
            &before,
            &after,
            WireSample {
                frames: &lines,
                response_bytes: &all.response_bytes,
                outside_ms: &all.outside_ms,
            },
        )?;
        for (c, name) in [
            "wire.small_reply_ms_p50",
            "wire.medium_reply_ms_p50",
            "wire.large_reply_ms_p50",
        ]
        .into_iter()
        .enumerate()
        {
            report.set(name, median(&all.of_kind(c)));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// serve_update — closed loop, writes beside reads.
// ---------------------------------------------------------------------

/// An update reply kept for the after-the-clock recompute.
struct UpdateSample {
    instance: Instance,
    body: String,
}

fn update(
    bin: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let (n, dom_outer, dom_b) = UPDATE_VIEW;
    let limit = Some(UPDATE_LIMIT);
    let (server, sessions) = set_up_repeatedly(traced, report, |report| {
        let root = SplitMix64::new(seed);
        let mut digest = Digest::default();
        let server = Server::spawn(bin, traced)?;
        let mut sessions = Vec::new();
        for s in 0..CONNECTIONS {
            let mut rng = root.fork(s as u64);
            let inst = gen::uniform_mm(&mut rng, SERVE_SERVERS, n, dom_outer, dom_b);
            digest.instance(&inst);
            // Register the view on the connection that will stream its
            // updates: the view key includes the connection's session.
            let mut conn = Conn::open(&server.addr)?;
            conn.send(&inst.query_frame(limit, true).line(1))?;
            let line = conn.recv()?;
            let reply = Reply::scan(&line);
            let body = reply
                .body
                .filter(|_| reply.kind == "result")
                .ok_or_else(|| format!("register: {}", head(&line)))?;
            report.attempted += 1;
            check_against_oracle(&inst, body, limit)?;
            sessions.push((conn, Mirror::new(inst, (dom_outer, dom_b), rng)));
        }
        println!(
            "serve_update: {CONNECTIONS} registered views of 2×{n} rows, input_digest={}",
            digest.hex()
        );
        Ok((server, sessions))
    })?;

    let before = if traced { Some(server.stats()?) } else { None };
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let began = Instant::now();
    /// A session's tally plus what only `serve_update` keeps.
    #[derive(Default)]
    struct Session {
        tally: Tally,
        costs: CostSum,
        samples: Vec<UpdateSample>,
        // Traced runs only:
        request_lines: Vec<String>,
        delta_loads: Vec<f64>,
    }
    let done = on_threads(sessions, |(mut conn, mut mirror)| {
        let mut s = Session::default();
        let mut id = 1;
        let mut updates = 0usize;
        while Instant::now() < until {
            let edit = mirror.next_edit(UPDATE_INSERTS, UPDATE_DELETES);
            id += 1;
            let line = mirror.instance.update_frame(limit, &edit).line(id);
            let (wall, got) = conn.exchange(&line)?;
            let reply = Reply::scan(&got);
            s.tally.record(0, wall, &got, &reply);
            let Some(body) = reply
                .body
                .filter(|_| reply.kind == "update" && reply.id == Some(id))
            else {
                // The mirror and the view have parted; stop this session.
                return Err(format!("update {id}: {}", head(&got)));
            };
            // The ledger means are over each session's first frames, so
            // they depend on the seed alone.
            if updates < UPDATE_LEDGER_FRAMES {
                s.costs.add(body);
            }
            let body = body.to_string();
            updates += 1;
            if traced {
                if s.request_lines.len() < 64 {
                    s.request_lines.push(line);
                }
                s.delta_loads
                    .extend(update_delta_load(&got).map(|load| load as f64));
            }
            if updates.is_multiple_of(REQUERY_EVERY) {
                // Re-query the mirrored rows: the update must have
                // revalidated the cache for exactly them.
                id += 1;
                let line = mirror.instance.query_frame(limit, false).line(id);
                let (wall, got) = conn.exchange(&line)?;
                let reply = Reply::scan(&got);
                s.tally.record(1, wall, &got, &reply);
                if reply.kind != "result" || reply.id != Some(id) || !reply.cached {
                    s.tally.failures.push(format!(
                        "re-query {id}: not a revalidated hit: {}",
                        head(&got)
                    ));
                } else if reply.body != Some(body.as_str()) {
                    s.tally
                        .failures
                        .push(format!("re-query {id}: hit differs from the update's body"));
                }
                if traced && s.request_lines.len() < 64 {
                    s.request_lines.push(line);
                }
            }
            if updates.is_multiple_of(SAMPLE_EVERY) {
                s.samples.push(UpdateSample {
                    instance: mirror.instance.clone(),
                    body,
                });
            }
        }
        Ok(s)
    });
    let elapsed = began.elapsed().as_secs_f64();
    let after = if traced { Some(server.stats()?) } else { None };
    report.set("rss_peak_mb", server.rss_peak_mb());
    Server::stop(server)?;

    let mut all = Session::default();
    for s in done? {
        all.tally.absorb(s.tally);
        all.costs.absorb(&s.costs);
        all.samples.extend(s.samples);
        all.request_lines.extend(s.request_lines);
        all.delta_loads.extend(s.delta_loads);
    }
    all.tally.report(report, elapsed);
    all.costs.report(report);
    for sample in &all.samples {
        report.attempted += 1;
        if let Err(e) = check_against_oracle(&sample.instance, &sample.body, limit) {
            report.fail(format!("sampled update: {e}"));
        }
    }
    let (update_ms, requery_ms) = (all.tally.of_kind(0), all.tally.of_kind(1));
    println!(
        "serve_update: {} updates, {} re-queries, {} recomputed in {elapsed:.2} s",
        update_ms.len(),
        requery_ms.len(),
        all.samples.len()
    );

    if let (Some(before), Some(after)) = (before, after) {
        report_layers(
            report,
            &before,
            &after,
            WireSample {
                frames: &all.request_lines,
                response_bytes: &all.tally.response_bytes,
                outside_ms: &all.tally.outside_ms,
            },
        )?;
        report.set("wire.update_ms_p50", median(&update_ms));
        report.set("wire.requery_ms_p50", median(&requery_ms));
        report.set("delta.update_load_mean", mean(&all.delta_loads));
    }
    Ok(())
}
