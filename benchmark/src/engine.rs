//! The three in-process workloads: `mm_os`, `mm_wco`, `joinagg_mix`.
//!
//! Closed loop, one caller. A *pass* is one
//! `QueryEngine::new(p).threads(1).run(q, rels)` over each instance of
//! the workload; passes repeat until `--seconds` is used up and the
//! reported latency is that of a pass.

use crate::gen::{self, Digest, Instance, Ring, SplitMix64};
use crate::layers::{build_case, Case, LayerTimes, RunCost};
use crate::metrics::{median, ms, quantile, Report};
use crate::sizes::*;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["mm_os", "mm_wco", "joinagg_mix"];

fn instances(workload: &str, seed: u64) -> Vec<Instance> {
    let root = SplitMix64::new(seed);
    let blocks = |sizes: &[(u64, u64)]| {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &(k, side))| {
                gen::mm_blocks(&mut root.fork(i as u64), MM_SERVERS, k, side, MM_THICKNESS)
            })
            .collect()
    };
    match workload {
        "mm_os" => blocks(&MM_OS_BLOCKS),
        "mm_wco" => blocks(&MM_WCO_BLOCKS),
        "joinagg_mix" => vec![
            gen::funnel_line(
                &mut root.fork(0),
                JOINAGG_SERVERS,
                FUNNEL.0,
                FUNNEL.1,
                FUNNEL.2,
            ),
            gen::overlapping_star(
                &mut root.fork(1),
                Ring::Count,
                JOINAGG_SERVERS,
                STAR.0,
                STAR.1,
            ),
            gen::overlapping_twig(&mut root.fork(2), JOINAGG_SERVERS, TWIG.0, TWIG.1),
        ],
        other => unreachable!("not an engine workload: {other}"),
    }
}

/// A set-up: generate, type, evaluate the oracle, and run every
/// instance once through the engine against it.
struct Ready {
    cases: Vec<Box<dyn Case>>,
    /// The verified model cost of each instance; every later run must
    /// reproduce it exactly.
    costs: Vec<RunCost>,
    /// Σ(N + OUT) over the instances.
    tuples: u64,
}

fn set_up(workload: &str, seed: u64, report: &mut Report) -> Result<Ready, String> {
    let insts = instances(workload, seed);
    let mut digest = Digest::default();
    let mut ready = Ready {
        cases: Vec::new(),
        costs: Vec::new(),
        tuples: 0,
    };
    for inst in &insts {
        digest.instance(inst);
        let case = build_case(inst)?;
        report.attempted += 1;
        let cost = case
            .verify(1)
            .map_err(|e| format!("{workload}/{}: {e}", inst.label))?;
        let in_class = match workload {
            "mm_os" => cost.rounds >= MM_OS_MIN_ROUNDS,
            "mm_wco" => cost.rounds <= MM_WCO_MAX_ROUNDS,
            _ => true,
        };
        if !in_class {
            return Err(format!(
                "{workload}/{}: {} rounds is outside the workload's frozen class — \
                 the dispatcher took the other path",
                inst.label, cost.rounds
            ));
        }
        println!(
            "{workload}/{}: p={} N={} OUT={} load={} rounds={} units={}",
            inst.label,
            inst.servers,
            case.input_rows(),
            case.output_rows(),
            cost.load,
            cost.rounds,
            cost.units
        );
        ready.tuples += case.input_rows() + case.output_rows();
        ready.cases.push(case);
        ready.costs.push(cost);
    }
    println!("{workload}: input_digest={}", digest.hex());
    Ok(ready)
}

/// One pass at `threads`; a run whose ledger differs from the verified
/// one is a wrong answer.
fn pass(ready: &Ready, threads: usize, report: &mut Report) -> Duration {
    let at = Instant::now();
    for (case, want) in ready.cases.iter().zip(&ready.costs) {
        report.attempted += 1;
        match case.run(threads) {
            Ok(got) if got == *want => {}
            Ok(got) => report.fail(format!("ledger {got:?} differs from verified {want:?}")),
            Err(e) => report.fail(e),
        }
    }
    at.elapsed()
}

/// Passes at `threads` for `budget` (at least three), in ms.
fn timed_passes(ready: &Ready, threads: usize, budget: Duration, report: &mut Report) -> Vec<f64> {
    let until = Instant::now() + budget;
    let mut walls = Vec::new();
    while walls.len() < 3 || Instant::now() < until {
        walls.push(ms(pass(ready, threads, report)));
    }
    walls
}

pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let outcome = if traced {
        run_traced(workload, seed, seconds, &mut report)
    } else {
        run_untraced(workload, seed, seconds, &mut report)
    };
    if let Err(e) = outcome {
        report.fail(e);
    }
    report
}

fn run_untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let at = Instant::now();
        ready = Some(set_up(workload, seed, report)?);
        setups.push(at.elapsed().as_secs_f64());
    }
    let ready = ready.expect("SETUP_REPEATS is at least one");
    for _ in 0..WARMUP_PASSES {
        pass(&ready, 1, report);
    }
    let walls = timed_passes(&ready, 1, Duration::from_secs_f64(seconds), report);

    let n = ready.costs.len() as f64;
    let tuples = ready.tuples as f64;
    report.set("latency_ms_p50", median(&walls));
    report.set("latency_ms_p75", quantile(&walls, 0.75));
    // Σ(N + OUT) / Σ wall: the floor any algorithm must touch, per second.
    report.set(
        "throughput_per_s",
        tuples * walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3),
    );
    report.set(
        "mpc_load_mean",
        ready.costs.iter().map(|c| c.load as f64).sum::<f64>() / n,
    );
    report.set(
        "mpc_rounds_mean",
        ready.costs.iter().map(|c| c.rounds as f64).sum::<f64>() / n,
    );
    report.set("rss_peak_mb", crate::vm_hwm_mb(std::process::id()));
    report.set("setup_s", median(&setups));
    println!("{workload}: {} timed passes at threads(1)", walls.len());
    Ok(())
}

/// The per-layer run. The time budget is split into five equal parts:
/// plain passes (the whole the parts are compared to), the outside
/// replay, `trace(true)` passes, multi-threaded passes, and the two
/// reference evaluations.
fn run_traced(workload: &str, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let ready = set_up(workload, seed, report)?;
    let part = Duration::from_secs_f64(seconds / 5.0);
    for _ in 0..WARMUP_PASSES {
        pass(&ready, 1, report);
    }

    let run_ms = median(&timed_passes(&ready, 1, part, report));

    // The outside replay: per pass, each step summed over the instances.
    let mut replays: Vec<LayerTimes> = Vec::new();
    let until = Instant::now() + part;
    while replays.len() < 3 || Instant::now() < until {
        let mut sum = LayerTimes::default();
        for case in &ready.cases {
            sum += case.layered()?;
        }
        replays.push(sum);
    }
    let med = |f: fn(&LayerTimes) -> Duration| {
        median(&replays.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    let (stats, select, scatter, execute, gather, audit) = (
        med(|t| t.stats),
        med(|t| t.select),
        med(|t| t.scatter),
        med(|t| t.execute),
        med(|t| t.gather),
        med(|t| t.audit),
    );
    let parts = stats + select + scatter + execute + gather + audit;

    // trace(true) passes.
    let mut traced_walls = Vec::new();
    let mut last = Vec::new();
    let until = Instant::now() + part;
    while traced_walls.len() < 3 || Instant::now() < until {
        last.clear();
        let at = Instant::now();
        for case in &ready.cases {
            last.push(case.traced()?);
        }
        traced_walls.push(ms(at.elapsed()));
    }
    let compute: f64 = last.iter().map(|t| ms(t.compute)).sum();
    let mut phase_ms = std::collections::BTreeMap::<&'static str, f64>::new();
    for (phase, wall) in last.iter().flat_map(|t| &t.phase_walls) {
        *phase_ms.entry(phase_metric(phase)).or_default() += ms(*wall);
    }
    if let Some(missing) = match workload {
        "mm_os" => Some("matmul.os_ms"),
        "mm_wco" => Some("matmul.wco_ms"),
        _ => None,
    }
    .filter(|m| !phase_ms.contains_key(m))
    {
        return Err(format!("{workload}: the trace shows no `{missing}` phase"));
    }

    let threads = crate::nproc().min(4);
    let run_mt_ms = median(&timed_passes(&ready, threads, part, report));

    // Reference evaluations, half a part each.
    let mut sequential = Vec::new();
    let until = Instant::now() + part / 2;
    while sequential.len() < 3 || Instant::now() < until {
        sequential.push(ready.cases.iter().map(|c| ms(c.sequential())).sum());
    }
    let mut baseline = Vec::new();
    let until = Instant::now() + part / 2;
    while baseline.len() < 2 || Instant::now() < until {
        let mut sum = 0.0;
        for case in &ready.cases {
            sum += ms(case.baseline()?);
        }
        baseline.push(sum);
    }

    if !(0.9..=1.1).contains(&(parts / run_ms)) {
        println!(
            "{workload}: WARNING: the replay's parts are {:.2} of the whole; \
             the per-layer times no longer cover `QueryEngine::run`",
            parts / run_ms
        );
    }
    let units: f64 = ready.costs.iter().map(|c| c.units as f64).sum();
    report.set("compiler.stats_ms", stats);
    report.set("compiler.select_ms", select);
    report.set("mpc.scatter_ms", scatter);
    report.set("mpc.gather_ms", gather);
    report.set("core.run_ms", run_ms);
    report.set("core.run_mt_ms", run_mt_ms);
    report.set("core.execute_ms", execute);
    report.set("core.audit_ms", audit);
    report.set("core.unattributed_ms", run_ms - parts);
    report.set("core.parts_over_whole", parts / run_ms);
    report.set("core.sim_over_sequential", run_ms / median(&sequential));
    report.set("mpc.compute_ms", compute);
    report.set("mpc.noncompute_ms", execute - compute);
    report.set(
        "mpc.exchange_events",
        last.iter().map(|t| t.exchange_events as f64).sum(),
    );
    report.set(
        "mpc.compute_spans",
        last.iter().map(|t| t.compute_spans as f64).sum(),
    );
    report.set("mpc.units_total", units);
    report.set("mpc.units_per_ms", units / execute);
    report.set("mpc.trace_overhead_ratio", median(&traced_walls) / run_ms);
    report.set("mpc.par_speedup", run_ms / run_mt_ms);
    report.set("yannakakis.sequential_ms", median(&sequential));
    report.set("yannakakis.baseline_ms", median(&baseline));
    for (name, value) in phase_ms {
        if !name.is_empty() {
            report.set(name, value);
        }
    }
    report.set("gen.samples", replays.len() as f64);
    println!(
        "{workload}: threads(1) pass {run_ms:.2} ms, threads({threads}) pass {run_mt_ms:.2} ms, \
         replay parts {parts:.2} ms"
    );
    Ok(())
}

/// The per-layer metric a trace phase label is credited to (layer =
/// module name); "" for phases no metric covers.
fn phase_metric(phase: &str) -> &'static str {
    if phase.ends_with("dangling removal") {
        "yannakakis.dangling_ms"
    } else if phase.ends_with("OUT estimation") {
        "sketch.estimate_ms"
    } else if phase.starts_with("matmul: §3.2") {
        "matmul.os_ms"
    } else if phase.starts_with("matmul: §3.1") {
        "matmul.wco_ms"
    } else if phase.starts_with("line:") {
        "joinagg.line_ms"
    } else if phase.starts_with("star:") || phase.starts_with("starlike:") {
        "joinagg.star_ms"
    } else if phase.starts_with("tree:") || phase.starts_with("twig:") {
        "joinagg.tree_ms"
    } else {
        ""
    }
}
