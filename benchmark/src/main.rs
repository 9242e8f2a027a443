//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! mpcjoin-benchmark --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>]
//! mpcjoin-benchmark --selfcheck [--seed <u64>] [--seconds <s>]
//! ```
//!
//! One workload per process: the last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`). `--workload all` and
//! `--selfcheck` run each workload in a child process of its own, so
//! one workload's peak memory never shows up in another's.

mod engine;
mod gen;
mod layers;
mod metrics;
mod serve;
mod sizes;

use metrics::{median, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};

/// Seconds a run measures when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` (peak resident set) of process `pid`, MiB; 0 if unreadable.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn workloads() -> Vec<&'static str> {
    engine::WORKLOADS
        .into_iter()
        .chain(serve::WORKLOADS)
        .collect()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects a u64")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds expects a number in (0, 60]")?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.selfcheck {
        let name = args
            .workload
            .as_deref()
            .ok_or("--workload <name|all> is required")?;
        if name != "all" && !workloads().contains(&name) {
            return Err(format!(
                "unknown workload `{name}` (one of {:?} or all)",
                workloads()
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.selfcheck {
        selfcheck(&args)
    } else if args.workload.as_deref() == Some("all") {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in this process and print its result line.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    println!(
        "{name}: seed {} for {} s, trace {}, nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        nproc()
    );
    // A run often follows a build, and on a two-core machine the
    // kernel writing the build's dirty pages back slows the first
    // twenty seconds of measurement by a tenth. Flush them first; when
    // nothing is dirty this takes milliseconds. Best effort.
    let _ = Command::new("sync").status();
    let run = if engine::WORKLOADS.contains(&name) {
        engine::run
    } else {
        serve::run
    };
    let report = run(name, args.seed, args.seconds, args.traced);
    for e in &report.errors {
        eprintln!("{name}: FAILED: {e}");
    }
    println!("{}", report.result_line(args.traced));
    Ok(report.correct())
}

/// Run one workload in a child process and parse its result line. A
/// child that exits nonzero is incorrect whatever it printed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<layers::ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    let mut result = layers::parse_result_line(last)?;
    result.correct &= out.status.success();
    Ok(result)
}

/// Every workload, untraced then traced, as one table per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for name in workloads() {
        for traced in [false, true] {
            let r = run_child(name, args.seed, args.seconds, traced)?;
            ok &= r.correct;
            println!(
                "{name} ({}): correct {}, attempted {}, failed {}",
                if traced { "per layer" } else { "end to end" },
                r.correct,
                r.attempted,
                r.failed
            );
            for (metric, value) in &r.metrics {
                let unit = END_TO_END
                    .iter()
                    .map(|&(n, u, _, _)| (n, u))
                    .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
                    .find(|(n, _)| n == metric)
                    .map_or("", |(_, u)| u);
                if *value != 0.0 {
                    println!("  {metric:<28} {value:>14.4} {unit}");
                }
            }
        }
    }
    Ok(ok)
}

/// Run the untraced set twice with `--seed` and once with the next seed;
/// print each end-to-end metric's spread (max − min over median) against
/// its bound; fail if a spread other than set-up's leaves its bound, the
/// same-seed runs disagree on the ledger, a run is incorrect, or
/// `BENCHMARK.json` no longer declares what the code reports.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = declarations_agree()?;
    println!("| workload | metric | run 1 | run 2 | other seed | spread | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    for name in workloads() {
        let runs = [
            run_child(name, args.seed, args.seconds, false)?,
            run_child(name, args.seed, args.seconds, false)?,
            run_child(name, args.seed + 1, args.seconds, false)?,
        ];
        if let Some(bad) = runs.iter().find(|r| !r.correct) {
            println!(
                "| {name} | incorrect run: {} of {} failed | | | | | | FAIL |",
                bad.failed, bad.attempted
            );
            ok = false;
        }
        for &(metric, _, _, bound) in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
                .collect();
            if values.len() != runs.len() {
                return Err(format!("{name}: a run did not report `{metric}`"));
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let spread = (hi - lo) / median(&values);
            // The ledger is exact: the two same-seed runs must agree to
            // the unit. Like the driver, judge every spread but set-up's.
            let exact = !metric.starts_with("mpc_") || values[0] == values[1];
            let within = (spread <= bound || metric == "setup_s") && exact;
            ok &= within;
            println!(
                "| {name} | {metric} | {:.4} | {:.4} | {:.4} | {:.1} % | {:.0} % | {} |",
                values[0],
                values[1],
                values[2],
                spread * 100.0,
                bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

/// `BENCHMARK.json` must declare exactly the metrics, units, directions
/// and bounds of [`END_TO_END`] and [`PER_LAYER`], and the six workloads.
fn declarations_agree() -> Result<bool, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (end_to_end, per_layer) = layers::declared_metrics(&text)?;
    let code_e2e: Vec<layers::DeclaredMetric> = END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| layers::DeclaredMetric {
            name: name.into(),
            unit: unit.into(),
            better: better.into(),
            bound: Some(bound),
        })
        .collect();
    let code_layers: Vec<layers::DeclaredMetric> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| layers::DeclaredMetric {
            name: name.into(),
            unit: unit.into(),
            better: better.into(),
            bound: None,
        })
        .collect();
    let agree = end_to_end == code_e2e && per_layer == code_layers;
    if !agree {
        println!("BENCHMARK.json and benchmark/src/metrics.rs declare different metrics");
    }
    Ok(agree)
}
