//! `mpcjoin-check` — the one document checker: validate a trace export,
//! reconcile a server's operational log, or diff a bench ledger against
//! its committed baseline. Used by CI after every job that writes one.
//!
//! ```text
//! mpcjoin-check trace TRACE.json
//! mpcjoin-check obs   LOG.jsonl [--stats STATS.json] [--bench BENCH.json]
//! mpcjoin-check bench BASELINE.json FRESH.json [--tol FRAC]
//! ```
//!
//! A thin dispatcher: each subcommand reads its files and calls the
//! library function that lives beside the code that *writes* the schema
//! — [`mpcjoin::mpc::trace::validate`] (`mpcjoin-trace-v3`),
//! [`mpcjoin_server::obs::check`] (`mpcjoin-log-v1` against
//! `mpcjoin-serverstats-v1` and `mpcjoin-bench-server-v1`), and
//! [`mpcjoin_bench::artifact::diff`] (the three `mpcjoin-bench-*`
//! ledgers; `--tol`, default 0.05, is the band a measured load may
//! exceed its baseline by) — so what each one checks is documented
//! there. Exits 0 and prints the checker's notes when the documents are
//! consistent; exits nonzero with every discrepancy on stderr, each
//! line prefixed `mpcjoin-check <sub>:`.
//!
//! `selector_check` (in `crates/bench`) is deliberately not a
//! subcommand: it *runs the engine* over the Table-1 grid, like `chaos`
//! and `differential`, and shares no code with the document checkers.

use std::process::ExitCode;

const USAGE: &str = "usage: mpcjoin-check <subcommand> ...
  trace TRACE.json
  obs   LOG.jsonl [--stats STATS.json] [--bench BENCH.json]
  bench BASELINE.json FRESH.json [--tol FRAC]";

type Outcome = Result<Vec<String>, Vec<String>>;

/// Split `args` into positionals and the values of `flags` (each takes
/// one value; `None` when absent), requiring `positionals` of the former.
fn parse(
    args: &[String],
    positionals: usize,
    flags: &[&str],
) -> Result<(Vec<String>, Vec<Option<String>>), Vec<String>> {
    let misuse = |what: String| vec![what, USAGE.to_string()];
    let mut paths = Vec::new();
    let mut values = vec![None; flags.len()];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match flags.iter().position(|f| f == arg) {
            Some(i) => match it.next() {
                Some(value) => values[i] = Some(value.clone()),
                None => return Err(misuse(format!("{arg} needs a value"))),
            },
            None if arg.starts_with('-') => return Err(misuse(format!("unexpected flag `{arg}`"))),
            None => paths.push(arg.clone()),
        }
    }
    if paths.len() != positionals {
        return Err(misuse(format!(
            "expected {positionals} file argument(s), got {}",
            paths.len()
        )));
    }
    Ok((paths, values))
}

fn read(path: &str) -> Result<String, Vec<String>> {
    std::fs::read_to_string(path).map_err(|e| vec![format!("cannot read `{path}`: {e}")])
}

fn trace(args: &[String]) -> Outcome {
    let (paths, _) = parse(args, 1, &[])?;
    mpcjoin::mpc::trace::validate(&read(&paths[0])?)
        .map(|summary| vec![summary])
        .map_err(|e| vec![format!("{}: {e}", paths[0])])
}

fn obs(args: &[String]) -> Outcome {
    let (paths, flags) = parse(args, 1, &["--stats", "--bench"])?;
    let optional = |path: &Option<String>| path.as_deref().map(read).transpose();
    let (stats, bench) = (optional(&flags[0])?, optional(&flags[1])?);
    let mut notes =
        mpcjoin_server::obs::check(&read(&paths[0])?, stats.as_deref(), bench.as_deref())?;
    notes.push("OK".into());
    Ok(notes)
}

fn bench(args: &[String]) -> Outcome {
    let (paths, flags) = parse(args, 2, &["--tol"])?;
    let tol = match &flags[0] {
        None => 0.05,
        Some(v) => v
            .parse()
            .map_err(|_| vec!["--tol expects a fraction, e.g. 0.05".to_string()])?,
    };
    mpcjoin_bench::artifact::diff(&read(&paths[0])?, &read(&paths[1])?, tol)
        .map(|summary| vec![summary])
        .map_err(|mut errors| {
            errors.insert(
                0,
                format!("{} regression(s) vs {}:", errors.len(), paths[0]),
            );
            errors
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, run): (&str, fn(&[String]) -> Outcome) = match args.first().map(String::as_str) {
        Some("trace") => ("trace", trace),
        Some("obs") => ("obs", obs),
        Some("bench") => ("bench", bench),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args[1..]) {
        Ok(notes) => {
            for note in notes {
                println!("mpcjoin-check {sub}: {note}");
            }
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in errors {
                eprintln!("mpcjoin-check {sub}: {e}");
            }
            ExitCode::FAILURE
        }
    }
}
