//! `mpcjoin-cli` — run a join-aggregate query over TSV files on the
//! simulated MPC cluster.
//!
//! ```text
//! mpcjoin-cli \
//!   --query 'Q(user, topic) :- Follows(user, community), About(community, topic)' \
//!   --input Follows=follows.tsv --input About=about.tsv \
//!   --servers 16 --semiring count --baseline --limit 20
//! ```
//!
//! Input files are 2- or 3-column delimited text (tab/comma/space); the
//! optional third column is an integer weight whose meaning depends on
//! `--semiring`:
//!
//! * `count` (default) — multiplicity; weights multiply along joins and
//!   add across groups,
//! * `bool` — existence (weights ignored),
//! * `minplus` — edge costs; outputs carry shortest combined cost,
//! * `mincount` — shortest cost plus the number of ways to achieve it.
//!
//! Prints the decoded output rows, the chosen plan, the measured MPC
//! cost (load / rounds / traffic), and the bound-audit verdict;
//! `--baseline` also runs the distributed Yannakakis algorithm for
//! comparison. `--format json` emits a machine-readable run summary
//! (schema `mpcjoin-result-v1`, including the audit verdict) instead of
//! the human-readable report; when the run fails, it emits a structured
//! error frame instead (`{"schema":"mpcjoin-wire-v1","type":"error",
//! "code":…,"detail":…}`, the same shape `mpcjoin-serve` sends on the
//! wire) and exits nonzero, so clients can branch on the failure mode. `--trace FILE` records a round-level
//! execution trace and writes it to `FILE` as JSON with the audit
//! verdict and any recovery report embedded (schema `mpcjoin-trace-v3`,
//! see `mpcjoin_mpc::trace`), and `--metrics FILE` writes the run's
//! metrics snapshot (schema `mpcjoin-metrics-v1`, see
//! `mpcjoin_mpc::metrics`) — a fold over the same trace, so `--metrics`
//! alone records one too.
//!
//! `--plan NAME` selects the planning mode: `auto` (the default) runs
//! cost-based selection over every applicable algorithm, `heuristic` the
//! pre-compiler structural dispatch, `baseline` the distributed
//! Yannakakis comparison point, and a concrete algorithm name
//! (`matmul|line|star|starlike|tree|yannakakis|cec`) forces it.
//! `--explain [FILE]` compiles the query without executing it and emits
//! the `mpcjoin-plan-v1` JSON document — chosen plan, every priced
//! alternative with its Table-1 bound, and the lowered operator DAG — to
//! `FILE`, or to stdout when no file is given.
//!
//! `--fault-plan FILE` loads a deterministic fault schedule (schema
//! `mpcjoin-faultplan-v1`, see `mpcjoin_mpc::fault`) and injects it into
//! the run; the engine recovers transparently — output and measured
//! costs stay bit-identical to the fault-free run — and the recovery
//! summary is printed (and embedded in the `--trace` / `--format json`
//! artifacts). `--fault-seed N` overrides the plan's RNG seed, for
//! sweeping schedules. Faults apply to the main run only, never to the
//! `--baseline` comparison run.

use mpcjoin::mpc::json::Json;
use mpcjoin::prelude::*;
use mpcjoin::query::{parse_query, ParsedQuery};
use mpcjoin::workload::io::{read_relation, render_output, StringDict};
use std::path::PathBuf;
use std::process::ExitCode;

/// What a CLI run can fail with: a structured engine error, a query
/// syntax error, or an environment problem (I/O, bindings, flags). In
/// `--format json` mode every variant is emitted as a schema-tagged
/// error frame (the same shape the `mpcjoin-serve` wire protocol uses —
/// see `mpcjoin::mpc::ERROR_FRAME_SCHEMA`) with a machine-readable
/// `code`, so scripts can branch on the failure mode; the exit code is
/// nonzero either way.
enum CliError {
    /// An engine boundary error; carries its own `MpcError::code()`.
    Mpc(MpcError),
    /// The query text did not parse.
    Query(String),
    /// A well-formed invocation naming something unknown (the wire's
    /// `bad_request`).
    BadRequest(String),
    /// Anything else: missing files, bad bindings, serialization.
    Other(String),
}

impl CliError {
    fn code(&self) -> &'static str {
        match self {
            CliError::Mpc(e) => e.code(),
            CliError::Query(_) => "bad_query",
            CliError::BadRequest(_) => "bad_request",
            CliError::Other(_) => "cli",
        }
    }

    fn detail(&self) -> String {
        match self {
            CliError::Mpc(e) => e.to_string(),
            CliError::Query(msg) | CliError::BadRequest(msg) | CliError::Other(msg) => msg.clone(),
        }
    }

    /// The structured error frame for `--format json` mode.
    fn to_frame(&self) -> Json {
        match self {
            CliError::Mpc(e) => e.to_error_frame(),
            _ => Json::Obj(vec![
                (
                    "schema".into(),
                    Json::Str(mpcjoin::mpc::ERROR_FRAME_SCHEMA.into()),
                ),
                ("type".into(), Json::Str("error".into())),
                ("code".into(), Json::Str(self.code().into())),
                ("detail".into(), Json::Str(self.detail())),
            ]),
        }
    }
}

impl From<MpcError> for CliError {
    fn from(e: MpcError) -> CliError {
        CliError::Mpc(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Other(msg)
    }
}

struct Args {
    query: String,
    inputs: Vec<(String, PathBuf)>,
    servers: usize,
    threads: usize,
    semiring: String,
    plan: PlanChoice,
    baseline: bool,
    limit: usize,
    dot: bool,
    /// `Some(None)` = explain to stdout, `Some(Some(path))` = to a file.
    explain: Option<Option<PathBuf>>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    json: bool,
    fault_plan: Option<PathBuf>,
    fault_seed: Option<u64>,
}

fn usage() -> &'static str {
    "usage: mpcjoin-cli --query '<head> :- <body>' --input NAME=FILE [--input NAME=FILE …]\n\
     \x20      [--servers P] [--threads N] [--semiring count|bool|minplus|mincount]\n\
     \x20      [--plan auto|costbased|heuristic|baseline|yannakakis|matmul|line|star|starlike|tree|cec]\n\
     \x20      [--baseline] [--limit N] [--dot] [--explain [FILE]] [--format text|json]\n\
     \x20      [--trace FILE] [--metrics FILE] [--fault-plan FILE] [--fault-seed N]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        query: String::new(),
        inputs: Vec::new(),
        servers: 16,
        threads: mpcjoin::mpc::exec::available_threads(),
        semiring: "count".to_string(),
        plan: PlanChoice::default(),
        baseline: false,
        limit: 20,
        dot: false,
        explain: None,
        trace: None,
        metrics: None,
        json: false,
        fault_plan: None,
        fault_seed: None,
    };
    // Indexed rather than iterator-driven so `--explain` can take an
    // *optional* FILE operand (present iff the next word is not a flag).
    fn take(argv: &[String], i: &mut usize, name: &str) -> Result<String, String> {
        let v = argv
            .get(*i)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value\n{}", usage()))?;
        *i += 1;
        Ok(v)
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        let mut value = |name: &str| take(&argv, &mut i, name);
        match flag.as_str() {
            "--explain" => {
                args.explain = Some(match argv.get(i) {
                    Some(next) if !next.starts_with("--") => {
                        let path = PathBuf::from(next);
                        i += 1;
                        Some(path)
                    }
                    _ => None,
                });
            }
            "--plan" => {
                args.plan =
                    mpcjoin::parse_plan_choice(&value("--plan")?).map_err(|e| e.to_string())?
            }
            "--query" => args.query = value("--query")?,
            "--input" => {
                let v = value("--input")?;
                let Some((name, path)) = v.split_once('=') else {
                    return Err(format!("--input expects NAME=FILE, got `{v}`"));
                };
                args.inputs.push((name.to_string(), PathBuf::from(path)));
            }
            "--servers" => {
                args.servers = value("--servers")?
                    .parse()
                    .map_err(|_| "--servers expects a positive integer".to_string())?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?
            }
            "--semiring" => args.semiring = value("--semiring")?,
            "--baseline" => args.baseline = true,
            "--limit" => {
                args.limit = value("--limit")?
                    .parse()
                    .map_err(|_| "--limit expects an integer".to_string())?
            }
            "--dot" => args.dot = true,
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics")?)),
            "--fault-plan" => args.fault_plan = Some(PathBuf::from(value("--fault-plan")?)),
            "--fault-seed" => {
                args.fault_seed = Some(
                    value("--fault-seed")?
                        .parse()
                        .map_err(|_| "--fault-seed expects a non-negative integer".to_string())?,
                )
            }
            "--format" => {
                args.json = match value("--format")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("--format expects text|json, got `{other}`")),
                }
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.query.is_empty() {
        return Err(format!("--query is required\n{}", usage()));
    }
    if args.servers == 0 {
        return Err("--servers must be at least 1".to_string());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if args.fault_seed.is_some() && args.fault_plan.is_none() {
        return Err("--fault-seed needs a --fault-plan to override".to_string());
    }
    Ok(args)
}

/// Load `--fault-plan` (applying any `--fault-seed` override), or `None`
/// when no plan was requested.
fn load_fault_plan(args: &Args) -> Result<Option<FaultPlan>, CliError> {
    let Some(path) = &args.fault_plan else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Keep the path in the message but preserve the structured error (and
    // therefore its `invalid_fault_plan` code) for `--format json`.
    let mut plan = FaultPlan::from_json(&text).map_err(|e| {
        CliError::Mpc(match e {
            MpcError::InvalidFaultPlan(m) => {
                MpcError::InvalidFaultPlan(format!("{}: {m}", path.display()))
            }
            other => other,
        })
    })?;
    if let Some(seed) = args.fault_seed {
        plan = plan.with_seed(seed);
    }
    Ok(Some(plan))
}

/// One CLI run, generic over the semiring `--semiring` names.
struct Run<'a> {
    args: &'a Args,
    parsed: &'a ParsedQuery,
}

impl mpcjoin::SemiringVisitor for Run<'_> {
    type Out = Result<(), CliError>;

    fn visit<S: Semiring>(self, weight: fn(Option<i64>) -> S) -> Self::Out {
        run_semiring(self.args, self.parsed, weight)
    }
}

fn run_semiring<S: Semiring>(
    args: &Args,
    parsed: &ParsedQuery,
    weight: fn(Option<i64>) -> S,
) -> Result<(), CliError> {
    // Bind input files to the body atoms by relation name.
    let mut dict = StringDict::new();
    let mut rels: Vec<Relation<S>> = Vec::new();
    for (i, name) in parsed.relation_names.iter().enumerate() {
        let path = args
            .inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p)
            .ok_or_else(|| format!("no --input binding for relation `{name}`"))?;
        let edge = &parsed.query.edges()[i];
        let (x, y) = match edge.attrs() {
            [x, y] => (*x, *y),
            [x] => (*x, *x), // unary handled below
            _ => unreachable!(),
        };
        let rel = if edge.is_binary() {
            read_relation(path, x, y, &mut dict, weight).map_err(|e| e.to_string())?
        } else {
            // Unary relation: single-column file.
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut rel = Relation::empty(Schema::unary(x));
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let mut fields = line.split_whitespace();
                let v = fields.next().expect("non-empty line");
                let weight_field = fields
                    .next()
                    .map(|f| {
                        f.parse::<i64>()
                            .map_err(|_| format!("{}: bad weight `{f}`", path.display()))
                    })
                    .transpose()?;
                rel.push(vec![dict.encode(v)], weight(weight_field));
            }
            rel
        };
        rels.push(rel);
    }

    let mut engine = QueryEngine::new(args.servers)
        .threads(args.threads)
        .plan(args.plan)
        .trace(args.trace.is_some() || args.metrics.is_some());
    if let Some(plan) = load_fault_plan(args)? {
        engine = engine.faults(plan);
    }

    // `--explain`: compile only — emit the mpcjoin-plan-v1 document
    // (chosen plan, priced alternatives, lowered operator DAG) and skip
    // execution.
    if let Some(target) = &args.explain {
        let ex = engine.explain(&parsed.query, &rels)?;
        let text = ex
            .to_json(Some(&parsed.names))
            .to_string_compact()
            .map_err(|e| format!("explain document: {e}"))?;
        match target {
            Some(path) => {
                std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                if !args.json {
                    println!(
                        "explain: chose {:?} among {} candidates, written to {}",
                        ex.chosen,
                        ex.candidates.len(),
                        path.display()
                    );
                }
            }
            None => println!("{text}"),
        }
        return Ok(());
    }

    let result = engine.run(&parsed.query, &rels)?;
    if args.json {
        let text = result
            .to_json()
            .to_string_compact()
            .map_err(|e| format!("result summary: {e}"))?;
        println!("{text}");
    } else {
        println!(
            "servers: {}   threads: {}   {result}",
            args.servers, args.threads
        );
        println!("output ({} rows):", result.output.len());
        print!("{}", render_output(&result.output, &dict, args.limit));
        if let Some(report) = &result.recovery {
            println!("fault plane: {report}");
        }
    }

    if let Some(path) = &args.trace {
        let trace = result.trace.as_ref().expect("tracing was enabled");
        std::fs::write(
            path,
            trace.to_json(
                Some(&result.audit.to_json()),
                result.recovery.as_ref(),
                None,
            ),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        if !args.json {
            let report = trace.report();
            println!(
                "trace: {} events, {} phases, written to {}",
                trace.events.len(),
                report.per_phase.len(),
                path.display()
            );
            if let Some(critical) = &report.critical {
                println!(
                    "critical cell: server {} in round {} received {} units during `{}`",
                    critical.server, critical.round, critical.units, critical.label
                );
            }
        }
    }

    if let Some(path) = &args.metrics {
        let trace = result.trace.as_ref().expect("tracing was enabled");
        let snap = trace.metrics(result.recovery.as_ref());
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        if !args.json {
            println!(
                "metrics: received p50 {} / p95 {} / max {} units (skew {:.2}), written to {}",
                snap.received.p50,
                snap.received.p95,
                snap.received.max,
                snap.received.skew,
                path.display()
            );
        }
    }

    if args.baseline {
        let base = QueryEngine::new(args.servers)
            .threads(args.threads)
            .plan(PlanChoice::Baseline)
            .run(&parsed.query, &rels)?;
        let agree = base.output.semantically_eq(&result.output);
        if args.json {
            // A second result document on its own line (JSON-lines style).
            let text = base
                .to_json()
                .to_string_compact()
                .map_err(|e| format!("baseline summary: {e}"))?;
            println!("{text}");
        } else {
            println!(
                "baseline (distributed Yannakakis): load: {}   rounds: {}   traffic: {}   outputs agree: {}",
                base.cost.load, base.cost.rounds, base.cost.total_units, agree
            );
        }
    }
    Ok(())
}

/// Report a failed run and pick the exit code: a structured JSONL error
/// frame on stdout in `--format json` mode (so clients always receive
/// exactly one machine-readable document per run, success or not), prose
/// on stderr otherwise. Nonzero exit either way.
fn fail(json: bool, e: &CliError) -> ExitCode {
    if json {
        println!("{}", e.to_frame().to_string_sanitized());
        eprintln!("{}", e.detail());
    } else {
        eprintln!("{}", e.detail());
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match parse_query(&args.query) {
        Ok(p) => p,
        Err(e) => return fail(args.json, &CliError::Query(e.to_string())),
    };
    if args.dot {
        print!(
            "{}",
            mpcjoin::query::to_dot(&parsed.query, Some(&parsed.names))
        );
        return ExitCode::SUCCESS;
    }
    mpcjoin::mpc::exec::set_default_threads(args.threads);

    let run = Run {
        args: &args,
        parsed: &parsed,
    };
    match mpcjoin::with_semiring(&args.semiring, run)
        .unwrap_or_else(|detail| Err(CliError::BadRequest(detail)))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(args.json, &e),
    }
}
