//! `delta_bench` — regenerate the incremental-evaluation ledger
//! (`mpcjoin-bench-delta-v1`, diffed by `mpcjoin-check bench` against
//! `results/BENCH_baseline_delta.json`).
//!
//! ```text
//! delta_bench [--servers P] [--seed S] [--out FILE] [--threads N]
//! ```
//!
//! Each case builds a seeded instance of one query shape, materializes
//! the view under its natural plan, applies one small seeded delta batch
//! through `QueryEngine::apply_delta`, and records the delta-path ledger
//! next to the full-recompute ledger on the updated instance. The run
//! itself re-checks bit-identity (patched view vs from-scratch
//! evaluation) and aborts on any divergence, so a committed baseline is
//! also a correctness witness.

use mpcjoin::mpc::hash::seeded_hash;
use mpcjoin::mpc::DetRng;
use mpcjoin::prelude::*;
use mpcjoin::query::{Edge, TreeQuery};
use mpcjoin::semiring::SumInt;
use mpcjoin::{workload, DeltaBatch, MaterializedView};
use mpcjoin_bench::{Artifact, DeltaBenchArtifact, DeltaBenchRecord};
use std::process::ExitCode;

struct Config {
    servers: usize,
    seed: u64,
    out: String,
}

fn parse_config() -> Result<Config, String> {
    let mut cfg = Config {
        servers: 8,
        seed: 7,
        out: "BENCH_delta.json".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--servers" => {
                cfg.servers = value("--servers")?
                    .parse()
                    .map_err(|_| "--servers expects a positive integer".to_string())?
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--out" => cfg.out = value("--out")?,
            // consumed by mpcjoin_bench::init_threads
            "--threads" => {
                value("--threads")?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: delta_bench [--servers P] [--seed S] [--out FILE] [--threads N]".into(),
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cfg)
}

/// Build a seeded batch over `inst`: `inserts`-many fresh unit rows per
/// edge (drawn from the per-column domains), plus — when `deletes` is
/// set — the withdrawal of one existing entry per edge, annotation and
/// all.
fn seeded_batch<S: Semiring>(
    rng: &mut DetRng,
    inst: &[Relation<S>],
    doms: &[(u64, u64)],
    inserts: usize,
    deletes: bool,
) -> DeltaBatch<S> {
    let mut batch = DeltaBatch::new(inst.len());
    for (k, (dom_l, dom_r)) in doms.iter().enumerate() {
        for _ in 0..inserts {
            let row = vec![rng.next_u64() % dom_l, rng.next_u64() % dom_r];
            batch.insert(k, row, S::one());
        }
        if deletes {
            let entries = inst[k].entries();
            let (row, annot) = &entries[(rng.next_u64() as usize) % entries.len()];
            batch.delete(k, row.clone(), annot.clone());
        }
    }
    batch
}

/// Run one case: recompute ledger on the updated instance, delta ledger
/// through `apply_delta`, and the bit-identity check between the two.
fn run_case<S: Semiring>(
    case: &str,
    semiring: &str,
    engine: &QueryEngine,
    q: &TreeQuery,
    inst: &[Relation<S>],
    plan: PlanKind,
    batch: &DeltaBatch<S>,
) -> Result<DeltaBenchRecord, String> {
    let fail = |e: MpcError| format!("case {case}: {e}");
    let updated = batch.apply_to(inst);
    let base = engine.run(q, &updated).map_err(fail)?;
    let mut view = MaterializedView::new(q, inst, plan).map_err(fail)?;
    let outcome = engine.apply_delta(&mut view, batch).map_err(fail)?;
    if view.output().entries() != base.output.canonical() {
        return Err(format!(
            "case {case}: patched view diverged from the from-scratch recompute"
        ));
    }
    Ok(DeltaBenchRecord {
        case: case.into(),
        plan: format!("{plan:?}"),
        semiring: semiring.into(),
        class: outcome.report.class.as_str().into(),
        delta_in: outcome.report.delta_in,
        delta_out: outcome.report.delta_out,
        base_load: base.cost.load,
        delta_load: outcome.result.cost.load,
    })
}

fn run() -> Result<String, String> {
    let cfg = parse_config()?;
    mpcjoin_bench::init_threads();
    let engine = QueryEngine::new(cfg.servers);
    let mut records = Vec::new();

    // mm: R0(A,B), R1(B,C) under the §3 plan, domains as in loadgen.
    let (a, b, c) = (Attr(0), Attr(1), Attr(2));
    let mm_q = TreeQuery::new(vec![Edge::binary(a, b), Edge::binary(b, c)], [a, c]);
    let mm_doms = [(12, 8), (8, 12)];
    let mm_inst = |seed: u64, tag: &str| {
        let mut rng = DetRng::seed_from_u64(seeded_hash(seed, &("delta-bench", tag)));
        let inst = workload::matrix::uniform::<Count>(&mut rng, (a, b, c), 48, 48, (12, 8, 12));
        (vec![inst.r1, inst.r2], rng)
    };

    {
        let (inst, mut rng) = mm_inst(cfg.seed, "mm/count");
        let batch = seeded_batch(&mut rng, &inst, &mm_doms, 2, true);
        records.push(run_case(
            "mm/count",
            "count",
            &engine,
            &mm_q,
            &inst,
            PlanKind::MatMul,
            &batch,
        )?);
    }
    {
        let mut rng = DetRng::seed_from_u64(seeded_hash(cfg.seed, &("delta-bench", "mm/sumint")));
        let mm = workload::matrix::uniform::<SumInt>(&mut rng, (a, b, c), 48, 48, (12, 8, 12));
        let inst = vec![mm.r1, mm.r2];
        let batch = seeded_batch(&mut rng, &inst, &mm_doms, 2, true);
        records.push(run_case(
            "mm/sumint",
            "sumint",
            &engine,
            &mm_q,
            &inst,
            PlanKind::MatMul,
            &batch,
        )?);
    }
    {
        let mut rng = DetRng::seed_from_u64(seeded_hash(cfg.seed, &("delta-bench", "mm/bool")));
        let mm = workload::matrix::uniform::<BoolRing>(&mut rng, (a, b, c), 48, 48, (12, 8, 12));
        let inst = vec![mm.r1, mm.r2];
        // Insert-only: incremental even without subtraction.
        let batch = seeded_batch(&mut rng, &inst, &mm_doms, 2, false);
        records.push(run_case(
            "mm/bool",
            "bool",
            &engine,
            &mm_q,
            &inst,
            PlanKind::MatMul,
            &batch,
        )?);
        // The same shape with a delete must take the deterministic rerun.
        let batch = seeded_batch(&mut rng, &inst, &mm_doms, 2, true);
        records.push(run_case(
            "mm/bool-fallback",
            "bool",
            &engine,
            &mm_q,
            &inst,
            PlanKind::MatMul,
            &batch,
        )?);
    }

    // line: a 3-hop chain under the §4 plan.
    {
        let mut rng = DetRng::seed_from_u64(seeded_hash(cfg.seed, &("delta-bench", "line")));
        let chain = workload::chain::uniform::<Count>(&mut rng, 3, 40, 10);
        let doms = vec![(10, 10); chain.rels.len()];
        let batch = seeded_batch(&mut rng, &chain.rels, &doms, 2, true);
        records.push(run_case(
            "line/count",
            "count",
            &engine,
            &chain.query,
            &chain.rels,
            PlanKind::Line,
            &batch,
        )?);

        let mut rng =
            DetRng::seed_from_u64(seeded_hash(cfg.seed, &("delta-bench", "line/minplus")));
        let chain = workload::chain::uniform::<TropicalMin>(&mut rng, 3, 40, 10);
        let batch = seeded_batch(&mut rng, &chain.rels, &doms, 2, false);
        records.push(run_case(
            "line/minplus",
            "minplus",
            &engine,
            &chain.query,
            &chain.rels,
            PlanKind::Line,
            &batch,
        )?);
    }

    // star: 3 arms around a shared hub under the §5 plan.
    {
        let mut rng = DetRng::seed_from_u64(seeded_hash(cfg.seed, &("delta-bench", "star")));
        let star = workload::star::uniform::<Count>(&mut rng, 3, 30, 8, 6);
        let doms = vec![(8, 6); star.rels.len()];
        let batch = seeded_batch(&mut rng, &star.rels, &doms, 2, true);
        records.push(run_case(
            "star/count",
            "count",
            &engine,
            &star.query,
            &star.rels,
            PlanKind::Star,
            &batch,
        )?);

        let mut rng = DetRng::seed_from_u64(seeded_hash(cfg.seed, &("delta-bench", "star/bool")));
        let star = workload::star::uniform::<BoolRing>(&mut rng, 3, 30, 8, 6);
        let batch = seeded_batch(&mut rng, &star.rels, &doms, 2, false);
        records.push(run_case(
            "star/bool",
            "bool",
            &engine,
            &star.query,
            &star.rels,
            PlanKind::Star,
            &batch,
        )?);
    }

    let artifact = DeltaBenchArtifact {
        seed: cfg.seed,
        servers: cfg.servers as u64,
        records,
    };
    for r in &artifact.records {
        println!(
            "  {:<16} {:<10} class {:<14} Δin {:>3}  Δout {:>4}  delta_load {:>6}  base_load {:>6}",
            r.case, r.semiring, r.class, r.delta_in, r.delta_out, r.delta_load, r.base_load
        );
    }
    std::fs::write(&cfg.out, artifact.to_json_string())
        .map_err(|e| format!("write {}: {e}", cfg.out))?;
    Ok(format!(
        "wrote {} ({} cases)",
        cfg.out,
        artifact.records.len()
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("delta_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
