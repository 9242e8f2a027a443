//! The experiments behind every table and figure (DESIGN.md §4 index).
//!
//! The Table-1 experiments return both a printable [`Table`] and the
//! machine-readable [`BenchRecord`]s behind its rows, so the harness can
//! write `BENCH_table1.json` for the `mpcjoin-check bench` regression differ.

use crate::artifact::BenchRecord;
use crate::table::{Cell, Table};
use mpcjoin::matmul::{hard, theory};
use mpcjoin::prelude::*;
use mpcjoin::workload::{chain, matrix, rng, star, trees};

/// The printed ratio/audit pair for a run: `measured/bound` under the
/// engine's own [`mpcjoin::BoundAuditor`], and its verdict.
fn audit_cells<S: Semiring>(r: &ExecutionResult<S>) -> [Cell; 2] {
    [
        Cell::Float(if r.audit.ratio.is_finite() {
            r.audit.ratio
        } else {
            0.0
        }),
        Cell::Text(if r.audit.within { "ok" } else { "VIOLATION" }.into()),
    ]
}

/// Run the planner's algorithm end to end. The workloads here are
/// constructed to match their queries, so engine errors are bugs.
fn execute<S: Semiring>(p: usize, q: &TreeQuery, rels: &[Relation<S>]) -> ExecutionResult<S> {
    QueryEngine::new(p)
        .run(q, rels)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Run the distributed Yannakakis baseline end to end.
fn execute_baseline<S: Semiring>(
    p: usize,
    q: &TreeQuery,
    rels: &[Relation<S>],
) -> ExecutionResult<S> {
    QueryEngine::new(p)
        .plan(PlanChoice::Baseline)
        .run(q, rels)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// One traced run of the Table-1 line query (the funnel family), for the
/// round-level trace artifact the harness writes next to the CSVs.
pub fn table1_line_trace(p: usize, scale: u64) -> Trace {
    let inst = chain::funnel::<Count>(8 * scale, 8, 4);
    let r = QueryEngine::new(p)
        .trace(true)
        .run(&inst.query, &inst.rels)
        .unwrap_or_else(|e| panic!("{e}"));
    r.trace.expect("tracing was enabled")
}

const A: Attr = Attr(0);
const B: Attr = Attr(1);
const C: Attr = Attr(2);

fn mm_query() -> TreeQuery {
    TreeQuery::new(vec![Edge::binary(A, B), Edge::binary(B, C)], [A, C])
}

/// **T1.mm** — Table 1, matrix multiplication row: measured load of the
/// baseline vs. the Theorem-1 algorithm while OUT sweeps at (roughly)
/// fixed N, for each p. `scale` shrinks the instances for smoke runs.
pub fn table1_mm(ps: &[usize], scale: u64) -> (Table, Vec<BenchRecord>) {
    let q = mm_query();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &p in ps {
        // Blocks: k blocks of side s with b-thickness 2 → N = 2·k·s·2,
        // OUT = k·s². Sweep s at N ≈ const by adjusting k.
        for side in [2u64, 8, 32, 96] {
            // N scales with p so every configuration sits inside the
            // model's N ≥ p^{1+ϵ} regime.
            let k = (96 * p as u64 * scale / (4 * side)).max(1);
            let inst = matrix::blocks::<Count>((A, B, C), k, side, 2);
            let n = inst.r1.len() as u64;
            let rels = [inst.r1, inst.r2];
            let new = execute(p, &q, &rels);
            let base = execute_baseline(p, &q, &rels);
            assert!(new.output.semantically_eq(&base.output));
            let [ratio, audit] = audit_cells(&new);
            rows.push(vec![
                Cell::Int(p as u64),
                Cell::Int(2 * n),
                Cell::Int(inst.out),
                Cell::Int(base.cost.load),
                Cell::Int(new.cost.load),
                Cell::Text(format!("{:?}", new.plan)),
                Cell::Float(theory::yannakakis_mm_bound(2 * n, inst.out, p as u64)),
                Cell::Float(theory::new_mm_bound(n, n, inst.out, p as u64)),
                Cell::Float(base.cost.load as f64 / new.cost.load.max(1) as f64),
                ratio,
                audit,
            ]);
            records.push(BenchRecord::from_run(
                "table1_mm",
                &format!("side={side}"),
                p,
                2 * n,
                inst.out,
                &new,
                base.cost.load,
            ));
        }
    }
    let table = Table {
        title: "Table 1 / matrix multiplication: load vs OUT (blocks workload)".into(),
        header: [
            "p",
            "N",
            "OUT",
            "base load",
            "new load",
            "plan",
            "base bound",
            "new bound",
            "speedup",
            "ratio",
            "audit",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    };
    (table, records)
}

/// **T1.mm.uneq** — Theorem 1 with unequal matrix sizes.
pub fn table1_mm_unequal(p: usize, scale: u64) -> (Table, Vec<BenchRecord>) {
    let q = mm_query();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for ratio in [1u64, 4, 16, 64] {
        let n2 = 256 * scale;
        let n1 = (n2 / ratio).max(2);
        let inst = matrix::uniform::<Count>(
            &mut rng(2024 + ratio),
            (A, B, C),
            n1 as usize,
            n2 as usize,
            (n1, (n1 / 4).max(4), n2),
        );
        let rels = [inst.r1, inst.r2];
        let new = execute(p, &q, &rels);
        let base = execute_baseline(p, &q, &rels);
        assert!(new.output.semantically_eq(&base.output));
        let [aratio, audit] = audit_cells(&new);
        rows.push(vec![
            Cell::Int(n1),
            Cell::Int(n2),
            Cell::Int(inst.out),
            Cell::Int(base.cost.load),
            Cell::Int(new.cost.load),
            Cell::Text(format!("{:?}", new.plan)),
            Cell::Float(theory::new_mm_bound(n1, n2, inst.out, p as u64)),
            aratio,
            audit,
        ]);
        records.push(BenchRecord::from_run(
            "table1_mm_unequal",
            &format!("ratio={ratio}"),
            p,
            n1 + n2,
            inst.out,
            &new,
            base.cost.load,
        ));
    }
    let table = Table {
        title: format!("Theorem 1 / unequal sizes (p = {p})"),
        header: [
            "N1",
            "N2",
            "OUT",
            "base load",
            "new load",
            "plan",
            "new bound",
            "ratio",
            "audit",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    };
    (table, records)
}

/// **T1.line** — Table 1, line row: 3-hop chains, fan-out sweep.
pub fn table1_line(p: usize, scale: u64) -> (Table, Vec<BenchRecord>) {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    // The funnel family: per group, k² join witnesses collapse onto m
    // outputs; sweeping k grows the baseline's intermediate join while
    // OUT stays fixed.
    for k in [2u64, 4, 8, 16] {
        let inst = chain::funnel::<Count>(8 * scale, k, 4);
        let n = inst.rels.iter().map(|r| r.len()).max().unwrap_or(0) as u64;
        let new = execute(p, &inst.query, &inst.rels);
        let base = execute_baseline(p, &inst.query, &inst.rels);
        assert!(new.output.semantically_eq(&base.output));
        let [ratio, audit] = audit_cells(&new);
        rows.push(vec![
            Cell::Int(n),
            Cell::Int(inst.out),
            Cell::Int(base.cost.load),
            Cell::Int(new.cost.load),
            Cell::Text(format!("{:?}", new.plan)),
            Cell::Float(theory::yannakakis_line_bound(n, inst.out, p as u64)),
            Cell::Float(theory::new_star_line_bound(n, inst.out, p as u64)),
            Cell::Float(base.cost.load as f64 / new.cost.load.max(1) as f64),
            ratio,
            audit,
        ]);
        records.push(BenchRecord::from_run(
            "table1_line",
            &format!("k={k}"),
            p,
            n,
            inst.out,
            &new,
            base.cost.load,
        ));
    }
    let table = Table {
        title: format!("Table 1 / line queries (3-hop funnel, p = {p})"),
        header: [
            "N/rel",
            "OUT",
            "base load",
            "new load",
            "plan",
            "base bound",
            "new bound",
            "speedup",
            "ratio",
            "audit",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    };
    (table, records)
}

/// **T1.star** — Table 1, star row: 3-arm stars, degree sweep.
pub fn table1_star(p: usize, scale: u64) -> (Table, Vec<BenchRecord>) {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    // The overlapping family: `centers` duplicate witnesses per output;
    // OUT = d³ stays fixed while the baseline's full join grows.
    for centers in [1u64, 4, 16, 64] {
        let inst = star::overlapping::<Count>(3, centers * scale, 8);
        let n = inst.rels[0].len() as u64;
        let new = execute(p, &inst.query, &inst.rels);
        let base = execute_baseline(p, &inst.query, &inst.rels);
        assert!(new.output.semantically_eq(&base.output));
        let [ratio, audit] = audit_cells(&new);
        rows.push(vec![
            Cell::Int(n),
            Cell::Int(inst.out),
            Cell::Int(base.cost.load),
            Cell::Int(new.cost.load),
            Cell::Text(format!("{:?}", new.plan)),
            Cell::Float(theory::yannakakis_star_bound(n, inst.out, p as u64, 3)),
            Cell::Float(theory::new_star_line_bound(n, inst.out, p as u64)),
            Cell::Float(base.cost.load as f64 / new.cost.load.max(1) as f64),
            ratio,
            audit,
        ]);
        records.push(BenchRecord::from_run(
            "table1_star",
            &format!("centers={centers}"),
            p,
            n,
            inst.out,
            &new,
            base.cost.load,
        ));
    }
    let table = Table {
        title: format!("Table 1 / star queries (3 arms, overlapping witnesses, p = {p})"),
        header: [
            "N/rel",
            "OUT",
            "base load",
            "new load",
            "plan",
            "base bound",
            "new bound",
            "speedup",
            "ratio",
            "audit",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    };
    (table, records)
}

/// **T1.tree** — Table 1, tree row: the Figure-3 twig, fan-out sweep.
pub fn table1_tree(p: usize, scale: u64) -> (Table, Vec<BenchRecord>) {
    let q = trees::figure3_query();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for centers in [2u64, 4, 8] {
        let inst = trees::overlapping_instance::<Count>(&q, centers * scale, 3);
        let n = inst.rels.iter().map(|r| r.len()).max().unwrap_or(0) as u64;
        let new = execute(p, &inst.query, &inst.rels);
        let base = execute_baseline(p, &inst.query, &inst.rels);
        assert!(new.output.semantically_eq(&base.output));
        let [ratio, audit] = audit_cells(&new);
        rows.push(vec![
            Cell::Int(n),
            Cell::Int(inst.out),
            Cell::Int(base.cost.load),
            Cell::Int(new.cost.load),
            Cell::Text(format!("{:?}", new.plan)),
            Cell::Float(theory::yannakakis_line_bound(n, inst.out, p as u64)),
            Cell::Float(theory::new_tree_bound(n, inst.out, p as u64)),
            ratio,
            audit,
        ]);
        records.push(BenchRecord::from_run(
            "table1_tree",
            &format!("centers={centers}"),
            p,
            n,
            inst.out,
            &new,
            base.cost.load,
        ));
    }
    let table = Table {
        title: format!("Table 1 / tree queries (Figure-3 twig, overlapping witnesses, p = {p})"),
        header: [
            "N/rel",
            "OUT",
            "base load",
            "new load",
            "plan",
            "base bound",
            "new bound",
            "ratio",
            "audit",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    };
    (table, records)
}

/// **LB.thm2 / LB.thm3** — the lower-bound instances: measured load of
/// Theorem 1's algorithm sandwiched between Ω and O.
pub fn lower_bounds(p: usize, scale: u64) -> Table {
    let mut rows = Vec::new();
    // Instance sizes scale with p to stay inside the N ≥ p^{1+ϵ} regime.
    let unit = p as u64 * scale;
    // Theorem 2 family.
    for n2 in [32 * unit, 128 * unit] {
        let inst = hard::theorem2_instance::<BoolRing>(A, B, C, 16, n2, p);
        let mut cluster = mpcjoin::mpc::Cluster::new(p);
        let (d1, d2) = hard::place(&cluster, &inst);
        let (out, _) = mpcjoin::matmul::matmul(&mut cluster, &d1, &d2);
        assert_eq!(out.gather().coalesce().len() as u64, inst.out);
        rows.push(vec![
            Cell::Text("Thm 2".into()),
            Cell::Int(inst.r1.len() as u64),
            Cell::Int(inst.r2.len() as u64),
            Cell::Int(inst.out),
            Cell::Float(hard::theorem2_bound(
                inst.r1.len() as u64,
                inst.r2.len() as u64,
                p as u64,
            )),
            Cell::Int(cluster.report().load),
            Cell::Float(theory::new_mm_bound(
                inst.r1.len() as u64,
                inst.r2.len() as u64,
                inst.out,
                p as u64,
            )),
        ]);
    }
    // Theorem 3 family: sweep OUT between N and N².
    let n = 24 * unit;
    for out in [n, n * 8, n * 64] {
        let inst = hard::theorem3_instance::<BoolRing>(A, B, C, n, n, out, p);
        let mut cluster = mpcjoin::mpc::Cluster::new(p);
        let (d1, d2) = hard::place(&cluster, &inst);
        let (result, _) = mpcjoin::matmul::matmul(&mut cluster, &d1, &d2);
        assert_eq!(result.gather().coalesce().len() as u64, inst.out);
        let (n1, n2) = (inst.r1.len() as u64, inst.r2.len() as u64);
        rows.push(vec![
            Cell::Text("Thm 3".into()),
            Cell::Int(n1),
            Cell::Int(n2),
            Cell::Int(inst.out),
            Cell::Float(theory::mm_lower_bound(n1, n2, inst.out, p as u64)),
            Cell::Int(cluster.report().load),
            Cell::Float(theory::new_mm_bound(n1, n2, inst.out, p as u64)),
        ]);
    }
    Table {
        title: format!("Lower-bound instances (p = {p}): Ω ≤ measured ≤ O"),
        header: [
            "instance", "N1", "N2", "OUT", "Ω bound", "measured", "O bound",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    }
}

/// **P.rounds** — constant-round verification across plans and sizes.
pub fn rounds_constancy(p: usize) -> Table {
    let mut rows = Vec::new();
    let q = mm_query();
    for scale in [1u64, 4, 16] {
        let inst = matrix::blocks::<Count>((A, B, C), 4 * scale, 8, 2);
        let r = execute(p, &q, &[inst.r1, inst.r2]);
        rows.push(vec![
            Cell::Text("matmul".into()),
            Cell::Int(scale),
            Cell::Int(r.cost.rounds),
            Cell::Int(r.cost.load),
        ]);
    }
    for scale in [1u64, 4, 16] {
        let inst = chain::layered::<Count>(3, 16 * scale, 2);
        let r = execute(p, &inst.query, &inst.rels);
        rows.push(vec![
            Cell::Text("line-3".into()),
            Cell::Int(scale),
            Cell::Int(r.cost.rounds),
            Cell::Int(r.cost.load),
        ]);
    }
    for scale in [1u64, 4, 16] {
        let inst = star::degree_profile::<Count>(3, 8 * scale, &[vec![2], vec![3], vec![4]]);
        let r = execute(p, &inst.query, &inst.rels);
        rows.push(vec![
            Cell::Text("star-3".into()),
            Cell::Int(scale),
            Cell::Int(r.cost.rounds),
            Cell::Int(r.cost.load),
        ]);
    }
    for scale in [1u64, 2, 4] {
        let q = trees::figure3_query();
        let inst = trees::layered_instance::<Count>(&q, 4 * scale, 2);
        let r = execute(p, &inst.query, &inst.rels);
        rows.push(vec![
            Cell::Text("tree-fig3".into()),
            Cell::Int(scale),
            Cell::Int(r.cost.rounds),
            Cell::Int(r.cost.load),
        ]);
    }
    Table {
        title: format!("Rounds are O(1): round counts across input scales (p = {p})"),
        header: ["plan", "scale", "rounds", "load"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// **P.kmv** — §2.2 estimator accuracy on line queries.
pub fn kmv_accuracy(p: usize) -> Table {
    use mpcjoin::mpc::{Cluster, DistRelation};
    use mpcjoin::sketch::estimate_out_chain_default;
    let mut rows = Vec::new();
    for (dom, fanout) in [(64u64, 1u64), (64, 4), (128, 8), (256, 16)] {
        let inst = chain::layered::<Count>(3, dom, fanout);
        let mut cluster = Cluster::new(p);
        let dist: Vec<DistRelation<Count>> = inst
            .rels
            .iter()
            .map(|r| DistRelation::scatter(&cluster, r))
            .collect();
        let est =
            estimate_out_chain_default(&mut cluster, &dist.iter().collect::<Vec<_>>(), &inst.attrs);
        rows.push(vec![
            Cell::Int(inst.rels[0].len() as u64),
            Cell::Int(inst.out),
            Cell::Int(est.total),
            Cell::Float(est.total as f64 / inst.out.max(1) as f64),
            Cell::Int(cluster.report().load),
        ]);
    }
    Table {
        title: format!("§2.2 KMV OUT-estimation accuracy (p = {p})"),
        header: ["N/rel", "exact OUT", "estimate", "ratio", "est. load"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// **Ablation** — Theorem 1's `min{·,·}`: force the §3.1 worst-case
/// algorithm and the §3.2 output-sensitive algorithm on the *same*
/// instances across the OUT sweep and show the crossover the dispatcher
/// exploits.
pub fn ablation_min_terms(p: usize, scale: u64) -> Table {
    use mpcjoin::matmul::{estimate_matmul_out, output_sensitive_matmul, wco_matmul};
    use mpcjoin::mpc::{Cluster, DistRelation};
    use mpcjoin::query::{Edge as QEdge, TreeQuery as TQ};
    use mpcjoin::yannakakis::remove_dangling;

    let q = TQ::new(vec![QEdge::binary(A, B), QEdge::binary(B, C)], [A, C]);
    let mut rows = Vec::new();
    for side in [2u64, 8, 32, 96] {
        let k = (1536 * scale / (4 * side)).max(1);
        let inst = matrix::blocks::<Count>((A, B, C), k, side, 2);
        let n = inst.r1.len() as u64;

        let run = |use_wco: bool| -> u64 {
            let mut cluster = Cluster::new(p);
            let d1 = DistRelation::scatter(&cluster, &inst.r1);
            let d2 = DistRelation::scatter(&cluster, &inst.r2);
            let reduced = remove_dangling(&mut cluster, &q, &[d1, d2]);
            let out = if use_wco {
                wco_matmul(&mut cluster, &reduced[0], &reduced[1])
            } else {
                let est = estimate_matmul_out(&mut cluster, &reduced[0], &reduced[1]);
                output_sensitive_matmul(&mut cluster, &reduced[0], &reduced[1], est)
            };
            assert_eq!(out.gather().coalesce().len() as u64, inst.out);
            cluster.report().load
        };

        let wco_load = run(true);
        let os_load = run(false);
        rows.push(vec![
            Cell::Int(2 * n),
            Cell::Int(inst.out),
            Cell::Int(wco_load),
            Cell::Int(os_load),
            Cell::Text(
                if wco_load <= os_load {
                    "§3.1"
                } else {
                    "§3.2"
                }
                .into(),
            ),
            Cell::Float(((n * n) as f64 / p as f64).sqrt()),
            Cell::Float(
                ((n as f64) * (n as f64) * (inst.out as f64)).cbrt() / (p as f64).powf(2.0 / 3.0),
            ),
        ]);
    }
    Table {
        title: format!("Ablation: Theorem 1's min-term crossover (p = {p})"),
        header: [
            "N",
            "OUT",
            "§3.1 load",
            "§3.2 load",
            "winner",
            "√(N1N2/p)",
            "(N1N2·OUT)^⅓/p^⅔",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    }
}

/// **Scaling** — load vs. `p` at a fixed instance: the output-sensitive
/// regime must scale like `p^{-2/3}` and the worst-case regime like
/// `p^{-1/2}`-dominated terms; the baseline scales like `p^{-1}` from a
/// much higher intercept.
pub fn p_scaling(scale: u64) -> Table {
    let q = mm_query();
    // N = 384·scale per relation; keep p ≤ √N so the N ≥ p^{1+ϵ} regime
    // (and the PSRS sampling term) stay satisfied.
    let inst = matrix::blocks::<Count>((A, B, C), 96 * scale, 16, 2);
    let rels = [inst.r1.clone(), inst.r2.clone()];
    let n = inst.r1.len() as u64;
    let mut rows = Vec::new();
    for p in [4usize, 16, 64] {
        let new = execute(p, &q, &rels);
        let base = execute_baseline(p, &q, &rels);
        rows.push(vec![
            Cell::Int(p as u64),
            Cell::Int(base.cost.load),
            Cell::Int(new.cost.load),
            Cell::Float(theory::new_mm_bound(n, n, inst.out, p as u64)),
        ]);
    }
    Table {
        title: format!("Load vs p at fixed N = {} and OUT = {}", 2 * n, inst.out),
        header: ["p", "base load", "new load", "new bound"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// **Fig.1–Fig.4** — the figure queries: decomposition facts plus an
/// end-to-end run of each.
pub fn figures(p: usize) -> Vec<Table> {
    use mpcjoin::query::{classify, decompose_twigs, plan_reduction, skeleton};
    let mut tables = Vec::new();

    // Figure 2: the tree splits into the expected twigs.
    let q2 = trees::figure2_query();
    let plan = plan_reduction(&q2);
    let twigs = decompose_twigs(&plan.reduced);
    let mut rows = Vec::new();
    for (i, t) in twigs.iter().enumerate() {
        rows.push(vec![
            Cell::Int(i as u64 + 1),
            Cell::Text(shape_name(&classify(&t.query)).into()),
            Cell::Int(t.query.edges().len() as u64),
            Cell::Int(t.query.output().len() as u64),
        ]);
    }
    tables.push(Table {
        title: "Figure 2: twig decomposition of the example tree".into(),
        header: ["twig", "shape", "relations", "outputs"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    });

    // Figure 3: the skeleton of the general twig.
    let q3 = trees::figure3_query();
    let sk = skeleton(&q3).expect("figure-3 twig has a skeleton");
    tables.push(Table {
        title: "Figure 3: skeleton of the general twig".into(),
        header: ["quantity", "value"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows: vec![
            vec![
                Cell::Text("V* (attrs in >2 relations)".into()),
                Cell::Text(format!("{:?}", sk.vstar)),
            ],
            vec![
                Cell::Text("S (leaves of T_S)".into()),
                Cell::Text(format!("{:?}", sk.s)),
            ],
            vec![
                Cell::Text("contracted star-like parts".into()),
                Cell::Text(format!(
                    "{:?}",
                    sk.contracted.iter().map(|c| c.b).collect::<Vec<_>>()
                )),
            ],
            vec![
                Cell::Text("skeleton edges".into()),
                Cell::Int(sk.skeleton_edges.len() as u64),
            ],
        ],
    });

    // Figures 1 & 4: end-to-end runs of the star-like query and the
    // general twig (exercising the subquery reductions they illustrate).
    let mut rows = Vec::new();
    for (name, q) in [
        ("Fig 1 star-like", {
            // Five arms around B, one of length 2 (the paper's T2).
            let b = Attr(40);
            TreeQuery::new(
                vec![
                    Edge::binary(b, Attr(0)),
                    Edge::binary(b, Attr(41)),
                    Edge::binary(Attr(41), Attr(1)),
                    Edge::binary(b, Attr(2)),
                    Edge::binary(b, Attr(3)),
                    Edge::binary(b, Attr(4)),
                ],
                [Attr(0), Attr(1), Attr(2), Attr(3), Attr(4)],
            )
        }),
        ("Fig 3/4 twig", q3.clone()),
    ] {
        let shape = shape_name(&classify(&q));
        // The overlapping-witness workload (Table 1's separation family).
        let inst = trees::overlapping_instance::<Count>(&q, 12, 4);
        let new = execute(p, &q, &inst.rels);
        let base = execute_baseline(p, &q, &inst.rels);
        assert!(new.output.semantically_eq(&base.output));
        rows.push(vec![
            Cell::Text(name.into()),
            Cell::Text(shape.into()),
            Cell::Int(inst.out),
            Cell::Int(base.cost.load),
            Cell::Int(new.cost.load),
        ]);
    }
    tables.push(Table {
        title: format!("Figures 1 & 4: reductions executed end to end (p = {p})"),
        header: ["query", "shape", "OUT", "base load", "new load"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    });

    tables
}

/// Short human name of a [`mpcjoin::query::Shape`].
fn shape_name(shape: &mpcjoin::query::Shape) -> &'static str {
    use mpcjoin::query::Shape;
    match shape {
        Shape::FreeConnex => "free-connex",
        Shape::MatMul { .. } => "matrix multiplication",
        Shape::Line { .. } => "line",
        Shape::Star { .. } => "star",
        Shape::StarLike(_) => "star-like",
        Shape::Twig => "general twig",
        Shape::General => "general tree",
    }
}
