//! Wall-clock benchmarks of the §2.1 primitives themselves: simulator
//! throughput for sort / reduce / multi-search / packing and the
//! skew-optimal two-way join, across input sizes. Plain `main` timing
//! loop (no external harness); run with
//! `cargo bench --bench primitives [-- --threads N]`.
//!
//! The timings are printed only; the machine-readable
//! `BENCH_microbench.json` artifact (schema `mpcjoin-bench-v1`) is a
//! ledger like every other: per primitive and input size, the measured
//! MPC load next to its `O(N/p)`-style bound.

use mpcjoin::mpc::primitives::reduce::reduce_by_key;
use mpcjoin::mpc::primitives::scan::parallel_packing;
use mpcjoin::mpc::primitives::search::multi_search;
use mpcjoin::mpc::primitives::sort::sort_by_key;
use mpcjoin::mpc::{join::full_join, Cluster, DistRelation};
use mpcjoin::prelude::*;
use mpcjoin_bench::{emit_json, BenchArtifact, BenchRecord};

const P: usize = 16;

/// Minimal timing loop: run `f` once to warm up, then `iters` timed
/// repetitions, and print the best and mean wall-clock per iteration.
/// The closure's return value is consumed so the computation cannot be
/// optimized away.
fn bench_case<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = std::time::Instant::now();
        let out = f();
        samples.push(start.elapsed());
        std::hint::black_box(&out);
    }
    let best = samples.iter().min().copied().unwrap_or_default();
    let mean = samples.iter().sum::<std::time::Duration>() / iters.max(1);
    println!("{name:<48} best {best:>10.3?}   mean {mean:>10.3?}   ({iters} iters)");
}

/// Build one artifact row from a primitive's measured (load, out) and
/// its linear-per-server bound, mirroring the engine auditor's
/// `measured ≤ slack·bound + p` rule (slack 4, additive p).
fn record(
    experiment: &str,
    workload: String,
    n: u64,
    out: u64,
    load: u64,
    bound: f64,
) -> BenchRecord {
    BenchRecord {
        experiment: experiment.to_string(),
        workload,
        p: P as u64,
        n,
        out,
        base_load: 0,
        load,
        bound,
        ratio: if bound > 0.0 {
            load as f64 / bound
        } else {
            0.0
        },
        within: (load as f64) <= 4.0 * bound + P as f64,
        threads: mpcjoin::mpc::exec::default_threads() as u64,
    }
}

fn bench_sort(records: &mut Vec<BenchRecord>) {
    for n in [1_000u64, 10_000, 50_000] {
        let items: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();
        let run = || {
            let mut cluster = Cluster::new(P);
            let data = cluster.scatter_initial(items.clone());
            let out = sort_by_key(&mut cluster, data, |x| *x).total_len();
            (out, cluster.report().load)
        };
        let (out, load) = run();
        bench_case(&format!("primitive_sort/{n}"), 10, || run().1);
        records.push(record(
            "primitive_sort",
            format!("n={n}"),
            n,
            out as u64,
            load,
            n as f64 / P as f64,
        ));
    }
}

fn bench_reduce(records: &mut Vec<BenchRecord>) {
    for n in [1_000u64, 10_000, 50_000] {
        let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i % (n / 10 + 1), 1)).collect();
        let run = || {
            let mut cluster = Cluster::new(P);
            let data = cluster.scatter_initial(pairs.clone());
            let out = reduce_by_key(&mut cluster, data, |a, b| *a += b).total_len();
            (out, cluster.report().load)
        };
        let (out, load) = run();
        bench_case(&format!("primitive_reduce_by_key/{n}"), 10, || run().1);
        records.push(record(
            "primitive_reduce_by_key",
            format!("n={n}"),
            n,
            out as u64,
            load,
            n as f64 / P as f64,
        ));
    }
}

fn bench_multi_search(records: &mut Vec<BenchRecord>) {
    for n in [1_000u64, 10_000] {
        let run = || {
            let mut cluster = Cluster::new(P);
            let cat =
                cluster.scatter_initial((0..n).step_by(2).map(|k| (k, k)).collect::<Vec<_>>());
            let qs = cluster.scatter_initial((0..n).collect::<Vec<_>>());
            let out = multi_search(&mut cluster, qs, |q| *q, cat).total_len();
            (out, cluster.report().load)
        };
        let (out, load) = run();
        bench_case(&format!("primitive_multi_search/{n}"), 10, || run().1);
        // Catalog N/2 entries plus N queries move through the cluster.
        records.push(record(
            "primitive_multi_search",
            format!("n={n}"),
            n,
            out as u64,
            load,
            (n + n / 2) as f64 / P as f64,
        ));
    }
}

fn bench_packing(records: &mut Vec<BenchRecord>) {
    for n in [1_000u64, 20_000] {
        let weights: Vec<u64> = (0..n).map(|i| 1 + i % 10).collect();
        let run = || {
            let mut cluster = Cluster::new(P);
            let data = cluster.scatter_initial(weights.clone());
            let out = parallel_packing(&mut cluster, data, |w| *w, 100).groups;
            (out, cluster.report().load)
        };
        let (out, load) = run();
        bench_case(&format!("primitive_parallel_packing/{n}"), 10, || run().1);
        records.push(record(
            "primitive_parallel_packing",
            format!("n={n}"),
            n,
            out,
            load,
            n as f64 / P as f64,
        ));
    }
}

fn bench_two_way_join(records: &mut Vec<BenchRecord>) {
    for skew in ["uniform", "heavy"] {
        let n = 5_000u64;
        let r1: Relation<Count> = match skew {
            "uniform" => Relation::binary_ones(Attr(0), Attr(1), (0..n).map(|i| (i, i % 500))),
            _ => Relation::binary_ones(Attr(0), Attr(1), (0..n).map(|i| (i, i % 5))),
        };
        let r2: Relation<Count> = match skew {
            "uniform" => Relation::binary_ones(Attr(1), Attr(2), (0..n).map(|i| (i % 500, i))),
            _ => Relation::binary_ones(Attr(1), Attr(2), (0..n).map(|i| (i % 5, i))),
        };
        let run = || {
            let mut cluster = Cluster::new(P);
            let d1 = DistRelation::scatter(&cluster, &r1);
            let d2 = DistRelation::scatter(&cluster, &r2);
            let out = full_join(&mut cluster, &d1, &d2).total_len();
            (out, cluster.report().load)
        };
        let (out, load) = run();
        bench_case(&format!("primitive_two_way_join/{skew}"), 10, || run().1);
        // The skew-optimal join moves O((N1 + N2 + OUT)/p).
        records.push(record(
            "primitive_two_way_join",
            format!("skew={skew}"),
            2 * n,
            out as u64,
            load,
            (2 * n + out as u64) as f64 / P as f64,
        ));
    }
}

fn main() {
    let threads = mpcjoin_bench::init_threads();
    println!("primitives bench — {threads} local thread(s)\n");
    let mut records = Vec::new();
    bench_sort(&mut records);
    bench_reduce(&mut records);
    bench_multi_search(&mut records);
    bench_packing(&mut records);
    bench_two_way_join(&mut records);
    emit_json(&BenchArtifact { records }, "BENCH_microbench.json");
}
