//! Regenerate Table 1 empirically: for every query class, the measured
//! load of the distributed Yannakakis baseline vs. the paper's algorithm,
//! next to the closed-form bounds and the engine's bound-audit verdict,
//! while OUT sweeps.
//!
//! Run with: `cargo run -p mpcjoin-bench --release --bin table1 [scale]`
//! (`scale` defaults to 1; larger values grow the instances). Besides the
//! printed tables (and CSVs under `MPCJOIN_CSV_DIR`), writes the
//! machine-readable `BENCH_table1.json` ledger that `mpcjoin-check bench`
//! diffs against `results/BENCH_baseline_table1.json`.

use mpcjoin_bench::experiments;
use mpcjoin_bench::{emit, emit_json, emit_trace, BenchArtifact};

fn main() {
    mpcjoin_bench::init_threads();
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!("Table 1 reproduction (instance scale {scale})");
    let mut records = Vec::new();
    let (t, r) = experiments::table1_mm(&[16, 64], scale);
    emit(&t, "table1_mm");
    records.extend(r);
    let (t, r) = experiments::table1_mm_unequal(16, scale);
    emit(&t, "table1_mm_unequal");
    records.extend(r);
    let (t, r) = experiments::table1_line(16, scale);
    emit(&t, "table1_line");
    records.extend(r);
    let (t, r) = experiments::table1_star(16, scale);
    emit(&t, "table1_star");
    records.extend(r);
    let (t, r) = experiments::table1_tree(16, scale);
    emit(&t, "table1_tree");
    records.extend(r);
    emit_trace(&experiments::table1_line_trace(16, scale), "table1_line");

    let violations = records.iter().filter(|r| !r.within).count();
    emit_json(&BenchArtifact { records }, "BENCH_table1.json");
    if violations > 0 {
        println!("WARNING: {violations} rows exceed slack·bound + p (see the audit column)");
    }
}
