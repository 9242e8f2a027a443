//! The metric tables (mirrored by `BENCHMARK.json`; `--selfcheck`
//! fails when the two drift), order statistics, and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// `(name, unit, better, bound)`. Every workload reports every one of
/// these from an untraced run; the glossary is in `README.md`.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("latency_ms_p50", "ms", "lower", 0.20),
    ("latency_ms_p75", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.15),
    ("mpc_load_mean", "tuples", "lower", 0.08),
    ("mpc_rounds_mean", "count", "lower", 0.05),
    ("rss_peak_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`. Reported by the `--trace 1` run; a layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("compiler.stats_ms", "ms", "lower"),
    ("compiler.select_ms", "ms", "lower"),
    ("mpc.scatter_ms", "ms", "lower"),
    ("mpc.gather_ms", "ms", "lower"),
    ("core.run_ms", "ms", "lower"),
    ("core.run_mt_ms", "ms", "lower"),
    ("core.execute_ms", "ms", "lower"),
    ("core.audit_ms", "ms", "lower"),
    ("core.unattributed_ms", "ms", "lower"),
    ("core.parts_over_whole", "ratio", "lower"),
    ("core.sim_over_sequential", "ratio", "lower"),
    ("mpc.compute_ms", "ms", "lower"),
    ("mpc.noncompute_ms", "ms", "lower"),
    ("mpc.exchange_events", "count", "lower"),
    ("mpc.compute_spans", "count", "lower"),
    ("mpc.units_total", "tuples", "lower"),
    ("mpc.units_per_ms", "1/ms", "higher"),
    ("mpc.trace_overhead_ratio", "ratio", "lower"),
    ("mpc.par_speedup", "ratio", "higher"),
    ("yannakakis.dangling_ms", "ms", "lower"),
    ("sketch.estimate_ms", "ms", "lower"),
    ("matmul.os_ms", "ms", "lower"),
    ("matmul.wco_ms", "ms", "lower"),
    ("joinagg.line_ms", "ms", "lower"),
    ("joinagg.star_ms", "ms", "lower"),
    ("joinagg.tree_ms", "ms", "lower"),
    ("yannakakis.sequential_ms", "ms", "lower"),
    ("yannakakis.baseline_ms", "ms", "lower"),
    ("sched.queue_ms_mean", "ms", "lower"),
    ("sched.admitted", "count", "higher"),
    ("sched.completed", "count", "higher"),
    ("sched.rejected", "count", "lower"),
    ("sched.shed_deadline", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.probe_ms_mean", "ms", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.bytes", "B", "lower"),
    ("cache.revalidated", "count", "higher"),
    ("run.engine_ms_mean", "ms", "lower"),
    ("run.serialize_ms_mean", "ms", "lower"),
    ("run.total_ms_mean", "ms", "lower"),
    ("run.coalesce_hits", "count", "lower"),
    ("delta.applied", "count", "higher"),
    ("delta.fallback", "count", "lower"),
    ("delta.update_load_mean", "tuples", "lower"),
    ("wire.parse_us_p50", "us", "lower"),
    ("wire.request_bytes_mean", "B", "lower"),
    ("wire.response_bytes_mean", "B", "lower"),
    ("wire.outside_ms_p50", "ms", "lower"),
    ("wire.update_ms_p50", "ms", "lower"),
    ("wire.requery_ms_p50", "ms", "lower"),
    ("wire.small_reply_ms_p50", "ms", "lower"),
    ("wire.medium_reply_ms_p50", "ms", "lower"),
    ("wire.large_reply_ms_p50", "ms", "lower"),
    ("gen.lateness_ms_p95", "ms", "lower"),
    ("gen.slo_rate_rps", "1/s", "higher"),
    ("gen.step1_ms_p95", "ms", "lower"),
    ("gen.step2_ms_p95", "ms", "lower"),
    ("gen.step3_ms_p95", "ms", "lower"),
    ("gen.step4_ms_p95", "ms", "lower"),
    ("gen.step5_ms_p95", "ms", "lower"),
    ("gen.samples", "count", "higher"),
];

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `values` (nearest rank on the sorted copy); 0
/// for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (lost, duplicated, wrong answer,
    /// error or refused), for the result line.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed check; only the first few are kept verbatim.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: every end-to-end metric (`traced`
    /// false) or every per-layer metric (`traced` true), by name with
    /// its unit.
    pub fn result_line(&self, traced: bool) -> String {
        let table: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
