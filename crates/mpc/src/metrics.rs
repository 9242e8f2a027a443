//! Lightweight metrics registry: counters, gauges, and log-scale
//! histograms recorded alongside the cost ledger.
//!
//! Where [`crate::trace`] keeps every event (full traffic matrices, one
//! record per exchange), metrics keep *aggregates*: how many tuples each
//! primitive moved in total, the distribution of per-event volumes on a
//! log₂ scale, the per-server received-load footprint (with p50/p95/max
//! and a skew ratio), and per-phase wall-clock. The registry is therefore
//! cheap enough to leave on for large runs where a full trace would not
//! fit in memory.
//!
//! Metrics are **off by default** (install a [`MetricsLog`] with
//! [`crate::Cluster::observe`] to turn them on) and never perturb the
//! ledger: the registry is shown the same per-destination received-vector
//! the ledger was credited from, after the fact. Tests pin
//! `(load, rounds, total_units)` across execution backends.

use crate::fault::RecoveryReport;
use crate::json::Json;
use crate::observe::{Delivery, EventKind, RoundCtx, RoundObserver};
use crate::Cluster;
use std::collections::BTreeMap;
use std::time::Duration;

/// A histogram with logarithmic (power-of-two) buckets.
///
/// Bucket `0` holds exactly the value `0`; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. Exact `count`/`sum`/`min`/`max` are kept alongside
/// the buckets, so coarse bucketing never loses the headline numbers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sparse bucket counts: `buckets[b]` = number of observations in
    /// bucket `b`.
    pub buckets: BTreeMap<u32, u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl LogHistogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        self.max = self.max.max(value);
        self.count += 1;
        self.sum += value;
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> u32 {
        64 - value.leading_zeros()
    }

    /// Inclusive-exclusive value range `[lo, hi)` of bucket `b`.
    pub fn bucket_range(b: u32) -> (u64, u64) {
        if b == 0 {
            (0, 1)
        } else {
            (1u64 << (b - 1), 1u64 << b)
        }
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile from the bucket counts:
    /// the exclusive upper edge of the first bucket whose cumulative
    /// count reaches `q·count`, clamped to the exact `max`. Exact for
    /// `min`/`max`; within one power of two elsewhere — good enough for
    /// latency dashboards, never for ledger accounting.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, hi) = Self::bucket_range(b);
                return (hi - 1).min(self.max);
            }
        }
        self.max
    }

    /// Serialize as the shared histogram JSON shape used by
    /// `mpcjoin-metrics-v1` and the serving layer's
    /// `mpcjoin-serverstats-v1`: exact `count`/`sum`/`min`/`max` plus
    /// `[lo, hi, n]` bucket triples.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            ("min".into(), Json::Num(self.min as f64)),
            ("max".into(), Json::Num(self.max as f64)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|(&b, &n)| {
                            let (lo, hi) = LogHistogram::bucket_range(b);
                            Json::Arr(vec![
                                Json::Num(lo as f64),
                                Json::Num(hi as f64),
                                Json::Num(n as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Exact distribution summary of the per-server received totals.
///
/// Computed from the full per-server vector (not from histogram buckets),
/// so the percentiles are exact. `skew = max / mean`; `1.0` means the
/// received load is perfectly balanced.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadSummary {
    /// Median per-server received total (lower-rounded percentile).
    pub p50: u64,
    /// 95th-percentile per-server received total.
    pub p95: u64,
    /// Largest per-server received total.
    pub max: u64,
    /// Mean per-server received total.
    pub mean: f64,
    /// `max / mean` (1.0 when there was no traffic).
    pub skew: f64,
}

impl LoadSummary {
    /// Summarize a per-server totals vector.
    pub fn of(per_server: &[u64]) -> LoadSummary {
        if per_server.is_empty() {
            return LoadSummary {
                skew: 1.0,
                ..LoadSummary::default()
            };
        }
        let mut sorted = per_server.to_vec();
        sorted.sort_unstable();
        let pct = |q: f64| -> u64 {
            // Nearest-rank on the sorted vector (lower-rounded index).
            let idx = ((sorted.len() as f64 - 1.0) * q).floor() as usize;
            sorted[idx]
        };
        let max = sorted.last().copied().unwrap_or(0);
        let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
        let skew = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        LoadSummary {
            p50: pct(0.50),
            p95: pct(0.95),
            max,
            mean,
            skew,
        }
    }
}

/// The in-flight registry: install with [`crate::Cluster::observe`]
/// before the run, [`MetricsLog::finish`] after it.
#[derive(Debug, Default)]
pub struct MetricsLog {
    /// Physical-server dimension of `per_server`.
    pub(crate) servers: usize,
    /// Monotone event counters (`events.exchange`, `events.broadcast`,
    /// `compute.spans`, `compute.tasks`, …).
    pub(crate) counters: BTreeMap<String, u64>,
    /// Log₂ distribution of per-event delivered units, keyed by the
    /// operation-scope path that issued the event ("(unlabeled)" outside
    /// any scope).
    pub(crate) per_primitive: BTreeMap<String, LogHistogram>,
    /// Log₂ distribution of per-event delivered units, all events.
    pub(crate) event_units: LogHistogram,
    /// Units received per physical server, summed over all rounds.
    pub(crate) per_server: Vec<u64>,
}

impl MetricsLog {
    /// A registry over `servers` physical servers (the top-level
    /// cluster's `p`).
    pub fn new(servers: usize) -> Self {
        MetricsLog {
            servers,
            per_server: vec![0; servers],
            ..MetricsLog::default()
        }
    }

    pub(crate) fn bump(&mut self, counter: &str, by: u64) {
        *self.counters.entry(counter.to_string()).or_insert(0) += by;
    }

    /// Record one communication event: `received[s]` units arrived at
    /// physical server `s`, issued under operation-scope `label`.
    pub(crate) fn record_event(&mut self, counter: &str, label: &str, received: &[u64]) {
        let units: u64 = received.iter().sum();
        if units == 0 {
            return;
        }
        self.bump(counter, 1);
        self.event_units.observe(units);
        self.per_primitive
            .entry(label.to_string())
            .or_default()
            .observe(units);
        for (s, &u) in received.iter().enumerate() {
            if s < self.per_server.len() {
                self.per_server[s] += u;
            }
        }
    }

    /// Hand back the finalized snapshot: the registry plus the ledger
    /// gauges and phase wall-clocks of `cluster` sampled now, and the
    /// `fault.*` counters of the run's fault plane, if one was installed
    /// (only the ones that fired, as counters are created on first bump).
    pub fn finish(
        &mut self,
        cluster: &Cluster,
        recovery: Option<&RecoveryReport>,
    ) -> MetricsSnapshot {
        let mut log = std::mem::take(self);
        if let Some(r) = recovery {
            for (key, total) in [
                ("fault.retries", r.retries),
                ("fault.messages_dropped", r.messages_dropped),
                ("fault.messages_duplicated", r.messages_duplicated),
                ("fault.rounds_replayed", r.rounds_replayed),
                ("fault.compute_retries", r.compute_retries),
                ("fault.servers_lost", r.servers_lost.len() as u64),
            ] {
                if total > 0 {
                    log.bump(key, total);
                }
            }
        }
        let ledger = cluster.ledger();
        let report = ledger.report();
        let gauges = vec![
            ("elapsed_ns".to_string(), report.elapsed.as_nanos() as f64),
            ("load".to_string(), report.load as f64),
            ("rounds".to_string(), report.rounds as f64),
            ("total_units".to_string(), report.total_units as f64),
        ];
        MetricsSnapshot {
            servers: log.servers,
            counters: log.counters.into_iter().collect(),
            gauges,
            per_primitive: log.per_primitive.into_iter().collect(),
            event_units: log.event_units,
            received: LoadSummary::of(&log.per_server),
            per_server: log.per_server,
            phase_wall: ledger
                .phase_marks()
                .into_iter()
                .map(|(_, label, wall)| (label, wall))
                .collect(),
        }
    }
}

impl RoundObserver for MetricsLog {
    fn delivered(&mut self, ctx: &RoundCtx<'_>, d: &Delivery<'_>) {
        let counter = match d.kind {
            EventKind::Exchange => "events.exchange",
            EventKind::Broadcast => "events.broadcast",
        };
        self.record_event(counter, ctx.label, d.received);
    }

    fn computed(&mut self, _: &RoundCtx<'_>, tasks: usize, _: Duration) {
        self.bump("compute.spans", 1);
        self.bump("compute.tasks", tasks as u64);
    }
}

/// A finalized, immutable snapshot of the metrics registry (see
/// [`MetricsLog::finish`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Physical server count.
    pub servers: usize,
    /// Monotone counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges sampled from the ledger at snapshot time
    /// (`load`, `rounds`, `total_units`, `elapsed_ns`), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Per-primitive distributions of per-event delivered units.
    pub per_primitive: Vec<(String, LogHistogram)>,
    /// Distribution of per-event delivered units across all events.
    pub event_units: LogHistogram,
    /// Units received per physical server, summed over all rounds.
    pub per_server: Vec<u64>,
    /// Exact summary of `per_server` (p50 / p95 / max / mean / skew).
    pub received: LoadSummary,
    /// Per-phase wall-clock durations, in phase order.
    pub phase_wall: Vec<(String, Duration)>,
}

impl MetricsSnapshot {
    /// Serialize as a self-contained JSON document
    /// (schema `mpcjoin-metrics-v1`).
    pub fn to_json(&self) -> String {
        let histogram_json = LogHistogram::to_json;
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("mpcjoin-metrics-v1".into())),
            ("servers".into(), Json::Num(self.servers as f64)),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "per_primitive".into(),
                Json::Obj(
                    self.per_primitive
                        .iter()
                        .map(|(k, h)| (k.clone(), histogram_json(h)))
                        .collect(),
                ),
            ),
            ("event_units".into(), histogram_json(&self.event_units)),
            (
                "per_server".into(),
                Json::Arr(
                    self.per_server
                        .iter()
                        .map(|&u| Json::Num(u as f64))
                        .collect(),
                ),
            ),
            (
                "received".into(),
                Json::Obj(vec![
                    ("p50".into(), Json::Num(self.received.p50 as f64)),
                    ("p95".into(), Json::Num(self.received.p95 as f64)),
                    ("max".into(), Json::Num(self.received.max as f64)),
                    ("mean".into(), Json::Num(self.received.mean)),
                    ("skew".into(), Json::Num(self.received.skew)),
                ]),
            ),
            (
                "phases".into(),
                Json::Arr(
                    self.phase_wall
                        .iter()
                        .map(|(label, wall)| {
                            Json::Obj(vec![
                                ("label".into(), Json::Str(label.clone())),
                                ("wall_ns".into(), Json::Num(wall.as_nanos() as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        // Counters/histograms are u64 casts; `mean`/`skew` are finite by
        // construction (guarded divisions) — but emit through the total
        // sanitizing printer anyway so a bad gauge can never abort a run.
        doc.to_string_sanitized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_range(0), (0, 1));
        assert_eq!(LogHistogram::bucket_range(3), (4, 8));
        // Every value lies inside its own bucket's range.
        for v in [0u64, 1, 2, 5, 17, 1 << 20, u64::MAX / 2] {
            let (lo, hi) = LogHistogram::bucket_range(LogHistogram::bucket_of(v));
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
        }
    }

    #[test]
    fn histogram_tracks_exact_extrema() {
        let mut h = LogHistogram::default();
        for v in [7u64, 3, 900, 0, 12] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 922);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 900);
        assert_eq!(h.buckets.values().sum::<u64>(), 5);
        assert!((h.mean() - 184.4).abs() < 1e-9);
    }

    #[test]
    fn quantile_upper_brackets_the_true_quantile() {
        let mut h = LogHistogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // The estimate is an upper bound within one power of two.
        for (q, exact) in [(0.5, 500u64), (0.95, 950), (1.0, 1000)] {
            let est = h.quantile_upper(q);
            assert!(est >= exact, "q={q}: {est} < {exact}");
            assert!(est < exact.next_power_of_two().max(2) * 2, "q={q}: {est}");
        }
        assert_eq!(h.quantile_upper(1.0), 1000, "max is exact");
        assert_eq!(LogHistogram::default().quantile_upper(0.5), 0);
        let mut single = LogHistogram::default();
        single.observe(42);
        assert_eq!(single.quantile_upper(0.5), 42);
    }

    #[test]
    fn histogram_json_shape_is_shared() {
        let mut h = LogHistogram::default();
        h.observe(3);
        h.observe(900);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("sum").and_then(Json::as_u64), Some(903));
        let buckets = j.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 2);
        // Each triple is [lo, hi, n] with lo <= value < hi.
        let first = buckets[0].as_arr().unwrap();
        assert_eq!(first[0].as_u64(), Some(2));
        assert_eq!(first[1].as_u64(), Some(4));
        assert_eq!(first[2].as_u64(), Some(1));
    }

    #[test]
    fn load_summary_percentiles_are_exact() {
        let totals: Vec<u64> = (1..=100).collect();
        let s = LoadSummary::of(&totals);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.skew - 100.0 / 50.5).abs() < 1e-9);
    }

    #[test]
    fn load_summary_degenerate_inputs() {
        assert_eq!(LoadSummary::of(&[]).skew, 1.0);
        let zeros = LoadSummary::of(&[0, 0, 0]);
        assert_eq!(zeros.max, 0);
        assert_eq!(zeros.skew, 1.0);
        let one = LoadSummary::of(&[42]);
        assert_eq!((one.p50, one.p95, one.max), (42, 42, 42));
        assert!((one.skew - 1.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let mut log = MetricsLog::new(2);
        log.record_event("events.exchange", "sort", &[3, 5]);
        log.record_event("events.exchange", "sort", &[0, 2]);
        log.record_event("events.broadcast", "(unlabeled)", &[4, 4]);
        let snap = MetricsSnapshot {
            servers: log.servers,
            counters: log.counters.clone().into_iter().collect(),
            gauges: vec![("load".into(), 9.0)],
            per_primitive: log.per_primitive.clone().into_iter().collect(),
            event_units: log.event_units.clone(),
            per_server: log.per_server.clone(),
            received: LoadSummary::of(&log.per_server),
            phase_wall: vec![("join".into(), Duration::from_nanos(1500))],
        };
        let doc = Json::parse(&snap.to_json()).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mpcjoin-metrics-v1")
        );
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("events.exchange").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            counters.get("events.broadcast").and_then(Json::as_u64),
            Some(1)
        );
        let per_server: Vec<u64> = doc
            .get("per_server")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(per_server, vec![7, 11]);
        let sort = doc.get("per_primitive").unwrap().get("sort").unwrap();
        assert_eq!(sort.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(sort.get("sum").and_then(Json::as_u64), Some(10));
        assert_eq!(
            doc.get("received")
                .unwrap()
                .get("max")
                .and_then(Json::as_u64),
            Some(11)
        );
    }
}
