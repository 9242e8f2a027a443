//! Aggregate metrics: counters, gauges, and log-scale histograms, as a
//! view of a finished [`Trace`].
//!
//! Where [`crate::trace`] keeps every event (full traffic matrices, one
//! record per exchange), a [`MetricsSnapshot`] keeps *aggregates*: how
//! many tuples each primitive moved in total, the distribution of
//! per-event volumes on a log₂ scale, the per-server received-load
//! footprint (with p50/p95/max and a skew ratio), and per-phase
//! wall-clock. There is no second recorder: [`Trace::metrics`] folds the
//! one record the [`crate::trace::Tracer`] keeps, so the snapshot and the
//! trace cannot disagree. Metrics therefore cost what a trace costs, and
//! like tracing they never perturb the ledger.

use crate::fault::RecoveryReport;
use crate::json::Json;
use crate::trace::{EventKind, Trace};
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

impl Trace {
    /// The run's metrics, folded from this trace: `events.exchange` /
    /// `events.broadcast` count events by kind, `compute.spans` /
    /// `compute.tasks` count the compute spans, each event's unit sum
    /// feeds the all-events histogram and the one of its label, the
    /// gauges are [`Trace::cost`], and — when the run had a fault plane —
    /// `recovery` adds the `fault.*` counters that fired (a counter
    /// exists only once it is non-zero).
    pub fn metrics(&self, recovery: Option<&RecoveryReport>) -> MetricsSnapshot {
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut per_primitive: BTreeMap<String, LogHistogram> = BTreeMap::new();
        let mut event_units = LogHistogram::default();
        for e in &self.events {
            let counter = match e.kind {
                EventKind::Exchange => "events.exchange",
                EventKind::Broadcast => "events.broadcast",
            };
            *counters.entry(counter).or_default() += 1;
            let units = e.received.iter().sum();
            event_units.observe(units);
            per_primitive
                .entry(e.label.clone())
                .or_default()
                .observe(units);
        }
        if !self.compute.is_empty() {
            counters.insert("compute.spans", self.compute.len() as u64);
            let tasks = self.compute.iter().map(|c| c.tasks as u64).sum();
            counters.insert("compute.tasks", tasks);
        }
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
                    counters.insert(key, total);
                }
            }
        }
        let per_server = self.per_server();
        MetricsSnapshot {
            servers: self.servers,
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: vec![
                ("elapsed_ns".into(), self.cost.elapsed.as_nanos() as f64),
                ("load".into(), self.cost.load as f64),
                ("rounds".into(), self.cost.rounds as f64),
                ("total_units".into(), self.cost.total_units as f64),
            ],
            per_primitive: per_primitive.into_iter().collect(),
            event_units,
            received: LoadSummary::of(&per_server),
            per_server,
            phase_wall: self
                .phases
                .iter()
                .zip(&self.phase_wall)
                .map(|((_, label), &wall)| (label.clone(), wall))
                .collect(),
        }
    }
}

/// A finalized, immutable metrics snapshot (see [`Trace::metrics`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Physical server count.
    pub servers: usize,
    /// Monotone counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Ledger totals of the trace (`load`, `rounds`, `total_units`,
    /// `elapsed_ns`), sorted by name.
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
        use crate::trace::{ComputeSpan, TraceEvent};
        use crate::CostReport;
        let event = |kind, label: &str, received: Vec<u64>| TraceEvent {
            round: 0,
            kind,
            label: label.into(),
            phase: "join".into(),
            received,
            traffic: Vec::new(),
            at: Duration::ZERO,
        };
        let trace = Trace {
            servers: 2,
            cost: CostReport {
                load: 9,
                rounds: 3,
                total_units: 18,
                elapsed: Duration::ZERO,
            },
            phases: vec![(0, "join".into())],
            phase_wall: vec![Duration::from_nanos(1500)],
            events: vec![
                event(EventKind::Exchange, "sort", vec![3, 5]),
                event(EventKind::Exchange, "sort", vec![0, 2]),
                event(EventKind::Broadcast, "(unlabeled)", vec![4, 4]),
            ],
            compute: vec![ComputeSpan {
                label: "sort".into(),
                phase: "join".into(),
                round: 0,
                tasks: 2,
                elapsed: Duration::ZERO,
            }],
        };
        let snap = trace.metrics(None);
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
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("load").and_then(Json::as_u64), Some(9));
        assert_eq!(
            counters.get("compute.tasks").and_then(Json::as_u64),
            Some(2)
        );
        let phases = doc.get("phases").and_then(Json::as_arr).unwrap();
        assert_eq!(phases[0].get("label").and_then(Json::as_str), Some("join"));
        assert_eq!(phases[0].get("wall_ns").and_then(Json::as_u64), Some(1500));
    }
}
