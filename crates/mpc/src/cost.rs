//! Cost accounting for the MPC model.
//!
//! §1.3 of the paper defines the complexity of an MPC algorithm by two
//! numbers: the number of synchronous *rounds*, and the *load* `L` — the
//! maximum message volume **received** by any server in any round, where
//! one tuple, one semiring element, or one `O(log N)`-bit integer costs one
//! unit. Outgoing volume is deliberately uncounted (it does not correlate
//! with local memory/computation the way incoming volume does).
//!
//! [`CostTracker`] is the single ledger for a simulation: every
//! [`crate::Cluster::exchange`] credits incoming units to a
//! `(physical server, round)` cell — once per destination per event, from
//! the same received-vector the [`crate::observe`] seam shows its
//! observers — and [`CostReport`] summarizes the run. The ledger knows
//! nothing about tracing, metrics, faults or cancellation.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Mutable ledger of received units per `(physical server, global round)`.
#[derive(Debug)]
pub struct CostTracker {
    cells: HashMap<(usize, u64), u64>,
    max_round_used: u64,
    total_units: u64,
    /// Labeled phase boundaries: `(first round of the phase, label, wall
    /// clock at the mark)`.
    phases: Vec<(u64, String, Instant)>,
    /// Wall clock at ledger creation; `CostReport::elapsed` is measured
    /// from here. Wall-clock time is *instrumentation only* — it never
    /// feeds back into loads or routing, which stay deterministic.
    started: Instant,
}

impl Default for CostTracker {
    fn default() -> Self {
        CostTracker {
            cells: HashMap::new(),
            max_round_used: 0,
            total_units: 0,
            phases: Vec::new(),
            started: Instant::now(),
        }
    }
}

impl CostTracker {
    /// Credit `units` received by `server` during `round`.
    pub fn credit(&mut self, server: usize, round: u64, units: u64) {
        if units == 0 {
            return;
        }
        *self.cells.entry((server, round)).or_insert(0) += units;
        self.total_units += units;
        self.max_round_used = self.max_round_used.max(round + 1);
    }

    /// Maximum units received by any server in any single round — the load
    /// `L` of the run so far.
    pub fn max_load(&self) -> u64 {
        self.cells.values().copied().max().unwrap_or(0)
    }

    /// Number of rounds in which at least one message was delivered.
    pub fn rounds_used(&self) -> u64 {
        self.max_round_used
    }

    /// Total units delivered across all servers and rounds.
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// Immutable summary of the run.
    pub fn report(&self) -> CostReport {
        CostReport {
            load: self.max_load(),
            rounds: self.rounds_used(),
            total_units: self.total_units(),
            elapsed: self.started.elapsed(),
        }
    }

    /// Wall-clock time since the ledger was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Open a labeled phase starting at `round`; the previous phase (if
    /// any) ends here.
    pub fn mark_phase(&mut self, round: u64, label: &str) {
        self.phases.push((round, label.to_string(), Instant::now()));
    }

    /// The phase an event recorded now would be attributed to.
    pub fn current_phase(&self) -> &str {
        self.phases.last().map_or("(preamble)", |(_, l, _)| l)
    }

    /// The phase marks in order: `(first round, label, wall clock spent
    /// in the phase — up to the next mark, or to now for the last one)`.
    pub fn phase_marks(&self) -> Vec<(u64, String, Duration)> {
        let now = Instant::now();
        self.phases
            .iter()
            .enumerate()
            .map(|(i, (round, label, at))| {
                let until = self.phases.get(i + 1).map_or(now, |(_, _, next)| *next);
                (*round, label.clone(), until.saturating_duration_since(*at))
            })
            .collect()
    }

    /// Per-phase summaries: for each labeled phase, the load / rounds /
    /// traffic of the half-open round span it covers. Rounds before the
    /// first mark are reported under `"(preamble)"` when they carry
    /// traffic.
    pub fn phase_reports(&self) -> Vec<PhaseReport> {
        let mut spans: Vec<(u64, u64, String, Duration)> = Vec::new();
        if let Some((first, _, at)) = self.phases.first() {
            if *first > 0 {
                spans.push((
                    0,
                    *first,
                    "(preamble)".to_string(),
                    at.saturating_duration_since(self.started),
                ));
            }
        }
        for (i, (start, label, elapsed)) in self.phase_marks().into_iter().enumerate() {
            let end = self
                .phases
                .get(i + 1)
                .map_or(self.max_round_used, |(next, _, _)| *next);
            spans.push((start, end.max(start), label, elapsed));
        }
        spans
            .into_iter()
            .map(|(start, end, label, elapsed)| {
                let mut load = 0u64;
                let mut total = 0u64;
                for ((_, round), units) in &self.cells {
                    if *round >= start && *round < end {
                        load = load.max(*units);
                        total += units;
                    }
                }
                PhaseReport {
                    label,
                    span: (start, end),
                    cost: CostReport {
                        load,
                        rounds: end - start,
                        total_units: total,
                        elapsed,
                    },
                }
            })
            .collect()
    }
}

/// One labeled phase of a run: its round span and the costs incurred in
/// it. Produced by [`CostTracker::phase_reports`] /
/// [`crate::Cluster::phase_reports`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseReport {
    /// The label passed to [`crate::Cluster::mark_phase`] (or
    /// `"(preamble)"` for traffic before the first mark).
    pub label: String,
    /// Half-open global-round span `[start, end)` the phase covers.
    pub span: (u64, u64),
    /// Load / rounds / traffic incurred within the span, plus the phase's
    /// wall-clock duration.
    pub cost: CostReport,
}

impl std::fmt::Display for PhaseReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [rounds {}..{}): {}",
            self.label, self.span.0, self.span.1, self.cost
        )
    }
}

/// Summary of a finished (or in-progress) MPC execution.
#[derive(Clone, Copy, Debug)]
pub struct CostReport {
    /// The load `L`: max units received by any server in any round.
    pub load: u64,
    /// Rounds with at least one delivery.
    pub rounds: u64,
    /// Total units delivered.
    pub total_units: u64,
    /// Wall-clock time of the run — instrumentation only, excluded from
    /// equality: two runs with the same model costs compare equal no
    /// matter how long they took or which [`crate::exec::ExecBackend`]
    /// executed them.
    pub elapsed: Duration,
}

impl PartialEq for CostReport {
    fn eq(&self, other: &Self) -> bool {
        self.load == other.load
            && self.rounds == other.rounds
            && self.total_units == other.total_units
    }
}

impl Eq for CostReport {}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "load={} rounds={} total={}",
            self.load, self.rounds, self.total_units
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_accumulate_per_cell() {
        let mut t = CostTracker::default();
        t.credit(0, 0, 5);
        t.credit(0, 0, 3);
        t.credit(1, 0, 7);
        t.credit(0, 1, 2);
        assert_eq!(t.max_load(), 8);
        assert_eq!(t.rounds_used(), 2);
        assert_eq!(t.total_units(), 17);
    }

    #[test]
    fn zero_credit_is_free() {
        let mut t = CostTracker::default();
        t.credit(3, 9, 0);
        assert_eq!(t.max_load(), 0);
        assert_eq!(t.rounds_used(), 0);
    }

    #[test]
    fn phase_reports_partition_the_timeline() {
        let mut t = CostTracker::default();
        t.credit(0, 0, 2); // preamble
        t.mark_phase(1, "join");
        t.credit(0, 1, 5);
        t.credit(1, 2, 9);
        t.mark_phase(3, "aggregate");
        t.credit(0, 3, 4);
        let phases = t.phase_reports();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].label, "(preamble)");
        assert_eq!(phases[0].cost.load, 2);
        assert_eq!(phases[0].span, (0, 1));
        assert_eq!(phases[1].label, "join");
        assert_eq!(phases[1].cost.load, 9);
        assert_eq!(phases[1].cost.total_units, 14);
        assert_eq!(phases[1].span, (1, 3));
        assert_eq!(phases[2].label, "aggregate");
        assert_eq!(phases[2].cost.load, 4);
        // Totals across phases cover everything.
        let sum: u64 = phases.iter().map(|p| p.cost.total_units).sum();
        assert_eq!(sum, t.total_units());
    }

    #[test]
    fn report_snapshot() {
        let mut t = CostTracker::default();
        t.credit(0, 0, 4);
        let r = t.report();
        assert_eq!(r.load, 4);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.total_units, 4);
        assert_eq!(r.to_string(), "load=4 rounds=1 total=4");
    }

    #[test]
    fn equality_ignores_elapsed() {
        let mut t = CostTracker::default();
        t.credit(0, 0, 4);
        let a = t.report();
        std::thread::sleep(Duration::from_millis(2));
        let b = t.report();
        assert!(b.elapsed > a.elapsed);
        assert_eq!(a, b);
    }

    #[test]
    fn phase_reports_carry_wall_clock() {
        let mut t = CostTracker::default();
        t.mark_phase(0, "only");
        t.credit(0, 0, 1);
        std::thread::sleep(Duration::from_millis(2));
        let phases = t.phase_reports();
        assert_eq!(phases.len(), 1);
        assert!(phases[0].cost.elapsed >= Duration::from_millis(2));
    }
}
