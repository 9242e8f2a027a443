//! Frozen workload sizes, rates and limits.
//!
//! Calibrated once on the seed commit (2 cores; see `README.md` for the
//! machine) so that an engine pass is a few tens of milliseconds, a
//! cold serve request a few milliseconds, and a 10-second run yields at
//! least a hundred samples of whatever it reports a quantile of. They are
//! constants, not options: changing one defines a different benchmark
//! and the baseline has to be measured again.

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Untimed passes before the timed ones (the set-up's verifying run
/// has already touched every instance once).
pub const WARMUP_PASSES: usize = 2;

// ---- engine workloads ------------------------------------------------

/// Cluster width of the two matrix workloads.
pub const MM_SERVERS: usize = 64;
/// `b`-thickness of every block instance.
pub const MM_THICKNESS: u64 = 2;
/// `mm_os`: `(blocks k, side)`; `N = 4·k·side`, `OUT = k·side²` —
/// OUT between N/2 and N, so Theorem 1 picks the §3.2 path.
pub const MM_OS_BLOCKS: [(u64, u64); 2] = [(320, 2), (160, 4)];
/// `mm_wco`: OUT = 16–24 × N, so Theorem 1 picks the §3.1 path.
pub const MM_WCO_BLOCKS: [(u64, u64); 2] = [(12, 64), (8, 96)];
/// Round-count classes of the two paths. A run outside its class means
/// the dispatcher flipped and the workload no longer measures what its
/// name says; the run is then incorrect, not slow.
pub const MM_OS_MIN_ROUNDS: u64 = 80;
pub const MM_WCO_MAX_ROUNDS: u64 = 60;

/// Cluster width of `joinagg_mix`.
pub const JOINAGG_SERVERS: usize = 16;
/// Funnel line `(groups, k, m)`.
pub const FUNNEL: (u64, u64, u64) = (12, 8, 6);
/// Overlapping star `(centers, d)`.
pub const STAR: (u64, u64) = (24, 5);
/// Overlapping Figure-3 twig `(centers, d)`.
pub const TWIG: (u64, u64) = (6, 2);

// ---- serve workloads -------------------------------------------------

/// Simulated cluster width of every wire request.
pub const SERVE_SERVERS: usize = 16;
/// Client connections (never more than the machine has processors).
pub const CONNECTIONS: usize = 2;

/// `serve_cold` request classes, all cache misses, a third each: block
/// product `(blocks k, side)` under `count`, funnel line `(groups, k, m)`
/// under `minplus`, overlapping star `(centers, d)` under `bool`. Fixed
/// structure, seeded labels: every request of a class costs the same
/// work, so the latency quantiles sit inside a class, not on a boundary
/// between two.
pub const COLD_MM: (u64, u64) = (64, 2);
pub const COLD_LINE: (u64, u64, u64) = (8, 6, 5);
pub const COLD_STAR: (u64, u64) = (16, 5);
/// `serve_cold` runs its five-step ladder this many times over; each
/// step's quantiles and the saturation throughput are taken per round
/// and the median over the rounds is reported, so a one-second burst
/// of noise on a two-core machine moves one round, not the result.
pub const ROUNDS: usize = 5;
/// Arrival rate of ladder step 1, requests per second; step `k` runs
/// at `COLD_RATE_1 · 1.5^(k-1)`. Steps 1–2 sit under half of the seed
/// commit's capacity, step 4 under 0.9×, step 5 above 1.3×.
pub const COLD_RATE_1: f64 = 65.0;
pub const COLD_STEPS: usize = 5;
pub const COLD_STEP_FACTOR: f64 = 1.5;
/// The latency limit a ladder step must meet at p95 (refusals and lost
/// replies count as misses).
pub const COLD_LIMIT_MS: f64 = 50.0;
/// One request in this many is recomputed in-process and compared.
pub const SAMPLE_EVERY: usize = 16;

/// `serve_hot`: 64 distinct block products, `(count, blocks k, side)`
/// per reply-size class: ≈2 KiB, 8–16 KiB, ≥50 KiB.
pub const HOT_CLASSES: [(usize, u64, u64); 3] = [(22, 5, 4), (21, 20, 5), (21, 24, 10)];

/// `serve_update`: the registered view, uniform mm
/// `(nonzeros, outer domain, b domain)`.
pub const UPDATE_VIEW: (usize, u64, u64) = (2000, 1000, 1000);
pub const UPDATE_INSERTS: usize = 8;
pub const UPDATE_DELETES: usize = 4;
/// A re-query of the mirrored rows follows every this-many updates.
pub const REQUERY_EVERY: usize = 4;
/// `mpc_load_mean` / `mpc_rounds_mean` are taken over each session's
/// first this-many updates (a 10-second run reaches about 160).
pub const UPDATE_LEDGER_FRAMES: usize = 64;
/// Output rows echoed per reply (the same on update and re-query: the
/// limit is part of the cache digest).
pub const UPDATE_LIMIT: usize = 256;
