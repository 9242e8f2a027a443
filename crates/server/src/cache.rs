//! Plan/result cache: canonical request digests → serialized result
//! bodies, with LRU eviction.
//!
//! ## Why caching serialized bytes is sound
//!
//! The engine's determinism guarantees (pinned by the `determinism` and
//! `engine_reuse` integration tests) make the canonical result body a
//! pure function of *(query structure, instance, semiring, cluster
//! width, plan choice, row limit)*: thread counts, tracing, metrics, and
//! recovered faults never perturb the output or the cost ledger. So the
//! cache keys on a digest of exactly those inputs and stores the body
//! **as serialized bytes**; a hit splices the stored bytes back into the
//! response frame verbatim. Bit-identity of hits to cold runs is then a
//! construction property, not a replay property — there is no second
//! execution whose output could drift.
//!
//! Requests carrying a fault plan are *never* cached (in either
//! direction): they exist to exercise the recovery path, and serving
//! them from the clean twin's entry would silently skip it. The executor
//! encodes this by digesting such requests to `None`.
//!
//! ## The digest
//!
//! The executor canonicalizes before hashing, so two requests that mean
//! the same run share an entry even when spelled differently: attribute
//! and relation *names* are erased (attributes are numbered by first
//! appearance; relations are bound to body atoms by position), member
//! order in the JSON frame is irrelevant (the frame was parsed into a
//! struct), and relation rows are sorted. The token stream is hashed
//! twice with independent seeds into a `u128` via [`digest_tokens`],
//! making accidental collisions (the only way a hit could be wrong) a
//! ~2⁻¹²⁸ event rather than a realistic one.

use mpcjoin::mpc::hash::seeded_hash;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache statistics (monotone counters + current occupancy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Cacheable requests that ran cold.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Total serialized-body bytes currently resident (an occupancy
    /// gauge for the stats plane, not a budget — capacity is entries).
    pub bytes: u64,
}

impl CacheStats {
    /// The counters as a `(name, value)` list — the one field list the
    /// stats payload's JSON and text renderings are both built from.
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("evictions", self.evictions),
            ("len", self.len as u64),
            ("bytes", self.bytes),
        ]
    }
}

struct Entry {
    body: Arc<str>,
    /// The touch tick this entry was last used at; stale queue records
    /// (from earlier touches) are recognized by mismatch.
    tick: u64,
}

/// An LRU map from request digests to serialized canonical bodies.
///
/// Recency is tracked lazily: every touch pushes a `(key, tick)` record
/// and bumps the entry's tick; eviction pops records until one matches
/// its entry's current tick — that entry is genuinely least-recently
/// used. This keeps both hit and insert O(1) amortized without an
/// intrusive list.
pub struct ResultCache {
    cap: usize,
    map: HashMap<u128, Entry>,
    order: VecDeque<(u128, u64)>,
    tick: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache holding at most `cap` entries (`cap == 0` disables
    /// caching entirely: every lookup misses, every insert is dropped).
    pub fn new(cap: usize) -> Self {
        ResultCache {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn next_tick(&mut self, key: u128) -> u64 {
        self.tick += 1;
        self.order.push_back((key, self.tick));
        self.tick
    }

    /// Look up a digest, refreshing its recency on a hit.
    pub fn get(&mut self, key: u128) -> Option<Arc<str>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.tick = tick;
                self.order.push_back((key, tick));
                self.stats.hits += 1;
                Some(Arc::clone(&entry.body))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a cold run's body, evicting the least-recently-used entry
    /// when full. Re-inserting an existing key refreshes it.
    pub fn insert(&mut self, key: u128, body: Arc<str>) {
        if self.cap == 0 {
            return;
        }
        let tick = self.next_tick(key);
        self.stats.bytes += body.len() as u64;
        if let Some(old) = self.map.insert(key, Entry { body, tick }) {
            self.stats.bytes -= old.body.len() as u64;
        }
        while self.map.len() > self.cap {
            let Some((victim, at)) = self.order.pop_front() else {
                break; // unreachable: map non-empty ⇒ a live record exists
            };
            if self.map.get(&victim).is_some_and(|e| e.tick == at) {
                let evicted = self.map.remove(&victim).expect("checked above");
                self.stats.bytes -= evicted.body.len() as u64;
                self.stats.evictions += 1;
            }
        }
    }

    /// Counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len(),
            ..self.stats
        }
    }
}

/// Digest a canonical token stream into a 128-bit key.
pub fn digest_tokens(tokens: &[u64]) -> u128 {
    const SEED_HI: u64 = 0x6d70_636a_6f69_6e31; // "mpcjoin1"
    const SEED_LO: u64 = 0x6d70_636a_6f69_6e32; // "mpcjoin2"
    ((seeded_hash(SEED_HI, tokens) as u128) << 64) | seeded_hash(SEED_LO, tokens) as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_returns_the_exact_bytes() {
        let mut cache = ResultCache::new(4);
        assert!(cache.get(1).is_none());
        cache.insert(1, body("{\"load\":7}"));
        assert_eq!(cache.get(1).as_deref(), Some("{\"load\":7}"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert_eq!(s.bytes, "{\"load\":7}".len() as u64);
    }

    #[test]
    fn byte_gauge_tracks_replacement_and_eviction() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, body("aaaa"));
        cache.insert(2, body("bb"));
        assert_eq!(cache.stats().bytes, 6);
        cache.insert(1, body("c")); // replace: 4 bytes out, 1 in
        assert_eq!(cache.stats().bytes, 3);
        cache.insert(3, body("dddddddd")); // evicts 2 (LRU)
        assert_eq!(cache.stats().bytes, 9);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, body("a"));
        cache.insert(2, body("b"));
        assert!(cache.get(1).is_some()); // 2 is now the LRU entry
        cache.insert(3, body("c"));
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn reinsert_refreshes_rather_than_duplicates() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, body("a"));
        cache.insert(2, body("b"));
        cache.insert(1, body("a2")); // refresh: 2 becomes the LRU entry
        cache.insert(3, body("c"));
        assert_eq!(cache.get(1).as_deref(), Some("a2"));
        assert!(cache.get(2).is_none());
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(1, body("a"));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn many_touches_do_not_wedge_eviction() {
        // Stale recency records must be skipped, not counted as victims.
        let mut cache = ResultCache::new(2);
        cache.insert(1, body("a"));
        for _ in 0..100 {
            assert!(cache.get(1).is_some());
        }
        cache.insert(2, body("b"));
        cache.insert(3, body("c")); // must evict 2 or 1 — exactly one
        let alive = [1u128, 2, 3]
            .iter()
            .filter(|&&k| cache.get(k).is_some())
            .count();
        assert_eq!(alive, 2);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn digests_separate_and_agree() {
        let a = digest_tokens(&[1, 2, 3]);
        assert_eq!(a, digest_tokens(&[1, 2, 3]));
        assert_ne!(a, digest_tokens(&[1, 2, 4]));
        assert_ne!(a, digest_tokens(&[3, 2, 1]));
        // Both halves carry entropy (independent seeds).
        assert_ne!(a as u64, (a >> 64) as u64);
    }
}
