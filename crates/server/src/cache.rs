//! LRU cache of preprocessed component sets.
//!
//! Preprocessing (drop dissimilar edges → k-core peel → connected
//! components → arena build over the metric-aware candidate indexes)
//! dominates small and medium queries, and its output depends only on
//! `(dataset, k, r)` — not on the algorithm, thread count, or limits. The
//! server therefore shares one [`ComponentCache`] across all connections:
//! enumeration and maximum queries for the same parameters, from any
//! client, reuse the same immutable [`LocalComponent`] set through an
//! `Arc`.
//!
//! Keys quantize `r` onto a fixed grid ([`r_band`]) so that float noise
//! (`0.3` vs `0.30000000000000004`) cannot split one logical threshold
//! into distinct entries, and so the key is hashable at all. The band is
//! far finer than any meaningful threshold difference in the paper's
//! parameter sweeps.

use crate::sync::lock;
use kr_core::LocalComponent;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default shard-count ceiling for [`ComponentCache::new`]. The actual
/// count also respects [`MIN_SHARD_CAPACITY`], so tiny caches stay
/// unsharded.
pub const DEFAULT_SHARDS: usize = 8;

/// [`ComponentCache::new`] never picks a shard count that would leave a
/// shard fewer than this many slots: hash skew across near-empty shards
/// would otherwise evict entries a global LRU of the same total capacity
/// would keep.
const MIN_SHARD_CAPACITY: usize = 4;

/// Width of one r-band: thresholds are quantized to this grid.
pub const R_BAND_WIDTH: f64 = 1e-9;

/// Quantizes a similarity threshold onto the cache's r-band grid.
pub fn r_band(r: f64) -> i64 {
    (r / R_BAND_WIDTH).round() as i64
}

/// Whether `x` lies strictly on the dissimilar side of every `r` in
/// band `band`: above it for a distance metric, below it for a
/// similarity. [`r_band`] is monotone, so comparing bands is sound even
/// though no single `r` stands for the band.
pub(crate) fn beyond_band(distance: bool, x: f64, band: i64) -> bool {
    if distance {
        r_band(x) > band
    } else {
        r_band(x) < band
    }
}

/// Whether [`r_band`] gives `r` a band of its own: from ~9.22e9 on,
/// `r / R_BAND_WIDTH` rounds past `i64::MAX` and every such `r` would
/// share the saturated band. The wire rejects those thresholds.
pub(crate) fn r_band_fits(r: f64) -> bool {
    (r / R_BAND_WIDTH).round() < i64::MAX as f64
}

/// Cache key: dataset identity (name + scale, as registered by the
/// dataset registry) plus the query parameters preprocessing depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Dataset identity string (e.g. `"gowalla-like@0.25"`).
    pub dataset: String,
    /// Degree threshold.
    pub k: u32,
    /// Quantized similarity threshold (see [`r_band`]).
    pub r_band: i64,
}

/// Counter snapshot (also a wire type — see `protocol::Frame::Stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to preprocess.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Flat memory footprint of all resident component sets, in bytes.
    /// Exact, not an estimate: the CSR arenas have no per-vertex
    /// allocations, so [`LocalComponent::memory_bytes`] covers every heap
    /// byte an entry owns. Re-sampled from the live entries at snapshot
    /// time rather than ledgered at insert: lazily materialized
    /// dissimilarity rows grow an entry *after* it is cached, and the
    /// snapshot must account for them.
    pub resident_bytes: u64,
    /// Total wall-clock milliseconds spent preprocessing on cache
    /// misses. Together with `misses` this gives operators the average
    /// cold-query preprocessing cost.
    pub preprocess_ms: u64,
    /// Total similarity-metric evaluations spent by cache-miss
    /// preprocessing. The candidate indexes (PR 4) keep this far below
    /// the brute-force `Σ n_c·(n_c-1)/2`; watching it reveals the index
    /// leverage per dataset.
    pub oracle_evals: u64,
    /// Cache misses that were resolved through the dataset's (k,r)-core
    /// decomposition index (PR 6) instead of whole-graph preprocessing.
    pub index_hits: u64,
    /// Total candidate vertices the decomposition index handed to those
    /// miss-path preprocessing runs. `residual_vertices / index_hits`
    /// against the graph size shows how much of the graph the index let
    /// the server skip.
    pub residual_vertices: u64,
    /// Entries a mutation's repair pass proved still valid and kept
    /// (version-bumped in place) instead of recomputing. See
    /// [`ComponentCache::repair_after_mutation`].
    pub repairs: u64,
    /// Entries a mutation's repair pass had to drop because the deltas
    /// could have changed their component sets. `repairs + invalidations`
    /// totals every resident entry each mutation touched — the write-
    /// traffic accounting identity (`docs/OPERATIONS.md`).
    pub invalidations: u64,
}

/// What one [`ComponentCache::get_or_build`] lookup did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Served from a resident entry at the caller's dataset version.
    pub hit: bool,
    /// This caller's build was the one inserted — the unique owner of
    /// the miss's statistics. A caller that built but lost the insert
    /// race (`hit == false, won == false`) must not attribute
    /// preprocessing stats: exactly one miss is counted per logical
    /// build.
    pub won: bool,
}

struct Entry {
    comps: Arc<Vec<LocalComponent>>,
    /// Dataset version the components were preprocessed against. A
    /// lookup at a different version bypasses the entry (stale data is
    /// never served); a mutation's repair pass bumps it in place when
    /// the deltas provably cannot have changed the entry.
    version: u64,
    /// Last-use tick for LRU eviction.
    used: u64,
}

/// Flat footprint of one cached component set **right now**. Not a
/// constant: a component built with a lazy dissimilarity view grows as
/// searches materialize rows, so footprints are re-sampled per snapshot
/// instead of recorded once at insert.
fn entry_bytes(comps: &[LocalComponent]) -> u64 {
    comps.iter().map(|c| c.memory_bytes() as u64).sum()
}

/// One shard: an independent LRU map under its own lock.
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct Shard {
    capacity: usize,
    inner: Mutex<Inner>,
}

/// Thread-safe LRU cache of preprocessed component sets, sharded by key
/// hash so concurrent lookups for different keys contend on different
/// locks (a miss's *build* already ran outside the lock; sharding also
/// unserializes the bookkeeping around it under concurrent load).
///
/// Each shard runs an independent LRU over its slice of the capacity, so
/// eviction is LRU-per-shard, not a single global order: a skewed key
/// distribution can evict from a full shard while another has free slots.
/// The total capacity bound is exact (shard capacities sum to the
/// requested capacity) and all statistics are merged across shards —
/// [`ComponentCache::stats`] reports the same totals a single-lock cache
/// would on any workload that fits in capacity.
pub struct ComponentCache {
    shards: Vec<Shard>,
    preprocess_ms: AtomicU64,
    oracle_evals: AtomicU64,
    index_hits: AtomicU64,
    residual_vertices: AtomicU64,
    repairs: AtomicU64,
    invalidations: AtomicU64,
}

impl ComponentCache {
    /// A cache holding at most `capacity` component sets (≥ 1), sharded
    /// up to [`DEFAULT_SHARDS`] ways while keeping every shard at least
    /// [`MIN_SHARD_CAPACITY`] slots (small caches stay unsharded).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = (capacity / MIN_SHARD_CAPACITY).clamp(1, DEFAULT_SHARDS);
        ComponentCache::with_shards(capacity, shards)
    }

    /// A cache with an explicit shard count (clamped to `[1, capacity]`).
    /// `capacity` is split across shards as evenly as possible; the shard
    /// capacities sum to exactly `capacity`.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let n = shards.clamp(1, capacity);
        let (base, rem) = (capacity / n, capacity % n);
        ComponentCache {
            shards: (0..n)
                .map(|i| Shard {
                    capacity: base + usize::from(i < rem),
                    inner: Mutex::new(Inner {
                        map: HashMap::new(),
                        tick: 0,
                        hits: 0,
                        misses: 0,
                        evictions: 0,
                    }),
                })
                .collect(),
            preprocess_ms: AtomicU64::new(0),
            oracle_evals: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            residual_vertices: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of shards this cache was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    /// Looks up `key` at dataset `version`, running `build` on a miss.
    /// Returns the shared component set and what the lookup did.
    ///
    /// A resident entry counts as a hit only when its recorded dataset
    /// version matches `version`: an entry preprocessed before a
    /// mutation (and not repaired to the new version) is stale and is
    /// rebuilt through `build`, never served.
    ///
    /// Only `key`'s shard is locked, and its lock is **not** held while
    /// `build` runs, so a slow preprocessing pass never blocks queries
    /// for other keys (or cache-hit queries for the same key issued
    /// earlier). Two clients racing on the same cold key may both build;
    /// the first insert wins, the loser adopts the winner's arena, and
    /// **only the winner counts the miss** — cumulative miss statistics
    /// (`misses`, `preprocess_ms`, `oracle_evals`) describe logical
    /// builds, not racers (see [`LookupOutcome::won`]).
    pub fn get_or_build(
        &self,
        key: &CacheKey,
        version: u64,
        build: impl FnOnce() -> Vec<LocalComponent>,
    ) -> (Arc<Vec<LocalComponent>>, LookupOutcome) {
        let shard = self.shard(key);
        {
            let mut inner = lock(&shard.inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(key) {
                if entry.version == version {
                    entry.used = tick;
                    let comps = entry.comps.clone();
                    inner.hits += 1;
                    return (
                        comps,
                        LookupOutcome {
                            hit: true,
                            won: false,
                        },
                    );
                }
                // Stale version: fall through to a rebuild. The entry is
                // left in place so concurrent same-version lookups still
                // hit; the insert below replaces it.
            }
        }
        let comps = Arc::new(build());
        let mut inner = lock(&shard.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let (comps, won) = match inner.map.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let e = slot.get_mut();
                if e.version >= version {
                    // Lost the race (or a fresher build/repair landed
                    // mid-flight): adopt the resident arena, count
                    // nothing — the winner already booked this build.
                    e.used = tick;
                    (e.comps.clone(), false)
                } else {
                    // The resident entry is older than our build:
                    // replace it.
                    *e = Entry {
                        comps: comps.clone(),
                        version,
                        used: tick,
                    };
                    (comps, true)
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Entry {
                    comps: comps.clone(),
                    version,
                    used: tick,
                });
                (comps, true)
            }
        };
        if won {
            inner.misses += 1;
        }
        while inner.map.len() > shard.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            inner.map.remove(&victim).expect("victim present");
            inner.evictions += 1;
        }
        (comps, LookupOutcome { hit: false, won })
    }

    /// Invalidate-and-repair pass after a dataset mutation: every
    /// resident entry belonging to `dataset` is either **repaired** —
    /// `keep` proved the mutation's deltas cannot have changed its
    /// component set, so its version is bumped to `new_version` in place
    /// and the preprocessed arenas keep serving — or **invalidated**
    /// (dropped; the next query rebuilds). Returns `(repairs,
    /// invalidations)`; the totals also accumulate into
    /// [`CacheStats::repairs`] / [`CacheStats::invalidations`].
    ///
    /// `keep` runs outside the shard locks (it may probe similarity
    /// oracles and the decomposition index); an entry that changes under
    /// us while unlocked — replaced by a concurrent insert at a newer
    /// version — is left alone.
    pub fn repair_after_mutation(
        &self,
        dataset: &str,
        new_version: u64,
        mut keep: impl FnMut(&CacheKey, &[LocalComponent]) -> bool,
    ) -> (u64, u64) {
        let mut repairs = 0u64;
        let mut invalidations = 0u64;
        for shard in &self.shards {
            let sampled: Vec<(CacheKey, Arc<Vec<LocalComponent>>, u64)> = {
                let inner = lock(&shard.inner);
                inner
                    .map
                    .iter()
                    .filter(|(k, e)| k.dataset == dataset && e.version < new_version)
                    .map(|(k, e)| (k.clone(), e.comps.clone(), e.version))
                    .collect()
            };
            if sampled.is_empty() {
                continue;
            }
            let verdicts: Vec<(CacheKey, u64, bool)> = sampled
                .into_iter()
                .map(|(k, comps, version)| {
                    let kept = keep(&k, &comps);
                    (k, version, kept)
                })
                .collect();
            let mut inner = lock(&shard.inner);
            for (k, version, kept) in verdicts {
                // Only touch the entry we classified: a concurrent
                // insert may have replaced it while the lock was free.
                let Some(e) = inner.map.get_mut(&k) else {
                    continue;
                };
                if e.version != version {
                    continue;
                }
                if kept {
                    e.version = new_version;
                    repairs += 1;
                } else {
                    inner.map.remove(&k);
                    invalidations += 1;
                }
            }
        }
        self.repairs.fetch_add(repairs, Ordering::Relaxed);
        self.invalidations
            .fetch_add(invalidations, Ordering::Relaxed);
        (repairs, invalidations)
    }

    /// Records the cost of one cache-miss preprocessing pass (wall
    /// milliseconds and similarity-metric evaluations). Called by the
    /// session after `get_or_build` returns a miss, so the counters are
    /// attributed even when a concurrent insert won the race.
    pub fn record_preprocess(&self, elapsed_ms: u64, oracle_evals: u64) {
        self.preprocess_ms.fetch_add(elapsed_ms, Ordering::Relaxed);
        self.oracle_evals.fetch_add(oracle_evals, Ordering::Relaxed);
    }

    /// Records one cache miss resolved through the decomposition index:
    /// the miss-path preprocessing ran over `residual_vertices` index
    /// candidates instead of the whole graph.
    pub fn record_index(&self, residual_vertices: u64) {
        self.index_hits.fetch_add(1, Ordering::Relaxed);
        self.residual_vertices
            .fetch_add(residual_vertices, Ordering::Relaxed);
    }

    /// Counter snapshot, merged across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            preprocess_ms: self.preprocess_ms.load(Ordering::Relaxed),
            oracle_evals: self.oracle_evals.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            residual_vertices: self.residual_vertices.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let inner = lock(&shard.inner);
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.evictions += inner.evictions;
            stats.entries += inner.map.len();
            // Exact at snapshot time: lazy dissimilarity rows materialized
            // since insert are included (see `entry_bytes`).
            stats.resident_bytes += inner
                .map
                .values()
                .map(|e| entry_bytes(&e.comps))
                .sum::<u64>();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(dataset: &str, k: u32, r: f64) -> CacheKey {
        CacheKey {
            dataset: dataset.to_string(),
            k,
            r_band: r_band(r),
        }
    }

    fn dummy() -> Vec<LocalComponent> {
        vec![LocalComponent::from_parts(
            vec![vec![1], vec![0]],
            vec![vec![], vec![]],
            1,
        )]
    }

    #[test]
    fn hit_after_miss() {
        let cache = ComponentCache::new(4);
        let k1 = key("d", 3, 0.25);
        let (a, out) = cache.get_or_build(&k1, 0, dummy);
        assert_eq!(
            out,
            LookupOutcome {
                hit: false,
                won: true
            }
        );
        let (b, out) = cache.get_or_build(&k1, 0, || panic!("must not rebuild"));
        assert!(out.hit);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn version_mismatch_is_a_miss_and_replaces_the_stale_entry() {
        let cache = ComponentCache::new(4);
        let k1 = key("d", 3, 0.25);
        cache.get_or_build(&k1, 0, dummy);
        // The dataset mutated (version 1): the resident version-0 entry
        // must not be served.
        let (_, out) = cache.get_or_build(&k1, 1, dummy);
        assert_eq!(
            out,
            LookupOutcome {
                hit: false,
                won: true
            }
        );
        // And the rebuild replaced it: version 1 now hits.
        let (_, out) = cache.get_or_build(&k1, 1, || panic!("must not rebuild"));
        assert!(out.hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }

    #[test]
    fn racing_builders_count_one_miss_total() {
        // The PR 10 double-count pin: two clients race the same cold
        // key; both build, one insert wins, and the merged stats must
        // describe ONE logical build — `misses == 1` and exactly one
        // racer reporting `won` (the one licensed to attribute
        // preprocess stats).
        let cache = Arc::new(ComponentCache::new(4));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let cache = cache.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let k = key("cold", 3, 0.25);
                    let (_, out) = cache.get_or_build(&k, 0, || {
                        barrier.wait(); // both racers are now inside build
                        dummy()
                    });
                    out
                })
            })
            .collect();
        let outcomes: Vec<LookupOutcome> = racers.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(outcomes.iter().all(|o| !o.hit));
        assert_eq!(outcomes.iter().filter(|o| o.won).count(), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one logical build, one miss");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn repair_pass_bumps_kept_entries_and_drops_the_rest() {
        let cache = ComponentCache::new(8);
        cache.get_or_build(&key("d", 2, 0.1), 0, dummy);
        cache.get_or_build(&key("d", 3, 0.1), 0, dummy);
        cache.get_or_build(&key("other", 2, 0.1), 0, dummy);
        // Keep k=2 entries, drop the rest; "other" must be untouched.
        let (repairs, invalidations) = cache.repair_after_mutation("d", 1, |k, _| k.k == 2);
        assert_eq!((repairs, invalidations), (1, 1));
        let stats = cache.stats();
        assert_eq!((stats.repairs, stats.invalidations), (1, 1));
        assert_eq!(stats.entries, 2);
        // The repaired entry serves version 1 without a rebuild...
        let (_, out) = cache.get_or_build(&key("d", 2, 0.1), 1, || panic!("repaired"));
        assert!(out.hit);
        // ...the invalidated one rebuilds...
        let (_, out) = cache.get_or_build(&key("d", 3, 0.1), 1, dummy);
        assert!(!out.hit);
        // ...and the other dataset still hits at its own version.
        let (_, out) = cache.get_or_build(&key("other", 2, 0.1), 0, || panic!("untouched"));
        assert!(out.hit);
    }

    #[test]
    fn panicking_build_leaves_the_shard_usable() {
        // The PR 10 lock-poisoning pin: a session that panics mid-build
        // (engine bug, poisoned downstream lock, anything) must not
        // brick the shard for every later query.
        let cache = Arc::new(ComponentCache::with_shards(4, 1));
        let k1 = key("d", 3, 0.25);
        let cache2 = cache.clone();
        let k = k1.clone();
        let result = std::thread::spawn(move || {
            cache2.get_or_build(&k, 0, || panic!("build blew up"));
        })
        .join();
        assert!(result.is_err(), "the build must have panicked");
        // Same shard (single-shard cache), same key: serving continues.
        let (_, out) = cache.get_or_build(&k1, 0, dummy);
        assert_eq!(
            out,
            LookupOutcome {
                hit: false,
                won: true
            }
        );
        let (_, out) = cache.get_or_build(&k1, 0, || panic!("must not rebuild"));
        assert!(out.hit);
    }

    #[test]
    fn poisoned_shard_lock_recovers_and_counts() {
        // Stronger than the panicking-build pin: poison the shard's
        // actual mutex (a panic while holding it) and verify lookups
        // recover through `sync::lock` instead of propagating the
        // poison, bumping `server.lock_recoveries`.
        let cache = Arc::new(ComponentCache::with_shards(4, 1));
        let before = crate::sync::lock_recoveries().get();
        let cache2 = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = cache2.shards[0].inner.lock().unwrap();
            panic!("poison the shard lock");
        })
        .join();
        let (_, out) = cache.get_or_build(&key("d", 3, 0.25), 0, dummy);
        assert_eq!(
            out,
            LookupOutcome {
                hit: false,
                won: true
            }
        );
        let (_, out) = cache.get_or_build(&key("d", 3, 0.25), 0, || panic!("cached"));
        assert!(out.hit);
        assert!(cache.stats().entries == 1);
        assert!(
            crate::sync::lock_recoveries().get() > before,
            "recoveries must be counted"
        );
    }

    #[test]
    fn r_band_absorbs_float_noise() {
        assert_eq!(key("d", 3, 0.3), key("d", 3, 0.3 + 1e-16));
        assert_ne!(key("d", 3, 0.3), key("d", 3, 0.31));
    }

    #[test]
    fn only_values_outside_the_band_count_as_dissimilar() {
        // 0.1 + 0.2 and 0.3 share a band; r_band(0.3) * R_BAND_WIDTH is
        // 0.30000000000000004, above both.
        for r in [0.3, 0.1 + 0.2, 5.0, 2f64.sqrt()] {
            let band = r_band(r);
            assert!(!beyond_band(false, r, band), "similarity at r = {r}");
            assert!(!beyond_band(true, r, band), "distance at r = {r}");
            assert!(beyond_band(false, r - 1e-6, band));
            assert!(beyond_band(true, r + 1e-6, band));
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ComponentCache::new(2);
        let (ka, kb, kc) = (key("a", 1, 0.1), key("b", 1, 0.1), key("c", 1, 0.1));
        cache.get_or_build(&ka, 0, dummy);
        cache.get_or_build(&kb, 0, dummy);
        cache.get_or_build(&ka, 0, dummy); // refresh a; b is now LRU
        cache.get_or_build(&kc, 0, dummy); // evicts b
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        let (_, out) = cache.get_or_build(&ka, 0, dummy);
        assert!(out.hit, "a must survive");
        let (_, out) = cache.get_or_build(&kb, 0, dummy);
        assert!(!out.hit, "b was evicted");
    }

    #[test]
    fn resident_bytes_track_inserts_and_evictions() {
        let cache = ComponentCache::new(1);
        let per_entry = entry_bytes(&dummy());
        assert!(per_entry > 0);
        cache.get_or_build(&key("a", 1, 0.1), 0, dummy);
        assert_eq!(cache.stats().resident_bytes, per_entry);
        // Same key again: a hit, no double counting.
        cache.get_or_build(&key("a", 1, 0.1), 0, dummy);
        assert_eq!(cache.stats().resident_bytes, per_entry);
        // New key evicts the old entry: footprint stays one entry's worth.
        cache.get_or_build(&key("b", 1, 0.1), 0, dummy);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.resident_bytes, per_entry);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn resident_bytes_grow_as_lazy_rows_materialize() {
        use kr_core::ProblemInstance;
        use kr_similarity::{AttributeTable, DissimMode, Metric, Threshold};
        // Two bridged 4-cliques with cross-side dissimilar pairs; force
        // the lazy dissimilarity view so rows materialize on first touch.
        let mut edges = vec![];
        for group in [[0u32, 1, 2, 3], [3u32, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
        let g = kr_graph::Graph::from_edges(7, &edges);
        let pts = vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (5.0, 0.0),
            (10.0, 0.0),
            (11.0, 0.0),
            (10.0, 1.0),
        ];
        let p = ProblemInstance::new(
            g,
            AttributeTable::points(pts),
            Metric::Euclidean,
            Threshold::MaxDistance(7.0),
            2,
        )
        .with_dissim_mode(DissimMode::Lazy);
        let cache = ComponentCache::new(2);
        let (comps, out) = cache.get_or_build(&key("lazy", 2, 7.0), 0, || p.preprocess());
        assert!(!out.hit);
        assert!(comps.iter().any(|c| c.is_dissimilarity_lazy()));
        let before = cache.stats().resident_bytes;
        // Touch every dissimilarity row through the slice accessor — the
        // materialization point — and re-snapshot: the entry grew in
        // place, and the stats must see it without a re-insert.
        let mut materialized = 0usize;
        for c in comps.iter() {
            for v in 0..c.len() as u32 {
                materialized += c.dissimilar(v).len();
            }
        }
        assert!(materialized > 0, "instance must have dissimilar pairs");
        let after = cache.stats().resident_bytes;
        assert!(
            after > before,
            "snapshot must grow with materialized rows ({before} -> {after})"
        );
    }

    #[test]
    fn preprocess_counters_accumulate() {
        let cache = ComponentCache::new(4);
        assert_eq!(cache.stats().preprocess_ms, 0);
        assert_eq!(cache.stats().oracle_evals, 0);
        cache.record_preprocess(12, 400);
        cache.record_preprocess(3, 100);
        let stats = cache.stats();
        assert_eq!(stats.preprocess_ms, 15);
        assert_eq!(stats.oracle_evals, 500);
    }

    #[test]
    fn index_counters_accumulate() {
        let cache = ComponentCache::new(4);
        assert_eq!(cache.stats().index_hits, 0);
        assert_eq!(cache.stats().residual_vertices, 0);
        cache.record_index(120);
        cache.record_index(30);
        let stats = cache.stats();
        assert_eq!(stats.index_hits, 2);
        assert_eq!(stats.residual_vertices, 150);
    }

    #[test]
    fn shard_count_respects_capacity_and_min_slots() {
        assert_eq!(ComponentCache::new(1).shard_count(), 1);
        assert_eq!(ComponentCache::new(8).shard_count(), 2);
        assert_eq!(ComponentCache::new(16).shard_count(), 4);
        assert_eq!(ComponentCache::new(1024).shard_count(), DEFAULT_SHARDS);
        // Explicit shard counts are clamped to [1, capacity].
        assert_eq!(ComponentCache::with_shards(2, 8).shard_count(), 2);
        assert_eq!(ComponentCache::with_shards(64, 0).shard_count(), 1);
    }

    #[test]
    fn shard_capacities_sum_to_requested_capacity() {
        // 10 slots over 4 shards: 3+3+2+2. Overfill with distinct keys
        // and check the merged entry count never exceeds the requested
        // capacity (the per-shard bounds sum exactly to it).
        let cache = ComponentCache::with_shards(10, 4);
        for i in 0..50 {
            cache.get_or_build(&key(&format!("d{i}"), 1, 0.1), 0, dummy);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 10, "entries = {}", stats.entries);
        assert_eq!(stats.misses, 50);
        assert_eq!(stats.evictions as usize, 50 - stats.entries);
    }

    #[test]
    fn sharded_stats_match_single_lock_totals() {
        // The PR 8 equivalence check: replay one workload (hits, misses,
        // preprocess/index attributions — no evictions, the capacity is
        // ample) against a single-lock cache and an 8-way sharded one.
        // The merged statistics must be identical.
        let replay = |cache: &ComponentCache| {
            for round in 0..3 {
                for i in 0..16 {
                    let k = key(&format!("d{}", i % 8), 2 + (i % 3) as u32, 0.1 * i as f64);
                    let (_, out) = cache.get_or_build(&k, 0, dummy);
                    if out.won {
                        cache.record_preprocess(5, 100);
                        cache.record_index(40);
                    }
                    let _ = round;
                }
            }
            cache.stats()
        };
        let single = replay(&ComponentCache::with_shards(64, 1));
        let sharded = replay(&ComponentCache::with_shards(64, 8));
        assert_eq!(single, sharded);
        assert!(single.hits > 0 && single.misses > 0);
        assert_eq!(single.evictions, 0);
    }

    #[test]
    fn distinct_params_distinct_entries() {
        let cache = ComponentCache::new(8);
        cache.get_or_build(&key("d", 3, 0.25), 0, dummy);
        let (_, out) = cache.get_or_build(&key("d", 4, 0.25), 0, dummy);
        assert!(!out.hit);
        let (_, out) = cache.get_or_build(&key("d", 3, 0.5), 0, dummy);
        assert!(!out.hit);
        assert_eq!(cache.stats().entries, 3);
    }
}
