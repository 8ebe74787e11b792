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
//!
//! **Stored answers.** An AdvEnum / AdvMax answer (and a BasicEnum /
//! BasicMax one) depends only on the components, so each entry also
//! keeps one complete answer per `(command, algo)` in its
//! [`CachedComponents`]. The session fills a slot on an entry's first
//! hit, after checking the answer with `kr_core::verify`, and later hits
//! replay it without searching. The slots live and die with the entry:
//! a repair keeps them, an invalidation, a stale rebuild or an eviction
//! drops them.

use crate::protocol::Algo;
use crate::sync::lock;
use kr_core::LocalComponent;
use kr_graph::VertexId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

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
    /// Flat memory footprint of all resident component sets and their
    /// stored answers, in bytes. Exact, not an estimate: the CSR arenas
    /// have no per-vertex allocations, so [`LocalComponent::memory_bytes`]
    /// covers every heap byte a component owns, and an answer's bytes
    /// are its vectors' capacities. Re-sampled
    /// from the live entries at snapshot time rather than ledgered at
    /// insert: stored answers fill an entry's slots *after* it is cached,
    /// and the snapshot must account for them (the components themselves
    /// never grow after their build).
    pub resident_bytes: u64,
    /// Total wall-clock milliseconds spent preprocessing on cache
    /// misses: the microseconds of every miss, summed, then divided by
    /// 1000, so sub-millisecond misses still add up. Together with
    /// `misses` this gives operators the average cold-query
    /// preprocessing cost.
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

/// The command a query runs; with its [`Algo`] it picks an entry's
/// stored-answer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryKind {
    /// All maximal (k,r)-cores.
    Enumerate,
    /// One maximum (k,r)-core.
    Maximum,
}

/// A complete answer a search produced on a cache entry's components and
/// `kr_core::verify` accepted. An answer depends only on the components,
/// so it stays exact for as long as the entry does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredAnswer {
    /// The cores, each sorted, in the order the run that produced them
    /// sent them: discovery order for a streaming enumeration.
    pub cores: Vec<Vec<VertexId>>,
    /// Search nodes that run visited.
    pub nodes: u64,
}

impl StoredAnswer {
    /// Heap and inline bytes of the answer.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.cores.capacity() * std::mem::size_of::<Vec<VertexId>>()
            + self
                .cores
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<VertexId>())
                .sum::<usize>()
    }
}

/// What one cache entry shares through its `Arc`: the preprocessed
/// components, read as a slice, and one stored-answer slot per
/// `(command, algo)`, empty until a hit fills it.
#[derive(Debug)]
pub struct CachedComponents {
    comps: Vec<LocalComponent>,
    /// Indexed by [`CachedComponents::answer`].
    answers: [OnceLock<StoredAnswer>; 4],
}

impl CachedComponents {
    /// Components with every answer slot empty.
    pub(crate) fn new(comps: Vec<LocalComponent>) -> Self {
        CachedComponents {
            comps,
            answers: Default::default(),
        }
    }

    /// The stored-answer slot of `kind` queries under `algo`.
    pub(crate) fn answer(&self, kind: QueryKind, algo: Algo) -> &OnceLock<StoredAnswer> {
        let i = match kind {
            QueryKind::Enumerate => 0,
            QueryKind::Maximum => 2,
        } + match algo {
            Algo::Adv => 0,
            Algo::Basic => 1,
        };
        &self.answers[i]
    }

    /// Flat footprint **right now**: the components plus every stored
    /// answer. Not a constant: the components are fixed once built, but
    /// hits fill answer slots, so footprints are re-sampled per snapshot
    /// instead of recorded once at insert.
    pub(crate) fn memory_bytes(&self) -> u64 {
        let comps: usize = self.comps.iter().map(LocalComponent::memory_bytes).sum();
        let answers: usize = self
            .answers
            .iter()
            .filter_map(OnceLock::get)
            .map(StoredAnswer::memory_bytes)
            .sum();
        (comps + answers) as u64
    }
}

impl std::ops::Deref for CachedComponents {
    type Target = [LocalComponent];

    fn deref(&self) -> &[LocalComponent] {
        &self.comps
    }
}

struct Entry {
    comps: Arc<CachedComponents>,
    /// Dataset version the components were preprocessed against. A
    /// lookup at a different version bypasses the entry (stale data is
    /// never served); a mutation's repair pass bumps it in place when
    /// the deltas provably cannot have changed the entry.
    version: u64,
    /// Last-use tick for LRU eviction.
    used: u64,
}

/// Everything the cache's one lock guards: the LRU map and every
/// counter. `counts.entries`, `counts.resident_bytes` and
/// `counts.preprocess_ms` stay 0; [`ComponentCache::stats`] derives them.
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    counts: CacheStats,
    preprocess_us: u64,
}

/// Thread-safe LRU cache of preprocessed component sets: one map under
/// one lock, holding up to `capacity` entries and evicting the least
/// recently used beyond that. The lock is held only for map and counter
/// bookkeeping, never while a miss builds.
pub struct ComponentCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ComponentCache {
    /// A cache holding at most `capacity` component sets (≥ 1).
    pub fn new(capacity: usize) -> Self {
        ComponentCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                counts: CacheStats::default(),
                preprocess_us: 0,
            }),
        }
    }

    /// Looks up `key` at dataset `version`, running `build` on a miss.
    /// Returns the shared component set, with its stored-answer slots,
    /// and what the lookup did. A miss's slots start empty.
    ///
    /// A resident entry counts as a hit only when its recorded dataset
    /// version matches `version`: an entry preprocessed before a
    /// mutation (and not repaired to the new version) is stale and is
    /// rebuilt through `build`, never served.
    ///
    /// The lock is **not** held while `build` runs, so a slow
    /// preprocessing pass never blocks queries for other keys (or
    /// cache-hit queries for the same key issued earlier). Two clients
    /// racing on the same cold key may both build; the first insert
    /// wins, the loser adopts the winner's arena, and **only the winner
    /// counts the miss** — cumulative miss statistics (`misses`,
    /// `preprocess_ms`, `oracle_evals`) describe logical builds, not
    /// racers (see [`LookupOutcome::won`]).
    pub fn get_or_build(
        &self,
        key: &CacheKey,
        version: u64,
        build: impl FnOnce() -> Vec<LocalComponent>,
    ) -> (Arc<CachedComponents>, LookupOutcome) {
        {
            let mut inner = lock(&self.inner);
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(key) {
                if entry.version == version {
                    entry.used = tick;
                    let comps = entry.comps.clone();
                    inner.counts.hits += 1;
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
        let comps = Arc::new(CachedComponents::new(build()));
        let mut inner = lock(&self.inner);
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
            inner.counts.misses += 1;
        }
        while inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            inner.map.remove(&victim).expect("victim present");
            inner.counts.evictions += 1;
        }
        (comps, LookupOutcome { hit: false, won })
    }

    /// Invalidate-and-repair pass after a dataset mutation: every
    /// resident entry belonging to `dataset` is either **repaired** —
    /// `keep` proved the mutation's deltas cannot have changed its
    /// component set, so its version is bumped to `new_version` in place
    /// and the preprocessed arenas and their stored answers keep serving
    /// — or **invalidated** (dropped with its stored answers; the next
    /// query rebuilds). Returns `(repairs,
    /// invalidations)`; the totals also accumulate into
    /// [`CacheStats::repairs`] / [`CacheStats::invalidations`].
    ///
    /// `keep` runs outside the lock (it may probe similarity oracles and
    /// the decomposition index); an entry that changes under us while
    /// unlocked — replaced by a concurrent insert at a newer version — is
    /// left alone.
    pub fn repair_after_mutation(
        &self,
        dataset: &str,
        new_version: u64,
        mut keep: impl FnMut(&CacheKey, &[LocalComponent]) -> bool,
    ) -> (u64, u64) {
        let sampled: Vec<(CacheKey, Arc<CachedComponents>, u64)> = lock(&self.inner)
            .map
            .iter()
            .filter(|(k, e)| k.dataset == dataset && e.version < new_version)
            .map(|(k, e)| (k.clone(), e.comps.clone(), e.version))
            .collect();
        let verdicts: Vec<(CacheKey, u64, bool)> = sampled
            .into_iter()
            .map(|(k, comps, version)| {
                let kept = keep(&k, &comps);
                (k, version, kept)
            })
            .collect();
        let mut repairs = 0u64;
        let mut invalidations = 0u64;
        let mut inner = lock(&self.inner);
        for (k, version, kept) in verdicts {
            // Only touch the entry we classified: a concurrent insert
            // may have replaced it while the lock was free.
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
        inner.counts.repairs += repairs;
        inner.counts.invalidations += invalidations;
        (repairs, invalidations)
    }

    /// Records the cost of one cache miss the caller's build won: its
    /// preprocessing wall time in microseconds, its similarity-metric
    /// evaluations, and the `residual_vertices` decomposition-index
    /// candidates it ran over instead of the whole graph.
    pub fn record_miss(&self, preprocess_us: u64, oracle_evals: u64, residual_vertices: u64) {
        let mut inner = lock(&self.inner);
        inner.preprocess_us += preprocess_us;
        inner.counts.oracle_evals += oracle_evals;
        inner.counts.index_hits += 1;
        inner.counts.residual_vertices += residual_vertices;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = lock(&self.inner);
        CacheStats {
            entries: inner.map.len(),
            // Exact at snapshot time: answers stored since insert are
            // included.
            resident_bytes: inner.map.values().map(|e| e.comps.memory_bytes()).sum(),
            preprocess_ms: inner.preprocess_us / 1_000,
            ..inner.counts
        }
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
        // brick the cache for every later query.
        let cache = Arc::new(ComponentCache::new(4));
        let k1 = key("d", 3, 0.25);
        let cache2 = cache.clone();
        let k = k1.clone();
        let result = std::thread::spawn(move || {
            cache2.get_or_build(&k, 0, || panic!("build blew up"));
        })
        .join();
        assert!(result.is_err(), "the build must have panicked");
        // Same key: serving continues.
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
        // Stronger than the panicking-build pin: poison the cache's
        // actual mutex (a panic while holding it) and verify lookups
        // recover through `sync::lock` instead of propagating the
        // poison, bumping `server.lock_recoveries`.
        let cache = Arc::new(ComponentCache::new(4));
        let before = crate::sync::lock_recoveries().get();
        let cache2 = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = cache2.inner.lock().unwrap();
            panic!("poison the cache lock");
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
        let per_entry = CachedComponents::new(dummy()).memory_bytes();
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

    fn answer() -> StoredAnswer {
        StoredAnswer {
            cores: vec![vec![0, 1], vec![2, 3, 4]],
            nodes: 9,
        }
    }

    #[test]
    fn stored_answers_count_in_resident_bytes() {
        let cache = ComponentCache::new(2);
        let k1 = key("d", 1, 0.1);
        let (comps, _) = cache.get_or_build(&k1, 0, dummy);
        let before = cache.stats().resident_bytes;
        let stored = answer();
        let bytes = stored.memory_bytes() as u64;
        assert!(bytes > std::mem::size_of::<StoredAnswer>() as u64);
        comps
            .answer(QueryKind::Enumerate, Algo::Adv)
            .set(stored)
            .unwrap();
        assert_eq!(cache.stats().resident_bytes, before + bytes);
        // Each (command, algo) has its own slot.
        for (kind, algo) in [
            (QueryKind::Enumerate, Algo::Basic),
            (QueryKind::Maximum, Algo::Adv),
            (QueryKind::Maximum, Algo::Basic),
        ] {
            assert!(comps.answer(kind, algo).get().is_none());
        }
        let (again, _) = cache.get_or_build(&k1, 0, || panic!("cached"));
        assert_eq!(
            again.answer(QueryKind::Enumerate, Algo::Adv).get(),
            Some(&answer())
        );
    }

    #[test]
    fn answers_survive_repair_and_die_with_their_entry() {
        let cache = ComponentCache::new(3);
        let store = |k: &CacheKey, version| {
            let (comps, _) = cache.get_or_build(k, version, dummy);
            comps
                .answer(QueryKind::Maximum, Algo::Adv)
                .set(answer())
                .unwrap();
        };
        let stored = |k: &CacheKey, version| {
            let (comps, _) = cache.get_or_build(k, version, dummy);
            comps.answer(QueryKind::Maximum, Algo::Adv).get().cloned()
        };
        let (kept, dropped, stale) = (key("d", 2, 0.1), key("d", 3, 0.1), key("e", 2, 0.1));
        for k in [&kept, &dropped, &stale] {
            store(k, 0);
        }
        cache.repair_after_mutation("d", 1, |k, _| k.k == 2);
        // Kept by the repair: the answer serves the new version.
        assert_eq!(stored(&kept, 1), Some(answer()));
        // Invalidated by the repair: rebuilt with empty slots.
        assert_eq!(stored(&dropped, 1), None);
        // Looked up at a newer version than it was built at: rebuilt.
        assert_eq!(stored(&stale, 1), None);
        assert_eq!(cache.stats().evictions, 0);
        // Evicted: `kept` is the least recently used entry.
        cache.get_or_build(&key("f", 1, 0.1), 0, dummy);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(stored(&kept, 1), None);
    }

    #[test]
    fn resident_bytes_hold_across_a_search_and_count_stored_answers() {
        use kr_core::{enumerate_maximal_prepared, find_maximum_prepared, AlgoConfig};
        use kr_core::{KrCore, ProblemInstance};
        use kr_similarity::{AttributeTable, Metric, Threshold};
        // Two bridged 4-cliques with cross-side dissimilar pairs.
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
        );
        let cache = ComponentCache::new(2);
        let (comps, out) = cache.get_or_build(&key("one", 2, 7.0), 0, || p.preprocess());
        assert!(!out.hit);
        assert!(comps.iter().any(|c| c.num_dissimilar_pairs > 0));
        let before = cache.stats().resident_bytes;
        assert_eq!(before, comps.memory_bytes());
        // Searching reads the components and never grows them.
        let found = enumerate_maximal_prepared(&comps, &AlgoConfig::adv_enum());
        assert_eq!(found.cores.len(), 2);
        assert!(find_maximum_prepared(&comps, &AlgoConfig::adv_max()).completed);
        assert_eq!(cache.stats().resident_bytes, before);
        // A stored answer is the one thing that grows an entry.
        let stored = StoredAnswer {
            cores: found
                .cores
                .into_iter()
                .map(|c: KrCore| c.vertices)
                .collect(),
            nodes: found.stats.nodes,
        };
        let bytes = stored.memory_bytes() as u64;
        comps
            .answer(QueryKind::Enumerate, Algo::Adv)
            .set(stored)
            .unwrap();
        assert_eq!(cache.stats().resident_bytes, before + bytes);
    }

    #[test]
    fn preprocess_counters_accumulate() {
        let cache = ComponentCache::new(4);
        assert_eq!(cache.stats(), CacheStats::default());
        cache.record_miss(12_400, 400, 120);
        cache.record_miss(3_000, 100, 30);
        let stats = cache.stats();
        assert_eq!(stats.preprocess_ms, 15);
        assert_eq!(stats.oracle_evals, 500);
        assert_eq!(stats.index_hits, 2);
        assert_eq!(stats.residual_vertices, 150);
        // Sub-millisecond misses add up instead of truncating to 0 each:
        // 15 400 + 4 × 600 µs = 17.8 ms.
        for _ in 0..4 {
            cache.record_miss(600, 0, 0);
        }
        assert_eq!(cache.stats().preprocess_ms, 17);
    }

    #[test]
    fn sixteen_distinct_keys_fit_a_sixteen_slot_cache() {
        // `capacity` is one LRU's capacity: 16 distinct keys evict
        // nothing and all hit on replay, whatever their hashes.
        let cache = ComponentCache::new(16);
        let keys: Vec<CacheKey> = (0..16).map(|i| key(&format!("d{i}"), 1, 0.1)).collect();
        for k in &keys {
            cache.get_or_build(k, 0, dummy);
        }
        for k in &keys {
            let (_, out) = cache.get_or_build(k, 0, || panic!("{k:?} was evicted"));
            assert!(out.hit);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (16, 0));
        assert_eq!((stats.misses, stats.hits), (16, 16));
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
