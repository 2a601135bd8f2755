//! The sharded, read-mostly decomposition cost cache.
//!
//! Thousands of consolidated blocks across a benchmark batch share a
//! handful of Weyl-chamber classes (every routed SWAP is the same class,
//! every `CX` the same class, …), yet the cost models re-derive the
//! decomposition for each block. [`DecompositionCache`] memoizes any
//! [`CostModel`] keyed by the block's [`WeylKey`].
//!
//! **Exactness.** The quantized key only selects a hash bucket; within a
//! bucket, entries are matched on the *exact bit pattern* of the query
//! coordinates. A cached answer is therefore always the same `f64`s the
//! wrapped model would have produced — the cached engine stays bit-for-bit
//! identical to the uncached one, never "close enough".
//!
//! **Concurrency.** The table is split into shards, each behind its own
//! `RwLock`; lookups take a read lock, and a miss takes a short write lock
//! only to install an empty [`OnceLock`] cell. The cost itself is computed
//! *outside* every shard lock via `OnceLock::get_or_init`, so threads
//! racing on the same fresh target block on the one in-flight computation
//! instead of repeating it — without a cell, N workers starting on a batch
//! would each pay the full synthesis for the same first-seen classes (a
//! cold-start thundering herd measured at N× the cached runtime).

use paradrive_transpiler::{CostModel, GateCost};
use paradrive_weyl::{WeylKey, WeylPoint};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Hit/miss counters and current size of a [`DecompositionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to run the wrapped cost model.
    pub misses: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Component-wise sum — aggregates the per-model caches for reports.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

/// Counters for one lock domain of a [`DecompositionCache`] (see
/// [`DecompositionCache::shard_stats`]).
///
/// Shard assignment comes from a per-cache `RandomState` hasher, so the
/// *distribution* across shards varies run to run even though the summed
/// totals are deterministic. Per-shard numbers therefore belong in traces
/// (wall-clock-bearing diagnostics), never in deterministic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups this shard answered from its table.
    pub hits: u64,
    /// Lookups that ran the wrapped cost model.
    pub misses: u64,
    /// Fresh cells installed (one per distinct coordinate seen).
    pub inserts: u64,
    /// Nanoseconds threads spent blocked on another thread's in-flight
    /// `OnceLock` computation (the cold-start thundering-herd cost the
    /// cell design amortizes).
    pub wait_ns: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

/// One shard entry: the exact query coordinates and a write-once cell the
/// first owner fills (waiters block on it instead of recomputing).
/// Near-identical points that share a [`WeylKey`] bucket but differ in
/// their bits coexist in the bucket's vector (it stays length 1 in
/// practice — the quantum is below extraction noise).
type Bucket = Vec<(WeylPoint, Arc<OnceLock<GateCost>>)>;

/// One lock domain: its table plus its own counters, so the hot path
/// never touches cache-global atomics shared across every worker.
#[derive(Default)]
struct Shard {
    table: RwLock<HashMap<WeylKey, Bucket>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    wait_ns: AtomicU64,
}

/// A sharded memoization table for [`CostModel::cost`].
///
/// One cache serves one model — costs are a property of the (model,
/// target) pair, so wrap each model in its own cache (or its own
/// [`CachedCostModel`]).
pub struct DecompositionCache {
    shards: Vec<Shard>,
    hasher: RandomState,
}

impl Default for DecompositionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DecompositionCache {
    /// Default shard count: enough to keep write contention negligible at
    /// any realistic worker count without bloating the structure.
    const DEFAULT_SHARDS: usize = 16;

    /// Creates an empty cache with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Creates an empty cache with `shards` independent lock domains.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        DecompositionCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard_of(&self, key: WeylKey) -> &Shard {
        let h = self.hasher.hash_one(key);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Exact bit-pattern equality (`-0.0` and `0.0` are distinct, which at
    /// worst duplicates a bucket entry — never a wrong answer).
    fn same_bits(a: WeylPoint, b: WeylPoint) -> bool {
        a.c1.to_bits() == b.c1.to_bits()
            && a.c2.to_bits() == b.c2.to_bits()
            && a.c3.to_bits() == b.c3.to_bits()
    }

    /// Returns `model.cost(target)`, memoized.
    pub fn cost_through(&self, model: &dyn CostModel, target: WeylPoint) -> GateCost {
        let key = WeylKey::new(target);
        let shard = self.shard_of(key);
        let find = |bucket: &Bucket| {
            bucket
                .iter()
                .find(|(p, _)| Self::same_bits(*p, target))
                .map(|(_, cell)| Arc::clone(cell))
        };
        let cell = {
            let table = shard.table.read().expect("cache shard poisoned");
            table.get(&key).and_then(find)
        };
        let cell = cell.unwrap_or_else(|| {
            // Install (or adopt a racer's) empty cell under a short write
            // lock; the model itself never runs while a shard is locked.
            let mut table = shard.table.write().expect("cache shard poisoned");
            let bucket = table.entry(key).or_default();
            find(bucket).unwrap_or_else(|| {
                let fresh = Arc::new(OnceLock::new());
                bucket.push((target, Arc::clone(&fresh)));
                shard.inserts.fetch_add(1, Ordering::Relaxed);
                fresh
            })
        });
        // The warm path: the cell is already filled — count the hit and
        // skip the clock entirely.
        if let Some(cost) = cell.get() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return *cost;
        }
        // First owner computes (possibly milliseconds of synthesis); every
        // concurrent waiter blocks here instead of duplicating the work.
        // Waiters still count as hits (the totals stay identical to the
        // pre-instrumented cache), but their blocked time is attributed to
        // the shard's `wait_ns` so traces can show the cold-start herd.
        let blocked = Instant::now();
        let mut computed = false;
        let cost = *cell.get_or_init(|| {
            computed = true;
            model.cost(target)
        });
        if computed {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            shard
                .wait_ns
                .fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        cost
    }

    /// Snapshot of the hit/miss counters and entry count, summed over
    /// every shard. The totals are deterministic (a pure function of the
    /// lookups made), unlike the per-shard split.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for s in self.shard_stats() {
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.entries += s.entries;
        }
        stats
    }

    /// Per-shard counter snapshot, in shard-index order — trace/diagnostic
    /// data (see [`ShardStats`] on why it must stay out of reports).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                inserts: s.inserts.load(Ordering::Relaxed),
                wait_ns: s.wait_ns.load(Ordering::Relaxed),
                entries: s
                    .table
                    .read()
                    .expect("cache shard poisoned")
                    .values()
                    .map(Vec::len)
                    .sum(),
            })
            .collect()
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.table.write().expect("cache shard poisoned").clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
            shard.inserts.store(0, Ordering::Relaxed);
            shard.wait_ns.store(0, Ordering::Relaxed);
        }
    }
}

/// A [`CostModel`] adapter that answers through a [`DecompositionCache`].
///
/// Borrows both halves so one long-lived cache can serve many scheduling
/// passes (and many worker threads — the adapter is `Sync` whenever the
/// wrapped model is).
pub struct CachedCostModel<'a> {
    inner: &'a dyn CostModel,
    cache: &'a DecompositionCache,
}

impl<'a> CachedCostModel<'a> {
    /// Wraps `inner` with `cache`.
    pub fn new(inner: &'a dyn CostModel, cache: &'a DecompositionCache) -> Self {
        CachedCostModel { inner, cache }
    }
}

impl CostModel for CachedCostModel<'_> {
    fn cost(&self, target: WeylPoint) -> GateCost {
        self.cache.cost_through(self.inner, target)
    }

    fn d_1q(&self) -> f64 {
        self.inner.d_1q()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A model that counts how often it is actually consulted.
    struct Counting {
        calls: AtomicUsize,
    }

    impl Counting {
        fn new() -> Self {
            Counting {
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl CostModel for Counting {
        fn cost(&self, target: WeylPoint) -> GateCost {
            self.calls.fetch_add(1, Ordering::Relaxed);
            GateCost {
                two_q_time: target.c1,
                one_q_layers: 2,
            }
        }
        fn d_1q(&self) -> f64 {
            0.25
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn repeated_lookups_hit() {
        let cache = DecompositionCache::new();
        let model = Counting::new();
        for _ in 0..10 {
            let c = cache.cost_through(&model, WeylPoint::CNOT);
            assert_eq!(c.two_q_time, WeylPoint::CNOT.c1);
        }
        assert_eq!(model.calls.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (9, 1, 1));
        assert!((stats.hit_rate().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn distinct_points_miss_separately() {
        let cache = DecompositionCache::new();
        let model = Counting::new();
        cache.cost_through(&model, WeylPoint::CNOT);
        cache.cost_through(&model, WeylPoint::SWAP);
        cache.cost_through(&model, WeylPoint::ISWAP);
        assert_eq!(model.calls.load(Ordering::Relaxed), 3);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn cached_answers_are_bit_exact() {
        let cache = DecompositionCache::new();
        let model = Counting::new();
        // An awkward, noise-like coordinate.
        let p = WeylPoint::new(0.123456789012345, 0.04, 0.01);
        let fresh = model.cost(p);
        let via_cache = cache.cost_through(&model, p);
        let again = cache.cost_through(&model, p);
        assert_eq!(fresh.two_q_time.to_bits(), via_cache.two_q_time.to_bits());
        assert_eq!(fresh.two_q_time.to_bits(), again.two_q_time.to_bits());
    }

    #[test]
    fn sub_quantum_twins_share_a_bucket_but_not_an_entry() {
        // Two points inside the same lattice cell but with different bits:
        // both get exact answers, and the bucket holds both.
        let cache = DecompositionCache::new();
        let model = Counting::new();
        let p = WeylPoint::new(0.5, 0.1, 0.05);
        let twin = WeylPoint::new(0.5 + 1e-13, 0.1, 0.05);
        assert_eq!(WeylKey::new(p), WeylKey::new(twin));
        let cp = cache.cost_through(&model, p);
        let ct = cache.cost_through(&model, twin);
        assert_eq!(cp.two_q_time.to_bits(), p.c1.to_bits());
        assert_eq!(ct.two_q_time.to_bits(), twin.c1.to_bits());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = DecompositionCache::new();
        let model = Counting::new();
        cache.cost_through(&model, WeylPoint::CNOT);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.cost_through(&model, WeylPoint::CNOT);
        assert_eq!(model.calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = DecompositionCache::with_shards(4);
        let model = Counting::new();
        let points: Vec<WeylPoint> = (0..64)
            .map(|i| WeylPoint::new(0.01 + i as f64 * 0.02, 0.005, 0.0))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for &p in &points {
                        let c = cache.cost_through(&model, p);
                        assert_eq!(c.two_q_time.to_bits(), p.c1.to_bits());
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, points.len());
        assert_eq!(stats.hits + stats.misses, 4 * points.len() as u64);
    }

    #[test]
    fn shard_stats_sum_to_totals() {
        let cache = DecompositionCache::with_shards(4);
        let model = Counting::new();
        for p in [WeylPoint::CNOT, WeylPoint::SWAP, WeylPoint::ISWAP] {
            cache.cost_through(&model, p);
            cache.cost_through(&model, p);
        }
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 4);
        let (hits, misses, inserts, entries) = shards
            .iter()
            .fold((0u64, 0u64, 0u64, 0usize), |(h, m, i, e), s| {
                (h + s.hits, m + s.misses, i + s.inserts, e + s.entries)
            });
        let totals = cache.stats();
        assert_eq!(
            (hits, misses, entries),
            (totals.hits, totals.misses, totals.entries)
        );
        assert_eq!((hits, misses, inserts, entries), (3, 3, 3, 3));
        cache.clear();
        assert!(cache
            .shard_stats()
            .iter()
            .all(|s| *s == ShardStats::default()));
    }

    #[test]
    fn adapter_forwards_metadata() {
        let cache = DecompositionCache::new();
        let model = Counting::new();
        let cached = CachedCostModel::new(&model, &cache);
        assert_eq!(cached.d_1q(), 0.25);
        assert_eq!(cached.name(), "counting");
        let c = cached.cost(WeylPoint::B);
        assert_eq!(c.two_q_time.to_bits(), WeylPoint::B.c1.to_bits());
    }
}
