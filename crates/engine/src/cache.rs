//! The read-mostly decomposition cost cache.
//!
//! Thousands of consolidated blocks across a benchmark batch share a
//! handful of Weyl-chamber classes (every routed SWAP is the same class,
//! every `CX` the same class, …), yet the cost models re-derive the
//! decomposition for each block. [`DecompositionCache`] memoizes any
//! [`CostModel`] keyed by the block's canonical coordinates.
//!
//! **Exactness.** The key is the *exact bit pattern* of the query
//! coordinates, so a cached answer is always the same `f64`s the wrapped
//! model would have produced — the cached engine stays bit-for-bit
//! identical to the uncached one, never "close enough". (`-0.0` and `0.0`
//! are distinct keys, which at worst duplicates an entry — never a wrong
//! answer.)
//!
//! **Concurrency.** One map behind one `RwLock`: a hit reads its cell
//! under the read lock, and a miss takes a short write lock only to
//! install an empty [`OnceLock`] cell. The cost itself is computed
//! *outside* the lock via `OnceLock::get_or_init`, so threads racing on
//! the same fresh target block on the one in-flight computation instead
//! of repeating it — without a cell, N workers starting on a batch would
//! each pay the full synthesis for the same first-seen classes (a
//! cold-start thundering herd measured at N× the cached runtime).

use paradrive_transpiler::{CostModel, GateCost};
use paradrive_weyl::WeylPoint;
use std::collections::HashMap;
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

/// The one entry [`DecompositionCache::shard_stats`] returns: the
/// [`CacheStats`] totals plus the time spent waiting on in-flight cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that ran the wrapped cost model.
    pub misses: u64,
    /// Nanoseconds threads spent blocked on another thread's in-flight
    /// `OnceLock` computation (wall clock, so trace-side only).
    pub wait_ns: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

/// A memoization table for [`CostModel::cost`].
///
/// One cache serves one model — costs are a property of the (model,
/// target) pair, so wrap each model in its own cache (or its own
/// [`CachedCostModel`]).
#[derive(Default)]
pub struct DecompositionCache {
    /// Exact coordinate bits → a write-once cell the first owner fills
    /// (waiters block on it instead of recomputing).
    table: RwLock<HashMap<[u64; 3], Arc<OnceLock<GateCost>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    wait_ns: AtomicU64,
}

impl DecompositionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `model.cost(target)`, memoized.
    pub fn cost_through(&self, model: &dyn CostModel, target: WeylPoint) -> GateCost {
        let key = [target.c1, target.c2, target.c3].map(f64::to_bits);
        // The warm path: the cell is already filled — count the hit and
        // return without touching the clock or the cell's refcount.
        let pending = {
            let table = self.table.read().expect("decomposition cache poisoned");
            let cell = table.get(&key);
            if let Some(cost) = cell.and_then(|c| c.get()) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return *cost;
            }
            cell.cloned()
        };
        let cell = pending.unwrap_or_else(|| {
            // Install (or adopt a racer's) empty cell under a short write
            // lock; the model itself never runs while the table is locked.
            let mut table = self.table.write().expect("decomposition cache poisoned");
            Arc::clone(table.entry(key).or_default())
        });
        // First owner computes (possibly milliseconds of synthesis); every
        // concurrent waiter blocks here instead of duplicating the work.
        // Waiters count as hits, and their blocked time goes to `wait_ns`
        // so traces can show the cold-start herd.
        let blocked = Instant::now();
        let mut computed = false;
        let cost = *cell.get_or_init(|| {
            computed = true;
            model.cost(target)
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.wait_ns
                .fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        cost
    }

    /// Snapshot of the hit/miss counters and entry count. They are
    /// deterministic: a pure function of the lookups made.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .table
                .read()
                .expect("decomposition cache poisoned")
                .len(),
        }
    }

    /// Nanoseconds lookups spent blocked on in-flight cells.
    pub(crate) fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// [`DecompositionCache::stats`] and the blocked-wait time as a
    /// one-entry list, for perfbench (`perfbench/src/workload.rs`), which
    /// sums `wait_ns` over it. The engine's own trace carries the same
    /// numbers as `cache.{baseline,optimized}.{hits,misses,wait_ns}`;
    /// this goes once perfbench reads them there.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let stats = self.stats();
        vec![ShardStats {
            hits: stats.hits,
            misses: stats.misses,
            wait_ns: self.wait_ns(),
            entries: stats.entries,
        }]
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
    use paradrive_weyl::WeylKey;
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
        // Two points inside the same `WeylKey` lattice cell but with
        // different bits: the cache keys on the bits, so both get exact
        // answers and entries of their own.
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
    fn concurrent_lookups_agree() {
        let cache = DecompositionCache::new();
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
        let cache = DecompositionCache::new();
        let model = Counting::new();
        for p in [WeylPoint::CNOT, WeylPoint::SWAP, WeylPoint::ISWAP] {
            cache.cost_through(&model, p);
            cache.cost_through(&model, p);
        }
        let totals = cache.stats();
        assert_eq!((totals.hits, totals.misses, totals.entries), (3, 3, 3));
        // One thread filled every cell itself, so nothing waited.
        assert_eq!(
            cache.shard_stats(),
            vec![ShardStats {
                hits: 3,
                misses: 3,
                wait_ns: 0,
                entries: 3,
            }]
        );
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
