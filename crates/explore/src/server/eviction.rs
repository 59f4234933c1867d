//! Cache lifecycle management for long-lived evaluator processes.
//!
//! An unbounded memo is fine for one-shot CLI sweeps, fatal for a server
//! that evaluates millions of cells over weeks. [`EvictingCache`] is the
//! result cache the [`EvaluatorPool`](crate::pool::EvaluatorPool) uses:
//!
//! * **byte budget** — an optional global budget, split evenly across the
//!   shards; inserts that would exceed a shard's slice evict its
//!   least-recently-used entries first (cost-aware: every entry is charged
//!   its approximate heap footprint, so one giant row displaces many small
//!   ones rather than sneaking in for free),
//! * **in-flight coalescing** — concurrent requests for the same
//!   (design, options) key wait for the one evaluation in progress instead
//!   of re-running HLS; with requests multiplexed onto one pool this is
//!   what makes cross-request sharing deterministic rather than a race,
//! * **observable** — hit/coalesced/miss/eviction counters and live
//!   entry/byte gauges, surfaced by the server's `stats` request.
//!
//! Eviction never changes what an evaluation returns: rows are pure
//! functions of (design, library, options), so an evicted entry is merely
//! recomputed on the next miss. The proptest in `tests/pool_eviction.rs`
//! pins this down against the unbudgeted pool.

use crate::pool::HitMiss;
use adhls_core::dse::DseRow;
use adhls_ir::{Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of independent shards (reduces lock contention).
const SHARDS: usize = 16;

/// Approximate per-entry bookkeeping overhead (hash-map slot, key, LRU
/// metadata) charged on top of the row payload.
const ENTRY_OVERHEAD: usize = 48;

/// Approximate heap cost of caching one row, in bytes.
#[must_use]
pub fn row_cost(row: &DseRow) -> usize {
    ENTRY_OVERHEAD + std::mem::size_of::<DseRow>() + row.name.len()
}

/// How a [`EvictingCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Found in the cache.
    Hit,
    /// Waited for another thread's in-flight evaluation of the same key.
    Coalesced,
    /// Evaluated by this call.
    Computed,
}

/// A point-in-time snapshot of the cache's counters and gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups answered by waiting on a concurrent in-flight evaluation.
    pub coalesced: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Entries evicted to respect the byte budget (including rows too big
    /// to cache at all).
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached (incl. per-entry overhead).
    pub bytes: usize,
    /// The configured byte budget (`None` = unbounded).
    pub capacity_bytes: Option<usize>,
}

impl CacheStats {
    /// Collapses the counters to the named hit/miss pair every cache
    /// surface shares (see [`HitMiss`]). Coalesced in-flight waits count as
    /// hits: from the caller's perspective both avoided an HLS run.
    #[must_use]
    pub fn hit_miss(&self) -> HitMiss {
        HitMiss {
            hits: self.hits + self.coalesced,
            misses: self.misses,
        }
    }
}

struct Entry {
    row: DseRow,
    cost: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// Recency index: `last_used` tick → key. Ticks are unique within a
    /// shard, so the first entry is always the LRU victim — eviction is
    /// O(log n) instead of a full scan per evicted entry (a server shard
    /// can hold tens of thousands of entries, and the scan runs inside
    /// the shard lock).
    order: BTreeMap<u64, u64>,
    bytes: usize,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: u64) -> Option<DseRow> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(&key)?;
        self.order.remove(&e.last_used);
        self.order.insert(tick, key);
        e.last_used = tick;
        Some(e.row.clone())
    }

    /// Inserts under `budget`, evicting LRU entries first. Returns how many
    /// entries were evicted (the new row itself counts as evicted when it
    /// exceeds the whole shard budget and cannot be cached at all).
    fn insert(&mut self, key: u64, row: DseRow, budget: Option<usize>) -> u64 {
        let cost = row_cost(&row);
        if let Some(budget) = budget {
            if cost > budget {
                return 1;
            }
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                row,
                cost,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.cost;
            self.order.remove(&old.last_used);
        }
        self.bytes += cost;
        self.order.insert(self.tick, key);
        let mut evicted = 0;
        if let Some(budget) = budget {
            // The just-inserted key can never be the victim: it holds the
            // newest tick, and a shard whose only entry is the new one is
            // within budget (cost <= budget was checked above).
            while self.bytes > budget {
                let (_, lru) = self
                    .order
                    .pop_first()
                    .expect("over budget implies an evictable entry");
                let e = self.map.remove(&lru).expect("lru key present");
                self.bytes -= e.cost;
                evicted += 1;
            }
        }
        evicted
    }
}

/// One in-flight evaluation other threads can wait on.
struct Inflight {
    slot: Mutex<Option<Result<DseRow>>>,
    done: Condvar,
}

impl Inflight {
    fn publish(&self, result: Result<DseRow>) {
        let mut slot = self.slot.lock().expect("inflight slot poisoned");
        *slot = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<DseRow> {
        let mut slot = self.slot.lock().expect("inflight slot poisoned");
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.done.wait(slot).expect("inflight slot poisoned");
        }
    }
}

/// Publishes a panic-shaped error if the computing thread unwinds before
/// publishing a real result — without this, waiters on the in-flight slot
/// would block forever behind a panicked evaluation.
struct PublishGuard<'a> {
    cache: &'a EvictingCache,
    key: u64,
    inflight: &'a Arc<Inflight>,
    published: bool,
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        {
            let mut map = self.cache.inflight.lock().expect("inflight map poisoned");
            map.remove(&self.key);
        }
        if !self.published {
            self.inflight.publish(Err(Error::Interp(
                "in-flight evaluation panicked before publishing".into(),
            )));
        }
    }
}

/// A sharded result cache with an optional byte budget (LRU, cost-aware
/// eviction) and in-flight request coalescing. See the module docs.
pub struct EvictingCache {
    shards: [Mutex<Shard>; SHARDS],
    inflight: Mutex<HashMap<u64, Arc<Inflight>>>,
    shard_budget: Option<usize>,
    capacity: Option<usize>,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for EvictingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("EvictingCache")
            .field("capacity_bytes", &self.capacity)
            .field("entries", &s.entries)
            .field("bytes", &s.bytes)
            .finish_non_exhaustive()
    }
}

impl EvictingCache {
    /// A cache bounded to roughly `capacity_bytes` (`None` = unbounded,
    /// the one-shot CLI default). The budget is split
    /// evenly across the shards, so the worst-case overshoot of the global
    /// budget is zero: each shard enforces its slice under its own lock.
    #[must_use]
    pub fn new(capacity_bytes: Option<usize>) -> Self {
        EvictingCache {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            inflight: Mutex::new(HashMap::new()),
            shard_budget: capacity_bytes.map(|c| c / SHARDS),
            capacity: capacity_bytes,
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key % SHARDS as u64) as usize]
    }

    /// Looks `key` up; on a miss, either waits for a concurrent in-flight
    /// evaluation of the same key or runs `compute` itself and caches the
    /// result. The returned row is bit-identical no matter which path was
    /// taken (rows are pure functions of the key's preimage).
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (shared verbatim with coalesced
    /// waiters; errors are not cached, so a later lookup retries).
    pub fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<DseRow>,
    ) -> (Result<DseRow>, Outcome) {
        if let Some(row) = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .touch(key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(row), Outcome::Hit);
        }
        // Claim or join the in-flight slot for this key.
        let (inflight, claimed) = {
            let mut map = self.inflight.lock().expect("inflight map poisoned");
            match map.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Inflight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !claimed {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return (inflight.wait(), Outcome::Coalesced);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = PublishGuard {
            cache: self,
            key,
            inflight: &inflight,
            published: false,
        };
        let result = compute();
        if let Ok(row) = &result {
            let evicted = self
                .shard(key)
                .lock()
                .expect("cache shard poisoned")
                .insert(key, row.clone(), self.shard_budget);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        inflight.publish(result.clone());
        guard.published = true;
        drop(guard);
        (result, Outcome::Computed)
    }

    /// Point-in-time counters and gauges.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for s in &self.shards {
            let s = s.lock().expect("cache shard poisoned");
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity_bytes: self.capacity,
        }
    }

    /// Number of cached rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_core::power::PowerReport;

    fn row(name: &str) -> DseRow {
        DseRow {
            name: name.into(),
            a_conv: 10.0,
            a_slack: 9.0,
            save_pct: 10.0,
            power: PowerReport {
                dynamic: 1.0,
                leakage: 1.0,
                total: 2.0,
            },
            throughput: 100.0,
            latency_ps: 10_000.0,
            clock_ps: 1000,
        }
    }

    #[test]
    fn hit_after_compute_and_stats_track_both() {
        let c = EvictingCache::new(None);
        let (r, o) = c.get_or_compute(7, || Ok(row("a")));
        assert_eq!(o, Outcome::Computed);
        let (r2, o2) = c.get_or_compute(7, || panic!("must not recompute"));
        assert_eq!(o2, Outcome::Hit);
        assert_eq!(r.unwrap(), r2.unwrap());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.entries, 1);
        assert!(s.bytes >= row_cost(&row("a")));
    }

    #[test]
    fn budget_is_respected_and_evictions_counted() {
        // Budget for ~2 entries per shard; hammer one shard (keys share
        // key % 16) so eviction must kick in.
        let per_entry = row_cost(&row("r000"));
        let c = EvictingCache::new(Some(per_entry * 2 * SHARDS));
        for i in 0..20u64 {
            let name = format!("r{i:03}");
            let (r, _) = c.get_or_compute(i * SHARDS as u64, || Ok(row(&name)));
            r.unwrap();
        }
        let s = c.stats();
        assert!(s.evictions >= 18, "evictions: {}", s.evictions);
        assert!(s.bytes <= per_entry * 2, "one shard over its slice");
        assert_eq!(s.entries, c.len());
    }

    #[test]
    fn lru_keeps_recently_used_entries() {
        let per_entry = row_cost(&row("r0"));
        let c = EvictingCache::new(Some(per_entry * 2 * SHARDS));
        let k = |i: u64| i * SHARDS as u64; // all in shard 0
        c.get_or_compute(k(1), || Ok(row("r1"))).0.unwrap();
        c.get_or_compute(k(2), || Ok(row("r2"))).0.unwrap();
        // Touch r1 so r2 is the LRU when r3 arrives.
        assert_eq!(c.get_or_compute(k(1), || unreachable!()).1, Outcome::Hit);
        c.get_or_compute(k(3), || Ok(row("r3"))).0.unwrap();
        assert_eq!(c.get_or_compute(k(1), || unreachable!()).1, Outcome::Hit);
        assert_eq!(
            c.get_or_compute(k(2), || Ok(row("r2"))).1,
            Outcome::Computed,
            "r2 was the LRU and must have been evicted"
        );
    }

    #[test]
    fn oversized_rows_are_not_cached_but_still_returned() {
        let c = EvictingCache::new(Some(SHARDS)); // 1 byte per shard
        let (r, o) = c.get_or_compute(1, || Ok(row("giant")));
        assert_eq!(o, Outcome::Computed);
        assert_eq!(r.unwrap().name, "giant");
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn errors_are_shared_but_not_cached() {
        let c = EvictingCache::new(None);
        let (r, _) = c.get_or_compute(5, || Err(Error::Interp("boom".into())));
        assert!(r.is_err());
        // Next lookup retries the computation rather than replaying the
        // cached failure.
        let (r2, o2) = c.get_or_compute(5, || Ok(row("ok")));
        assert_eq!(o2, Outcome::Computed);
        assert_eq!(r2.unwrap().name, "ok");
    }

    #[test]
    fn concurrent_same_key_coalesces_onto_one_computation() {
        use std::sync::atomic::AtomicUsize;
        let c = EvictingCache::new(None);
        let computed = AtomicUsize::new(0);
        let gate = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    gate.wait();
                    let (r, _) = c.get_or_compute(9, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Hold the in-flight window open long enough for
                        // the other threads to join it.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(row("shared"))
                    });
                    assert_eq!(r.unwrap().name, "shared");
                });
            }
        });
        assert_eq!(
            computed.load(Ordering::Relaxed),
            1,
            "exactly one thread computes; the rest coalesce or hit"
        );
        let s = c.stats();
        assert_eq!(s.hits + s.coalesced, 7);
    }

    #[test]
    fn publish_guard_unblocks_waiters_on_panic() {
        let c = EvictingCache::new(None);
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.get_or_compute(3, || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("evaluation blew up")
                    })
                }));
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            let waiter = scope.spawn(|| c.get_or_compute(3, || Ok(row("late"))));
            let (r, _) = waiter.join().unwrap();
            // Either the waiter coalesced onto the panicked slot (error) or
            // arrived after cleanup and computed fresh — both must return,
            // never hang.
            if let Ok(row) = r {
                assert_eq!(row.name, "late");
            }
            panicker.join().unwrap();
        });
    }
}
