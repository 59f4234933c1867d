//! Persistent evaluator pool: worker threads, a sharded result cache, and
//! a shared prefix cache that outlive individual sweeps — the one sweep
//! evaluator behind the CLI, adaptive refinement, and the server.
//!
//! Share the pool via `Arc`, submit batches from any thread, and cells
//! revisited by later sweeps (adaptive refinement re-deriving a
//! neighborhood, two clients exploring overlapping grids) are free.
//!
//! Determinism contract: each point's row is a pure function of (design,
//! library, options), rows are published into per-index slots, and cache
//! hits return bit-identical rows — so a batch's result does not depend on
//! which thread ran which point, how many worker threads exist, or what
//! other batches are in flight.
//!
//! The submitting thread always helps drain its own batch, so a batch makes
//! progress even on a pool with zero background workers (`threads: 1`
//! evaluates serially, in input order) and submitters cannot deadlock
//! waiting on a saturated pool.

use crate::fingerprint::{design_fingerprint, options_fingerprint, Fnv};
use crate::server::eviction::{CacheStats, EvictingCache, Outcome};
use adhls_core::dse::{evaluate_point_from_scratch, evaluate_prepared, DsePoint, DseRow};
use adhls_core::sched::HlsOptions;
use adhls_core::PreparedDesign;
use adhls_ir::{Design, Error, Result};
use adhls_reslib::Library;
use adhls_telemetry::{Registry, Snapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Number of independent prefix-cache shards (reduces lock contention).
const PREFIX_SHARDS: usize = 16;

/// Named hit/miss counters, so call sites can't transpose the two the way
/// a bare `(u64, u64)` tuple silently allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HitMiss {
    /// Lookups that avoided an evaluation, including coalesced in-flight
    /// waits — both served a cached run.
    pub hits: u64,
    /// Lookups that had to run the evaluator.
    pub misses: u64,
}

/// Outcome of one sweep evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// One row per feasible point, in input order.
    pub rows: Vec<DseRow>,
    /// Infeasible points as (name, error message), in input order. Empty
    /// unless [`PoolOptions::skip_infeasible`] is set.
    pub skipped: Vec<(String, String)>,
    /// Cache hits observed during this evaluation.
    pub cache_hits: u64,
    /// Worker threads actually used.
    pub workers: usize,
}

impl SweepResult {
    /// The result's Pareto front projected through `space` — the rows
    /// non-dominated under exactly the space's axes, deterministically
    /// ordered (see [`crate::pareto::pareto_front_in`]).
    #[must_use]
    pub fn front_in(&self, space: &crate::pareto::ObjectiveSpace) -> Vec<DseRow> {
        crate::pareto::pareto_front_in(space, &self.rows)
    }

    /// The result's tradeoff staircase in `space`'s plane (see
    /// [`crate::pareto::tradeoff_staircase_in`]).
    #[must_use]
    pub fn staircase_in(&self, space: &crate::pareto::ObjectiveSpace) -> Vec<DseRow> {
        crate::pareto::tradeoff_staircase_in(space, &self.rows)
    }
}

/// A sharded cache of prepared phase-artifact prefixes, keyed by
/// [`design_fingerprint`] — the clock/flow/II-independent half of the
/// point key, so every cell of a sweep axis over one design (and every
/// serve request touching it) shares one [`PreparedDesign`].
///
/// Soundness: prefix artifacts are a pure function of `(design, library)`;
/// the pool holds one library for its whole lifetime, so the design
/// fingerprint alone identifies the prefix. The satellite proptests in
/// `tests/incremental_equivalence.rs` pin the key contract (insensitive to
/// clock/flow/II/latency knobs, sensitive to structure).
///
/// Consults count `pipeline.prefix.{hit,miss}` and retained artifact bytes
/// move the `pipeline.prefix.bytes` gauge on the thread's registry —
/// observational only, like every other `pipeline.*` metric.
#[derive(Debug, Default)]
struct PrefixCache {
    shards: [Mutex<HashMap<u64, Arc<PreparedDesign>>>; PREFIX_SHARDS],
}

impl PrefixCache {
    /// The prepared prefix for `design`, elaborating and inserting on miss.
    ///
    /// Concurrent first touches of one design may prepare twice; the first
    /// insert wins and both callers see the same artifacts thereafter (the
    /// preparation is a pure function, so the race is benign and the rows
    /// stay deterministic).
    fn get_or_prepare(&self, design: &Design, lib: &Library) -> Result<Arc<PreparedDesign>> {
        let key = design_fingerprint(design);
        let shard = &self.shards[(key % PREFIX_SHARDS as u64) as usize];
        if let Some(prep) = shard.lock().expect("prefix shard poisoned").get(&key) {
            adhls_telemetry::counter_add("pipeline.prefix.hit", 1);
            return Ok(Arc::clone(prep));
        }
        adhls_telemetry::counter_add("pipeline.prefix.miss", 1);
        let prep = Arc::new(PreparedDesign::new(design, lib)?);
        let mut guard = shard.lock().expect("prefix shard poisoned");
        let entry = guard.entry(key).or_insert_with(|| {
            adhls_telemetry::gauge_add("pipeline.prefix.bytes", prep.approx_bytes() as i64);
            Arc::clone(&prep)
        });
        Ok(Arc::clone(entry))
    }
}

/// Result-cache key for one point under `base` options.
///
/// The pipeline-II option is encoded as a separate tag word plus the raw
/// value: the old `ii + 1` trick both overflowed at `u32::MAX` (debug
/// panic) and, in release, wrapped `Some(u32::MAX)` onto the same word as
/// `None` — a silent key collision between a pipelined and a sequential
/// point.
fn point_key(base: &HlsOptions, p: &DsePoint) -> u64 {
    let mut h = Fnv::default();
    h.u64(design_fingerprint(&p.design));
    h.u64(options_fingerprint(base));
    h.u64(p.clock_ps);
    match p.pipeline_ii {
        None => h.u64(0),
        Some(ii) => h.u64(1).u64(u64::from(ii)),
    };
    h.u64(u64::from(p.cycles_per_item));
    h.str(&p.name);
    h.digest()
}

/// Tuning knobs for [`EvaluatorPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolOptions {
    /// Total evaluation threads per batch, counting the submitter; `0` =
    /// one per available core. `1` means no background workers at all
    /// (submitters drain their own batches serially).
    pub threads: usize,
    /// Skip points that fail to schedule (recorded in
    /// [`SweepResult::skipped`]) instead of failing the whole batch.
    pub skip_infeasible: bool,
    /// Approximate byte budget for the cross-request result cache
    /// (`None` = unbounded, the one-shot CLI default). Long-lived servers
    /// should set this; see [`crate::server::eviction`].
    pub cache_bytes: Option<usize>,
    /// Reuse clock-independent prefix artifacts
    /// ([`PreparedDesign`]) across the cells of
    /// a design (default). `false` re-elaborates every point from scratch —
    /// the escape hatch and the benchmark baseline; rows are bit-identical
    /// either way.
    pub incremental: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            threads: 0,
            skip_infeasible: false,
            cache_bytes: None,
            incremental: true,
        }
    }
}

/// One submitted sweep: its points, result slots, and completion state.
///
/// Claiming is a single shared counter, so claimed indices always form a
/// contiguous prefix and every claimed slot is eventually filled by its
/// claimer, which is what makes pool results bit-identical to serial
/// evaluation.
struct Batch {
    points: Vec<DsePoint>,
    skip_infeasible: bool,
    next: AtomicUsize,
    filled: AtomicUsize,
    slots: Vec<OnceLock<Result<DseRow>>>,
    hits: AtomicU64,
    failed: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Submission time, captured only when the pool's telemetry is enabled
    /// (the pool records submit→start and start→done latencies from it).
    submitted: Option<Instant>,
    /// First claim time, set by whichever thread claims index 0's slot in
    /// the claim counter (i.e. wins the first `fetch_add`).
    started: OnceLock<Instant>,
}

impl Batch {
    fn new(points: Vec<DsePoint>, skip_infeasible: bool, timed: bool) -> Self {
        let slots = (0..points.len()).map(|_| OnceLock::new()).collect();
        Batch {
            points,
            skip_infeasible,
            next: AtomicUsize::new(0),
            filled: AtomicUsize::new(0),
            slots,
            hits: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            submitted: timed.then(Instant::now),
            started: OnceLock::new(),
        }
    }

    /// True when no further indices should be claimed: every index is
    /// taken, or a strict-mode failure doomed the batch.
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.points.len()
            || (!self.skip_infeasible && self.failed.load(Ordering::Relaxed))
    }

    /// True when every claimed slot has been filled and no more claims can
    /// happen — the submitter may collect.
    ///
    /// `next`'s fetch_adds return 0, 1, 2, …, so the number of claims ever
    /// made is exactly `min(next, len)` — one atomic tells us both "how far
    /// claiming got" and "how many fills are owed", with no window where a
    /// claim is made but not yet registered. `filled` is read *before*
    /// `next`: if the two agree, no claim existed unfilled at the earlier
    /// read, and no claim has happened since (the count didn't move).
    fn complete(&self) -> bool {
        let filled = self.filled.load(Ordering::Acquire);
        let next = self.next.load(Ordering::Acquire);
        let claims = next.min(self.points.len());
        let exhausted = next >= self.points.len()
            || (!self.skip_infeasible && self.failed.load(Ordering::Acquire));
        exhausted && filled == claims
    }

    fn signal_if_complete(&self) {
        if self.complete() {
            let mut done = self.done.lock().expect("batch mutex poisoned");
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn wait_complete(&self) {
        let mut done = self.done.lock().expect("batch mutex poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("batch mutex poisoned");
        }
    }
}

/// Shared state between the pool handle and its worker threads.
struct Shared {
    lib: Library,
    base: HlsOptions,
    cache: EvictingCache,
    /// Prefix artifacts shared across batches (see
    /// [`PreparedDesign`]); unused when
    /// [`PoolOptions::incremental`] is off.
    prefixes: PrefixCache,
    incremental: bool,
    queue: Mutex<VecDeque<Arc<Batch>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    /// Pool-scoped metrics registry, installed as the thread-current
    /// registry on worker threads and around submitter drains so pipeline
    /// phase spans from any batch land here. Disabled (and therefore
    /// nearly free) unless the owner enables it.
    registry: Registry,
}

impl Shared {
    /// Evaluates one point through the cross-request cache, crediting a hit
    /// to the batch's own counter (per-sweep accounting — concurrent
    /// batches must not see each other's hits). Coalescing onto another
    /// request's in-flight evaluation of the same key counts as a hit too:
    /// from this batch's perspective the row was free.
    ///
    /// A panic inside HLS evaluation is caught and surfaced as an error:
    /// on a persistent pool the panicking thread may be a background
    /// worker, and a claimed-but-never-filled slot would leave the
    /// submitter waiting forever (a pool has no joining point per batch to
    /// propagate the panic at).
    fn evaluate_one(&self, p: &DsePoint, batch_hits: &AtomicU64) -> Result<DseRow> {
        let key = point_key(&self.base, p);
        let (result, outcome) = self.cache.get_or_compute(key, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.incremental {
                    let prep = self.prefixes.get_or_prepare(&p.design, &self.lib)?;
                    evaluate_prepared(&prep, p, &self.lib, &self.base)
                } else {
                    evaluate_point_from_scratch(p, &self.lib, &self.base)
                }
            }))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(Error::Interp(format!(
                    "evaluating {} panicked: {msg}",
                    p.name
                )))
            })
        });
        if result.is_ok() && outcome != Outcome::Computed {
            batch_hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Claims and evaluates points from `batch` until it is exhausted.
    fn drain(&self, batch: &Batch) {
        loop {
            if !batch.skip_infeasible && batch.failed.load(Ordering::Relaxed) {
                break;
            }
            let i = batch.next.fetch_add(1, Ordering::AcqRel);
            if i >= batch.points.len() {
                break;
            }
            if let Some(submitted) = batch.submitted {
                // First claimer stamps the batch start and credits the time
                // it spent queued (submit→start) — each batch reports once.
                let now = Instant::now();
                if batch.started.set(now).is_ok() {
                    self.registry.observe(
                        "pool.batch.submit_to_start_us",
                        now.duration_since(submitted).as_secs_f64() * 1e6,
                    );
                }
            }
            let out = self.evaluate_one(&batch.points[i], &batch.hits);
            if out.is_err() {
                batch.failed.store(true, Ordering::Relaxed);
            }
            assert!(batch.slots[i].set(out).is_ok(), "slot {i} written twice");
            batch.filled.fetch_add(1, Ordering::AcqRel);
            batch.signal_if_complete();
        }
        // An exhausted batch with zero points (or one doomed before this
        // worker claimed anything) still needs its completion signal.
        batch.signal_if_complete();
    }

    /// Background worker: pick the oldest batch with work left, help drain
    /// it, repeat until shutdown. The pool registry is installed for the
    /// thread's lifetime, so pipeline spans from evaluations land on it,
    /// and idle (waiting for work) vs busy (draining) time is credited to
    /// the `pool.worker.{idle,busy}_us` counters.
    fn worker_loop(&self) {
        let _telemetry = adhls_telemetry::install(&self.registry);
        loop {
            let idle_from = self.registry.is_enabled().then(Instant::now);
            let batch = {
                let mut q = self.queue.lock().expect("pool queue poisoned");
                loop {
                    while q.front().is_some_and(|b| b.exhausted()) {
                        q.pop_front();
                    }
                    self.registry.gauge_set("pool.queue_depth", q.len() as i64);
                    if let Some(b) = q.front() {
                        break Arc::clone(b);
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self.work_ready.wait(q).expect("pool queue poisoned");
                }
            };
            if let Some(t) = idle_from {
                self.counter_elapsed_us("pool.worker.idle_us", t);
            }
            let busy_from = self.registry.is_enabled().then(Instant::now);
            self.drain(&batch);
            if let Some(t) = busy_from {
                self.counter_elapsed_us("pool.worker.busy_us", t);
            }
        }
    }

    /// Adds the whole microseconds elapsed since `from` to counter `name`.
    fn counter_elapsed_us(&self, name: &str, from: Instant) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.registry
            .counter_add(name, from.elapsed().as_micros() as u64);
    }
}

/// A persistent, shareable sweep evaluator.
///
/// Construct once (wrapping in `Arc` to share across request handlers),
/// then call [`EvaluatorPool::evaluate`] from any number of threads
/// concurrently. All requests share the worker threads and the sharded
/// result cache.
///
/// # Example
///
/// ```
/// use adhls_core::sched::HlsOptions;
/// use adhls_explore::pool::{EvaluatorPool, PoolOptions};
/// use adhls_reslib::tsmc90;
/// use adhls_workloads::sweep;
/// use std::sync::Arc;
///
/// let pool = Arc::new(EvaluatorPool::new(
///     tsmc90::library(),
///     HlsOptions::default(),
///     PoolOptions { threads: 4, ..Default::default() },
/// ));
/// let points = sweep::interpolation_default();
/// let first = pool.evaluate(&points).unwrap();
/// let second = pool.evaluate(&points).unwrap(); // all cache hits
/// assert_eq!(first.rows, second.rows);
/// assert_eq!(second.cache_hits, points.len() as u64);
/// ```
pub struct EvaluatorPool {
    shared: Arc<Shared>,
    opts: PoolOptions,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EvaluatorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvaluatorPool")
            .field("opts", &self.opts)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl EvaluatorPool {
    /// Spawns the pool. `threads` counts the submitting thread, so a pool
    /// of `threads: N` spawns `N - 1` background workers (`0` = one thread
    /// per available core). The pool owns a fresh, **disabled** metrics
    /// registry; use [`EvaluatorPool::with_telemetry`] to supply one (or
    /// enable via [`EvaluatorPool::telemetry`]).
    #[must_use]
    pub fn new(lib: Library, base: HlsOptions, opts: PoolOptions) -> Self {
        Self::with_telemetry(lib, base, opts, Registry::new())
    }

    /// [`EvaluatorPool::new`], collecting metrics into `registry`: queue
    /// depth, batch latencies, worker busy/idle time, and — because the
    /// registry is installed on worker threads and around submitter
    /// drains — the per-phase `pipeline.*` histograms of every evaluation
    /// run through the pool.
    #[must_use]
    pub fn with_telemetry(
        lib: Library,
        base: HlsOptions,
        opts: PoolOptions,
        registry: Registry,
    ) -> Self {
        let shared = Arc::new(Shared {
            lib,
            base,
            cache: EvictingCache::new(opts.cache_bytes),
            prefixes: PrefixCache::default(),
            incremental: opts.incremental,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            registry,
        });
        let threads = if opts.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            opts.threads
        };
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("adhls-pool-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawning pool worker")
            })
            .collect();
        EvaluatorPool {
            shared,
            opts,
            workers,
        }
    }

    /// Evaluates a batch through the pool: bit-identical rows to serial
    /// per-point evaluation ([`adhls_core::dse::explore`]) under the same
    /// library/options, in input order. The submitting
    /// thread participates in the work, and background workers join in
    /// (also finishing older batches first).
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) point's scheduling error unless
    /// [`PoolOptions::skip_infeasible`] is set.
    pub fn evaluate(&self, points: &[DsePoint]) -> Result<SweepResult> {
        // Route the submitting thread's own evaluations (it always helps
        // drain) to the pool registry, like the background workers.
        let _telemetry = adhls_telemetry::install(&self.shared.registry);
        let batch = Arc::new(Batch::new(
            points.to_vec(),
            self.opts.skip_infeasible,
            self.shared.registry.is_enabled(),
        ));
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.push_back(Arc::clone(&batch));
            self.shared
                .registry
                .gauge_set("pool.queue_depth", q.len() as i64);
            self.shared.work_ready.notify_all();
        }
        self.shared.drain(&batch);
        batch.wait_complete();
        self.shared.registry.counter_add("pool.batches", 1);
        self.shared
            .registry
            .counter_add("pool.points", points.len() as u64);
        if let (Some(submitted), Some(&started)) = (batch.submitted, batch.started.get()) {
            let done = Instant::now();
            self.shared.registry.observe(
                "pool.batch.start_to_done_us",
                done.duration_since(started).as_secs_f64() * 1e6,
            );
            self.shared.registry.observe(
                "pool.batch.submit_to_done_us",
                done.duration_since(submitted).as_secs_f64() * 1e6,
            );
        }
        // Retire the batch from the queue ourselves: background workers
        // also pop exhausted fronts opportunistically, but on a pool with
        // no background workers (threads: 1) nobody else ever would, and a
        // long-lived pool would leak one finished batch per request.
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.retain(|b| !Arc::ptr_eq(b, &batch));
            self.shared
                .registry
                .gauge_set("pool.queue_depth", q.len() as i64);
        }
        // Claims were contiguous from 0 and every claimed slot is filled,
        // so filled slots form a prefix; the unfilled suffix (strict-mode
        // early bail) is exactly the never-claimed points. The queue (and a
        // worker between loop iterations) may still hold the Arc briefly,
        // so collect by reference instead of consuming it.
        let hits = batch.hits.load(Ordering::Acquire);
        let results: Vec<Result<DseRow>> =
            batch.slots.iter().map_while(|s| s.get().cloned()).collect();
        let mut rows = Vec::with_capacity(results.len());
        let mut skipped = Vec::new();
        for (p, r) in batch.points.iter().zip(results) {
            match r {
                Ok(row) => rows.push(row),
                Err(e) if self.opts.skip_infeasible => {
                    skipped.push((p.name.clone(), e.to_string()));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(SweepResult {
            rows,
            skipped,
            cache_hits: hits,
            workers: self.workers.len() + 1,
        })
    }

    /// Hit/miss totals across the pool's lifetime, all batches combined.
    /// Hits include coalesced in-flight waits — both avoided an HLS run.
    /// See [`EvaluatorPool::cache_metrics`] for the full breakdown.
    #[must_use]
    pub fn cache_stats(&self) -> HitMiss {
        self.shared.cache.stats().hit_miss()
    }

    /// Full cache counters and gauges (hits, coalesced waits, misses,
    /// evictions, live entries/bytes, configured budget) — what the
    /// server's `stats` request reports.
    #[must_use]
    pub fn cache_metrics(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Number of distinct (design, options) results currently cached.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Total evaluation threads per batch (background workers + the
    /// submitter).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.workers.len() + 1
    }

    /// The base options batches are evaluated under.
    #[must_use]
    pub fn base_options(&self) -> &HlsOptions {
        &self.shared.base
    }

    /// The pool's metrics registry. Enable it to start collecting:
    /// `pool.telemetry().set_enabled(true)`.
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.shared.registry
    }

    /// One unified snapshot: everything in the registry plus the eviction
    /// cache's own counters (`cache.*`) and the pool's structural gauges
    /// (`pool.threads`, `cache.capacity_bytes` when budgeted) — appended
    /// here so every export surface (`stats`, `metrics`, exposition,
    /// `--metrics-out`) reads the same numbers from the same place.
    #[must_use]
    #[allow(clippy::cast_possible_wrap)]
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.shared.registry.snapshot();
        let s = self.shared.cache.stats();
        snap.push_counter("cache.hits", s.hits);
        snap.push_counter("cache.coalesced", s.coalesced);
        snap.push_counter("cache.misses", s.misses);
        snap.push_counter("cache.evictions", s.evictions);
        snap.push_gauge("cache.entries", s.entries as i64);
        snap.push_gauge("cache.bytes", s.bytes as i64);
        if let Some(cap) = s.capacity_bytes {
            snap.push_gauge("cache.capacity_bytes", cap as i64);
        }
        snap.push_gauge("pool.threads", self.thread_count() as i64);
        snap.sort();
        snap
    }
}

impl Drop for EvaluatorPool {
    fn drop(&mut self) {
        {
            // Set shutdown while holding the queue lock: a worker is then
            // either before its lock (it will observe the flag) or already
            // waiting (it will get the notification) — no missed wakeup.
            let _q = self.shared.queue.lock().expect("pool queue poisoned");
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.work_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            // Surface worker panics instead of hiding them — unless we are
            // already unwinding, where a double panic would abort.
            if let Err(e) = w.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhls_ir::builder::DesignBuilder;
    use adhls_ir::OpKind;
    use adhls_reslib::tsmc90;

    fn point(name: &str, soft: u32, clock: u64) -> DsePoint {
        let mut b = DesignBuilder::new(name);
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        let m1 = b.binop(OpKind::Mul, x, y, 8);
        let m2 = b.binop(OpKind::Mul, m1, x, 8);
        let a = b.binop(OpKind::Add, m1, m2, 16);
        b.soft_waits(soft);
        b.write("z", a);
        DsePoint {
            name: name.into(),
            design: b.finish().unwrap(),
            clock_ps: clock,
            pipeline_ii: None,
            cycles_per_item: soft + 1,
        }
    }

    fn fleet() -> Vec<DsePoint> {
        (1..=6)
            .flat_map(|soft| {
                [1100u64, 1400].map(|clock| point(&format!("p{soft}c{clock}"), soft, clock))
            })
            .collect()
    }

    fn pool(threads: usize) -> EvaluatorPool {
        EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads,
                ..Default::default()
            },
        )
    }

    /// The independent from-scratch oracle: the core serial driver.
    fn core_rows(pts: &[DsePoint]) -> Vec<DseRow> {
        adhls_core::dse::explore(pts, &tsmc90::library(), &HlsOptions::default()).unwrap()
    }

    #[test]
    fn pool_rows_match_serial_engine_bit_for_bit() {
        let pts = fleet();
        let r = pool(4).evaluate(&pts).unwrap();
        assert_eq!(r.rows, core_rows(&pts));
        assert_eq!(r.workers, 4);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let pts = fleet();
        let serial = pool(1).evaluate(&pts).unwrap();
        let par = pool(4).evaluate(&pts).unwrap();
        assert_eq!(par.rows, serial.rows);
        assert_eq!(serial.workers, 1);
        assert!(
            par.workers > 1,
            "expected a parallel run, got {} worker",
            par.workers
        );
    }

    #[test]
    fn one_shot_helper_matches_core_explore() {
        // The one-shot path: a fresh pool with default options (one thread
        // per core, unbounded cache) must reproduce the core serial driver.
        let pts = fleet();
        let pool = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions::default(),
        );
        assert_eq!(pool.evaluate(&pts).unwrap().rows, core_rows(&pts));
    }

    #[test]
    fn cache_makes_repeat_sweeps_free() {
        // Serial pool: the second sweep of the same grid is all hits and
        // adds no misses.
        let pool = pool(1);
        let pts = fleet();
        let first = pool.evaluate(&pts).unwrap();
        assert_eq!(first.cache_hits, 0);
        let misses = pool.cache_stats().misses;
        let second = pool.evaluate(&pts).unwrap();
        assert_eq!(second.cache_hits, pts.len() as u64);
        assert_eq!(pool.cache_stats().misses, misses);
        assert_eq!(first.rows, second.rows);
    }

    #[test]
    fn infeasible_point_fails_or_skips_by_policy() {
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        assert!(pool(1).evaluate(&[good.clone(), bad.clone()]).is_err());
        let lenient = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 1,
                skip_infeasible: true,
                ..Default::default()
            },
        );
        let r = lenient.evaluate(&[good, bad]).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.skipped.len(), 1);
        assert_eq!(r.skipped[0].0, "bad");
    }

    #[test]
    fn duplicate_points_hit_within_one_sweep() {
        let p = point("dup", 2, 1100);
        let r = pool(1).evaluate(&[p.clone(), p.clone(), p]).unwrap();
        assert_eq!(r.cache_hits, 2);
        assert_eq!(r.rows[0], r.rows[1]);
        assert_eq!(r.rows[0], r.rows[2]);
    }

    #[test]
    fn strict_failure_short_circuits_remaining_points() {
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        let pool = pool(1);
        assert!(pool.evaluate(&[bad, good]).is_err());
        assert_eq!(
            pool.cache_stats().misses,
            1,
            "the point after the failure must not be evaluated"
        );
    }

    #[test]
    fn concurrent_sweeps_each_count_their_own_hits() {
        // Batches racing on one shared pool must not attribute each other's
        // hits to themselves (global-delta accounting would).
        let pts = fleet();
        let pool = pool(2);
        pool.evaluate(&pts).unwrap(); // warm the cache
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| pool.evaluate(&pts).unwrap()))
                .collect();
            for h in handles {
                assert_eq!(
                    h.join().unwrap().cache_hits,
                    pts.len() as u64,
                    "each warm batch sees exactly its own hits"
                );
            }
        });
    }

    #[test]
    fn point_key_distinguishes_max_ii_from_sequential() {
        // `ii + 1` used to wrap Some(u32::MAX) onto None's encoding (and
        // panic in debug); the tag+value encoding must keep them distinct
        // without overflowing.
        let base = HlsOptions::default();
        let seq = point("k", 2, 1100);
        let mut max_ii = seq.clone();
        max_ii.pipeline_ii = Some(u32::MAX);
        assert_ne!(point_key(&base, &seq), point_key(&base, &max_ii));
        let mut ii0 = seq.clone();
        ii0.pipeline_ii = Some(0);
        assert_ne!(point_key(&base, &seq), point_key(&base, &ii0));
        assert_ne!(point_key(&base, &max_ii), point_key(&base, &ii0));
        // Same point, same key — the memo still works.
        assert_eq!(point_key(&base, &max_ii), point_key(&base, &max_ii.clone()));
    }

    #[test]
    fn single_thread_pool_works_without_background_workers() {
        let pool = pool(1);
        assert_eq!(pool.thread_count(), 1);
        let r = pool.evaluate(&fleet()).unwrap();
        assert_eq!(r.rows.len(), 12);
    }

    #[test]
    fn cache_persists_across_batches() {
        let pool = pool(3);
        let pts = fleet();
        let first = pool.evaluate(&pts).unwrap();
        assert_eq!(first.cache_hits, 0);
        let second = pool.evaluate(&pts).unwrap();
        assert_eq!(second.cache_hits, pts.len() as u64);
        assert_eq!(first.rows, second.rows);
        assert_eq!(pool.cache_len(), pts.len());
    }

    #[test]
    fn strict_failure_propagates_and_skip_policy_skips() {
        // 1 ps clock: nothing fits — guaranteed infeasible.
        let bad = point("bad", 0, 1);
        let good = point("good", 3, 1400);
        let strict = pool(2);
        assert!(strict.evaluate(&[good.clone(), bad.clone()]).is_err());
        let lenient = EvaluatorPool::new(
            tsmc90::library(),
            HlsOptions::default(),
            PoolOptions {
                threads: 2,
                skip_infeasible: true,
                ..Default::default()
            },
        );
        let r = lenient.evaluate(&[good, bad]).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.skipped, vec![("bad".into(), r.skipped[0].1.clone())]);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = pool(2);
        let r = pool.evaluate(&[]).unwrap();
        assert!(r.rows.is_empty());
        assert!(r.skipped.is_empty());
    }

    #[test]
    fn completed_batches_are_retired_from_the_queue() {
        // With no background workers, only the submitter can retire its
        // batch; a long-lived pool must not accumulate finished batches.
        let pool = pool(1);
        let pts = fleet();
        for _ in 0..3 {
            pool.evaluate(&pts).unwrap();
            assert_eq!(
                pool.shared.queue.lock().unwrap().len(),
                0,
                "finished batch left in the queue"
            );
        }
    }

    #[test]
    fn telemetry_collects_pipeline_and_pool_metrics() {
        let metered = pool(2);
        metered.telemetry().set_enabled(true);
        let pts = fleet();
        let r = metered.evaluate(&pts).unwrap();
        let snap = metered.metrics_snapshot();
        // Pipeline phases ran through the installed registry: each point
        // runs HLS twice (conventional + slack-based).
        let schedules = snap.histogram("pipeline.schedule").expect("phase timing");
        assert_eq!(schedules.count, 2 * pts.len() as u64);
        assert_eq!(
            snap.histogram("pipeline.evaluate").map(|h| h.count),
            Some(pts.len() as u64)
        );
        // Batch accounting and the unified cache counters.
        assert_eq!(snap.counter("pool.batches"), Some(1));
        assert_eq!(snap.counter("pool.points"), Some(pts.len() as u64));
        assert_eq!(
            snap.histogram("pool.batch.start_to_done_us")
                .map(|h| h.count),
            Some(1)
        );
        assert_eq!(snap.counter("cache.misses"), Some(pts.len() as u64));
        assert_eq!(snap.gauge("pool.threads"), Some(2));
        assert_eq!(snap.gauge("pool.queue_depth"), Some(0));
        // Telemetry observes, never steers: rows match the disabled pool.
        let quiet = pool(2);
        assert_eq!(quiet.evaluate(&pts).unwrap().rows, r.rows);
        assert!(quiet.metrics_snapshot().counter("pool.batches").is_none());
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(pool(4));
        let pts = fleet();
        let reference = core_rows(&pts);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let pts = pts.clone();
                    scope.spawn(move || pool.evaluate(&pts).unwrap())
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap().rows, reference);
            }
        });
    }
}
