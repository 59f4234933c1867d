//! The multi-worker serve front-end: one router, N worker backends.
//!
//! `adhls serve --workers N` turns the daemon into a router/aggregator:
//! clients still speak the exact protocol of `docs/PROTOCOL.md`, but every
//! `sweep`/`refine` is forwarded to one of N workers — each an ordinary
//! [`Server`](crate::server::session::Server) over its own
//! [`EvaluatorPool`](crate::pool::EvaluatorPool) — over the same line-JSON
//! wire format, now acting as a *backend dialect*.
//!
//! Three properties carry the design:
//!
//! * **Sharded warm cache.** Requests are placed by rendezvous
//!   (highest-random-weight) hashing of
//!   [`routing_fingerprint`](crate::server::session::routing_fingerprint())
//!   — a pure function of the workload spec — so repeats of a design land
//!   on the same worker and hit its warm point/prefix cache, and the loss
//!   of one worker reshuffles only that worker's share of the key space.
//! * **Byte-transparent forwarding.** The router forwards the client's
//!   request line *verbatim* and relays the worker's response lines
//!   *verbatim* (workers derive response ids exactly as a direct server
//!   would), so a routed request's rows are bit-identical to a single-pool
//!   run — the router never re-renders floats. Response lines are
//!   validated against the expected `{"id":...,` prefix; anything else is
//!   treated as a worker fault.
//! * **Contained failure.** A worker that dies, stalls past the receive
//!   timeout, or emits garbage is retired and respawned in place (same
//!   slot → same hash shard, so the replacement re-warms the same keys);
//!   if respawning fails the slot is marked dead and the request is
//!   rehashed onto the surviving workers. Rounds already streamed to the
//!   client are not re-sent on retry — refinement rounds are
//!   deterministic, so the retried worker's first K rounds are exactly the
//!   K already relayed.
//!
//! Backpressure is explicit: each worker has a queue cap (requests beyond
//! it get a structured `busy` result instead of unbounded queuing), and
//! the shared [`Frontend`] transport bounds TCP connections. `cancel` is
//! forwarded over the owning worker's control link so it bypasses the
//! data queue and reaches a mid-refine worker immediately.

use crate::fingerprint::Fnv;
use crate::server::frontend::{Frontend, Handled, ServeState};
use crate::server::protocol::{self, Command};
use crate::server::session::routing_fingerprint;
use crate::server::worker::{WorkerFactory, WorkerGuard, WorkerLink};
use adhls_core::json::Value;
use adhls_telemetry::{Registry, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Sizing and fault-handling knobs for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Worker backends (≥ 1; `new` clamps 0 up).
    pub workers: usize,
    /// Per-worker in-flight/queued request cap: a request routed to a
    /// worker already holding this many gets an immediate `busy` result.
    pub queue_cap: usize,
    /// Worker faults tolerated per request before the client gets an
    /// error (each fault costs one respawn or reassignment).
    pub retries: usize,
    /// Bound on each data-link read while waiting on a worker; `None`
    /// (the default) trusts workers not to stall — a refinement round can
    /// legitimately take arbitrarily long, so only set this when worker
    /// round-time is bounded (tests, fault drills).
    pub recv_timeout: Option<Duration>,
    /// Bound on control-link reads (`cancel`, `stats`/`metrics` probes,
    /// shutdown). Control responses never run HLS, so the short default
    /// keeps a stalled worker from wedging aggregation.
    pub ctrl_recv_timeout: Option<Duration>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            workers: 2,
            queue_cap: 64,
            retries: 2,
            recv_timeout: None,
            ctrl_recv_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// The data-link half of a worker slot: the request channel plus the
/// teardown guard, retired and replaced together.
struct DataHalf {
    link: Box<dyn WorkerLink>,
    guard: Option<Box<dyn WorkerGuard>>,
}

/// One worker position. The slot index — not the worker instance — is the
/// unit of hashing, so a respawned worker inherits its predecessor's key
/// shard.
#[derive(Default)]
struct Slot {
    /// Lock order: `data` before `ctrl` (never the reverse).
    data: Mutex<Option<DataHalf>>,
    ctrl: Mutex<Option<Box<dyn WorkerLink>>>,
    /// Routed-but-unfinished requests, for the queue cap.
    pending: AtomicUsize,
    /// Set when a respawn fails; dead slots are skipped by placement until
    /// a later spawn succeeds.
    dead: AtomicBool,
}

/// A router/aggregator serving the client protocol over N worker
/// backends. See the [module docs](self) for the design.
pub struct Router {
    factory: WorkerFactory,
    slots: Vec<Slot>,
    opts: RouterOptions,
    /// The router's own registry (always enabled): request accounting and
    /// `serve.worker.*` fault counters. Worker registries are aggregated
    /// into it on `stats`/`metrics`.
    registry: Registry,
    state: ServeState,
    /// In-flight *refine* requests by rendered client `id` → slot index,
    /// so `cancel` from any connection finds the owning worker.
    inflight: Mutex<HashMap<String, usize>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("workers", &self.slots.len())
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

/// How a forwarding attempt on one worker ended short of a relayed
/// terminal line.
enum Fault {
    /// The factory could not produce a worker for this slot.
    Spawn(String),
    /// The link failed mid-request (send error, EOF, stall, garbage).
    Link(&'static str),
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Fault::Spawn(e) => format!("worker failed to start: {e}"),
            Fault::Link(why) => (*why).to_string(),
        }
    }
}

impl Router {
    /// Builds the router and eagerly spawns every worker through
    /// `factory`, so the first routed request finds a live backend.
    ///
    /// # Errors
    ///
    /// The factory's error if any initial worker fails to spawn.
    pub fn new(factory: WorkerFactory, opts: RouterOptions) -> std::io::Result<Router> {
        let workers = opts.workers.max(1);
        let registry = Registry::new();
        registry.set_enabled(true);
        let router = Router {
            factory,
            slots: (0..workers).map(|_| Slot::default()).collect(),
            opts,
            state: ServeState::new(registry.clone()),
            registry,
            inflight: Mutex::new(HashMap::new()),
        };
        for idx in 0..workers {
            let handle = (router.factory)(idx)?;
            let slot = &router.slots[idx];
            let mut data = lock(&slot.data);
            router.install(slot, &mut data, handle);
        }
        Ok(router)
    }

    /// The router's own telemetry registry (fault and accounting
    /// counters; worker metrics are merged in only at snapshot time).
    #[must_use]
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// Number of worker slots (dead or alive).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Wires a fresh worker handle into `slot` (data lock already held by
    /// the caller — see the [`Slot`] lock order).
    fn install(
        &self,
        slot: &Slot,
        data: &mut Option<DataHalf>,
        mut handle: super::worker::WorkerHandle,
    ) {
        let _ = handle.data.set_recv_timeout(self.opts.recv_timeout);
        let _ = handle.ctrl.set_recv_timeout(self.opts.ctrl_recv_timeout);
        *data = Some(DataHalf {
            link: handle.data,
            guard: handle.guard,
        });
        *lock(&slot.ctrl) = Some(handle.ctrl);
        slot.dead.store(false, Ordering::Release);
        self.registry.counter_add("serve.worker.spawns", 1);
    }

    /// Tears a faulted worker out of `slot` (data lock held): stops its
    /// guard and drops both links, so the next attempt spawns afresh.
    fn retire(&self, slot: &Slot, data: &mut Option<DataHalf>) {
        if let Some(mut half) = data.take() {
            if let Some(guard) = half.guard.as_mut() {
                guard.stop();
            }
        }
        *lock(&slot.ctrl) = None;
    }

    /// Rendezvous placement: among live slots (excluding `exclude`), the
    /// one whose `Fnv(key, index)` weight is highest. Every router ranks
    /// a key identically, each key's shard moves only when its own winner
    /// dies, and dead workers shed load evenly over the survivors.
    fn pick(&self, key: u64, exclude: Option<usize>) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(i, s)| Some(i) != exclude && !s.dead.load(Ordering::Acquire))
            .max_by_key(|&(i, _)| {
                let mut h = Fnv::default();
                h.u64(key).u64(i as u64);
                (h.digest(), i)
            })
            .map(|(i, _)| i)
    }

    /// One forwarding attempt on slot `idx`: spawn if empty, send the raw
    /// request line, relay response lines until the terminal result.
    /// `rounds_sent` counts progress events already relayed to the client
    /// so a retry (deterministic rounds) skips re-sending them.
    ///
    /// The outer `Err` is a *client-side* write failure; worker-side
    /// trouble is the inner [`Fault`].
    fn attempt(
        &self,
        idx: usize,
        line: &str,
        prefix: &str,
        rounds_sent: &mut usize,
        out: &mut dyn Write,
    ) -> std::io::Result<Result<(), Fault>> {
        let slot = &self.slots[idx];
        let mut data = lock(&slot.data);
        if data.is_none() {
            match (self.factory)(idx) {
                Ok(handle) => self.install(slot, &mut data, handle),
                Err(e) => return Ok(Err(Fault::Spawn(e.to_string()))),
            }
        }
        let half = data.as_mut().expect("worker installed above");
        if half.link.send_line(line).is_err() {
            self.retire(slot, &mut data);
            return Ok(Err(Fault::Link("worker rejected the request write")));
        }
        let mut seen = 0usize;
        loop {
            match half.link.recv_line() {
                Ok(Some(resp)) => {
                    let Some(rest) = resp.strip_prefix(prefix) else {
                        self.retire(slot, &mut data);
                        return Ok(Err(Fault::Link("worker emitted a malformed response")));
                    };
                    if rest.starts_with("\"event\":\"result\"") {
                        writeln!(out, "{resp}")?;
                        out.flush()?;
                        return Ok(Ok(()));
                    }
                    // A streamed progress event: relay it unless an earlier
                    // attempt already delivered this round.
                    if seen >= *rounds_sent {
                        writeln!(out, "{resp}")?;
                        out.flush()?;
                        *rounds_sent += 1;
                    }
                    seen += 1;
                }
                Ok(None) => {
                    self.retire(slot, &mut data);
                    return Ok(Err(Fault::Link("worker closed the connection mid-request")));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    self.retire(slot, &mut data);
                    return Ok(Err(Fault::Link("worker stalled past the receive timeout")));
                }
                Err(_) => {
                    self.retire(slot, &mut data);
                    return Ok(Err(Fault::Link("worker link failed mid-response")));
                }
            }
        }
    }

    /// Routes one `sweep`/`refine` line: place by `key`, apply the queue
    /// cap, then attempt/retry/reassign until a terminal line reaches the
    /// client. Returns whether the client-visible outcome was a success.
    fn forward(
        &self,
        key: u64,
        id: Option<&Value>,
        line: &str,
        inflight_key: Option<&str>,
        out: &mut dyn Write,
    ) -> std::io::Result<bool> {
        let Some(mut idx) = self.pick(key, None) else {
            writeln!(out, "{}", protocol::render_error(id, "no live workers"))?;
            return Ok(false);
        };
        let slot = &self.slots[idx];
        let pending = slot.pending.fetch_add(1, Ordering::SeqCst) + 1;
        if pending > self.opts.queue_cap {
            slot.pending.fetch_sub(1, Ordering::SeqCst);
            self.registry.counter_add("serve.rejected", 1);
            let msg = format!(
                "worker {idx} is at its queue cap ({}); retry later",
                self.opts.queue_cap
            );
            writeln!(out, "{}", protocol::render_busy(id, &msg))?;
            return Ok(false);
        }
        let _pending = PendingGuard(slot);
        if let Some(k) = inflight_key {
            lock(&self.inflight).insert(k.to_string(), idx);
        }
        let prefix = id_prefix(id);
        let mut rounds_sent = 0usize;
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let fault = match self.attempt(idx, line, &prefix, &mut rounds_sent, out)? {
                Ok(()) => return Ok(true),
                Err(f) => f,
            };
            self.registry.counter_add("serve.worker.faults", 1);
            if attempts > self.opts.retries {
                let msg = format!(
                    "request failed after {attempts} attempts: {}",
                    fault.describe()
                );
                writeln!(out, "{}", protocol::render_error(id, &msg))?;
                return Ok(false);
            }
            // Prefer restarting the same slot — it owns this key's cache
            // shard. Only when a replacement cannot be spawned does the
            // request (and, implicitly, the shard) move elsewhere.
            if self.respawn(idx) {
                self.registry.counter_add("serve.worker.restarts", 1);
            } else {
                self.slots[idx].dead.store(true, Ordering::Release);
                let Some(next) = self.pick(key, Some(idx)) else {
                    writeln!(out, "{}", protocol::render_error(id, "no live workers"))?;
                    return Ok(false);
                };
                self.registry.counter_add("serve.worker.reassigned", 1);
                idx = next;
                if let Some(k) = inflight_key {
                    lock(&self.inflight).insert(k.to_string(), idx);
                }
            }
        }
    }

    /// Spawns a replacement into slot `idx`; `false` means the factory
    /// refused (the caller marks the slot dead and reassigns).
    fn respawn(&self, idx: usize) -> bool {
        let slot = &self.slots[idx];
        let mut data = lock(&slot.data);
        if data.is_some() {
            // Another request already respawned this slot.
            return true;
        }
        match (self.factory)(idx) {
            Ok(handle) => {
                self.install(slot, &mut data, handle);
                true
            }
            Err(_) => false,
        }
    }

    /// Forwards a `cancel` over the owning worker's control link (found
    /// via the in-flight map) and relays its answer verbatim.
    fn forward_cancel(
        &self,
        id: Option<&Value>,
        target: &Value,
        line: &str,
        out: &mut dyn Write,
    ) -> std::io::Result<bool> {
        let owner = lock(&self.inflight).get(&target.render()).copied();
        let Some(idx) = owner else {
            let msg = format!("no in-flight request with id {}", target.render());
            writeln!(out, "{}", protocol::render_error(id, &msg))?;
            return Ok(false);
        };
        let mut ctrl = lock(&self.slots[idx].ctrl);
        let resp = ctrl.as_mut().and_then(|link| {
            link.send_line(line).ok()?;
            link.recv_line().ok().flatten()
        });
        let Some(resp) = resp else {
            *ctrl = None;
            let msg = format!("worker {idx} is unreachable; its requests will be retried");
            writeln!(out, "{}", protocol::render_error(id, &msg))?;
            return Ok(false);
        };
        let prefix = id_prefix(id);
        let ok = resp
            .strip_prefix(&prefix)
            .is_some_and(|rest| rest.starts_with("\"event\":\"result\",\"ok\":true"));
        if ok {
            self.registry.counter_add("serve.cancel.forwarded", 1);
        }
        writeln!(out, "{resp}")?;
        Ok(ok)
    }

    /// Queries one worker's `metrics` over its control link. `None` when
    /// the worker is down or answers garbage (its share is then simply
    /// absent from the aggregate).
    fn query_worker_metrics(&self, slot: &Slot) -> Option<Value> {
        let mut ctrl = lock(&slot.ctrl);
        let link = ctrl.as_mut()?;
        if link.send_line("{\"id\":null,\"cmd\":\"metrics\"}").is_err() {
            *ctrl = None;
            return None;
        }
        match link.recv_line() {
            Ok(Some(line)) => Value::parse(&line).ok(),
            _ => {
                *ctrl = None;
                None
            }
        }
    }

    /// Sends `shutdown` to every worker (control link, best-effort), then
    /// stops their guards. Waits on each slot's data lock, so in-flight
    /// requests finish before their worker goes down.
    fn shutdown_workers(&self) {
        for slot in &self.slots {
            let mut data = lock(&slot.data);
            {
                let mut ctrl = lock(&slot.ctrl);
                if let Some(link) = ctrl.as_mut() {
                    let _ = link.send_line("{\"cmd\":\"shutdown\"}");
                    let _ = link.recv_line();
                }
                *ctrl = None;
            }
            if let Some(mut half) = data.take() {
                if let Some(guard) = half.guard.as_mut() {
                    guard.stop();
                }
            }
            slot.dead.store(true, Ordering::Release);
        }
    }
}

impl Frontend for Router {
    fn state(&self) -> &ServeState {
        &self.state
    }

    /// The router's registry merged with every live worker's metrics.
    ///
    /// Worker counters and gauges are **summed**, except worker `serve.*`
    /// request accounting (`serve.requests`, `serve.ok`, …): the router
    /// already counts every client request once, and each forwarded
    /// request is counted again by its worker — summing both would
    /// double-count, so worker `serve.*` entries are dropped.
    /// `serve.cancelled` is the one exception (kept and summed): only the
    /// worker running a refine can observe its cancellation, and the
    /// router has no counterpart entry to collide with. Worker histograms
    /// are not merged (bucket-merge is not worth the complexity); the
    /// router's own `serve.request.*` latency histograms — which span the
    /// full routed round trip — are reported instead.
    #[allow(clippy::cast_possible_truncation)]
    fn tier_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut alive = 0i64;
        for slot in &self.slots {
            let Some(doc) = self.query_worker_metrics(slot) else {
                continue;
            };
            alive += 1;
            let Some(metrics) = doc.get("metrics") else {
                continue;
            };
            if let Some(Value::Obj(pairs)) = metrics.get("counters") {
                for (name, v) in pairs {
                    if name.starts_with("serve.") && name != "serve.cancelled" {
                        continue;
                    }
                    if let Some(n) = v.as_u64() {
                        *counters.entry(name.clone()).or_insert(0) += n;
                    }
                }
            }
            if let Some(Value::Obj(pairs)) = metrics.get("gauges") {
                for (name, v) in pairs {
                    if name.starts_with("serve.") {
                        continue;
                    }
                    if let Some(n) = v.as_f64() {
                        *gauges.entry(name.clone()).or_insert(0) += n as i64;
                    }
                }
            }
        }
        for (name, v) in &counters {
            snap.push_counter(name, *v);
        }
        for (name, v) in &gauges {
            snap.push_gauge(name, *v);
        }
        snap.push_gauge("serve.workers", alive);
        snap
    }

    /// Runs one parsed request: local verbs (`ping`, `stats`, `metrics`,
    /// `shutdown`) are answered by the router itself; `cancel` goes over
    /// the owning worker's control link; `sweep`/`refine` are routed.
    fn dispatch(
        &self,
        id: Option<&Value>,
        cmd: Result<Command, String>,
        line: &str,
        out: &mut dyn Write,
    ) -> std::io::Result<Handled> {
        let mut keep_going = true;
        let ok = match cmd {
            Err(msg) => {
                writeln!(out, "{}", protocol::render_error(id, &msg))?;
                false
            }
            Ok(Command::Ping) => {
                writeln!(out, "{}", protocol::render_ok(id, "ping"))?;
                true
            }
            Ok(Command::Shutdown) => {
                self.request_shutdown();
                self.shutdown_workers();
                writeln!(out, "{}", protocol::render_ok(id, "shutdown"))?;
                keep_going = false;
                true
            }
            Ok(Command::Stats) => {
                writeln!(
                    out,
                    "{}",
                    protocol::render_stats(id, &self.metrics_snapshot())
                )?;
                true
            }
            Ok(Command::Metrics) => {
                writeln!(
                    out,
                    "{}",
                    protocol::render_metrics(id, &self.metrics_snapshot())
                )?;
                true
            }
            Ok(Command::Cancel { target }) => self.forward_cancel(id, &target, line, out)?,
            Ok(Command::Sweep(spec)) => {
                // An invalid spec hashes to the fallback shard; the worker
                // repeats the validation and answers with the same error a
                // direct server would.
                let key = routing_fingerprint(&spec).unwrap_or(0);
                self.forward(key, id, line, None, out)?
            }
            Ok(Command::Refine { ref spec, .. }) => {
                let key = routing_fingerprint(spec).unwrap_or(0);
                let inflight_key = id.map(Value::render);
                let _guard = InflightGuard {
                    router: self,
                    key: inflight_key.clone(),
                };
                self.forward(key, id, line, inflight_key.as_deref(), out)?
            }
        };
        Ok(Handled { keep_going, ok })
    }
}

/// Decrements a slot's pending count when the routed request finishes —
/// on every path, including client-side write failures.
struct PendingGuard<'a>(&'a Slot);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Removes a refine's in-flight map entry when it finishes, so `cancel`
/// can never address a completed request's worker.
struct InflightGuard<'a> {
    router: &'a Router,
    key: Option<String>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            lock(&self.router.inflight).remove(&key);
        }
    }
}

/// The response-line prefix every reply to `id` must carry: responses
/// open with the echoed id (see `protocol::open_envelope`), which is what
/// lets the router validate relayed lines without re-rendering them.
fn id_prefix(id: Option<&Value>) -> String {
    let mut p = String::from("{\"id\":");
    match id {
        Some(v) => v.render_into(&mut p),
        None => p.push_str("null"),
    }
    p.push(',');
    p
}

/// Locks a mutex, treating poisoning as fatal (a panic mid-route already
/// lost a response; there is no protocol state to salvage).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("router lock poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_stable_and_minimal() {
        let slots: Vec<Slot> = (0..4).map(|_| Slot::default()).collect();
        let pick = |key: u64, exclude: Option<usize>| {
            slots
                .iter()
                .enumerate()
                .filter(|&(i, _)| Some(i) != exclude)
                .max_by_key(|&(i, _)| {
                    let mut h = Fnv::default();
                    h.u64(key).u64(i as u64);
                    (h.digest(), i)
                })
                .map(|(i, _)| i)
                .unwrap()
        };
        let mut moved = 0;
        for key in 0..256u64 {
            let a = pick(key, None);
            assert_eq!(a, pick(key, None), "placement must be deterministic");
            let b = pick(key, Some(0));
            if a == 0 {
                assert_ne!(b, 0, "keys on a dead worker must move");
                moved += 1;
            } else {
                assert_eq!(a, b, "keys off the dead worker must not move");
            }
        }
        assert!(moved > 0, "some keys should have hashed to worker 0");
    }

    #[test]
    fn id_prefix_matches_the_envelope() {
        assert_eq!(id_prefix(None), "{\"id\":null,");
        assert_eq!(id_prefix(Some(&Value::Num(7.0))), "{\"id\":7,");
        assert_eq!(id_prefix(Some(&Value::Str("a1".into()))), "{\"id\":\"a1\",");
        let rendered = protocol::render_error(Some(&Value::Num(7.0)), "x");
        assert!(rendered.starts_with(&id_prefix(Some(&Value::Num(7.0)))));
    }
}
