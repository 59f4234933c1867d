//! `adhls serve` — a long-lived exploration daemon over one shared
//! [`EvaluatorPool`](crate::pool::EvaluatorPool).
//!
//! The paper's exhaustive clock/latency tradeoff sweeps only pay off at
//! scale when one process can serve many exploration requests against a
//! shared cache. This module tree is that process:
//!
//! * [`protocol`] — the line-delimited JSON wire format: `sweep`,
//!   `refine`, `stats`, `metrics`, `ping`, `shutdown` requests; streamed `round`
//!   progress events; terminal `result` messages whose row arrays are
//!   byte-compatible with the file exporters,
//! * [`session`] — request dispatch onto the pool, per-connection
//!   threads, and the TCP / reader-writer (stdio) front-ends,
//! * [`eviction`] — cache lifecycle for long-lived processes: a byte
//!   budget with per-shard cost-aware LRU eviction, plus in-flight
//!   coalescing so concurrent requests for the same cell run HLS once,
//! * [`worker`] — worker backends for multi-worker serving: the
//!   [`WorkerLink`] transport trait with in-process (pipe + thread) and
//!   child-process (TCP) implementations,
//! * [`router`] — the multi-worker front-end: consistent-hash routing of
//!   requests across workers (so each worker's cache shard stays warm),
//!   fault recovery by respawn/reassignment, `cancel` forwarding,
//!   queue-cap backpressure, and cross-worker `stats`/`metrics`
//!   aggregation.
//!
//! Determinism carries through from the pool: a request's rows and front
//! are bit-identical to serial per-point evaluation
//! ([`adhls_core::dse::explore`]) of the same points, no matter how many
//! clients are connected, how the cache evicts, or which worker evaluated
//! what.
//!
//! See `docs/PROTOCOL.md` for the wire format and `docs/ARCHITECTURE.md`
//! for the request lifecycle.

pub mod eviction;
pub mod protocol;
pub mod router;
pub mod session;
pub mod worker;

pub use eviction::{CacheStats, EvictingCache, Outcome};
pub use protocol::{Command, WorkloadSpec};
pub use router::{Router, RouterOptions};
pub use session::{
    refine_spaces, routing_fingerprint, sweep_points, sweep_spaces, validate_spec_constraints,
    workload_grid, BuildFn, Server,
};
pub use worker::{
    in_process_factory, spawn_process_worker, WorkerFactory, WorkerGuard, WorkerHandle, WorkerLink,
};
