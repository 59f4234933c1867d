//! End-to-end acceptance for the multi-worker serve tier: a router over
//! N≥2 in-process workers answers concurrent IDCT refinements — and a
//! full sweep — **bit-identically** to a direct single-pool server, while
//! spreading the requests across worker shards.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::fingerprint::Fnv;
use adhls_explore::pool::{EvaluatorPool, PoolOptions};
use adhls_explore::server::protocol::parse_request;
use adhls_explore::server::{
    in_process_factory, routing_fingerprint, sweep_points, Command, Frontend, Router,
    RouterOptions, Server,
};
use adhls_reslib::tsmc90;

/// Four concurrent IDCT refinements over distinct grids (distinct design
/// fingerprints, so the shards can spread) — the ISSUE's acceptance load.
const REFINES: [&str; 4] = [
    r#"{"id":1,"cmd":"refine","workload":"idct","clocks":[2200,2600,3000],"cycles":[12,16,20,24],"gap_tol":0.0}"#,
    r#"{"id":2,"cmd":"refine","workload":"idct","clocks":[2200,2400,2800,3000],"cycles":[12,16,20,24],"gap_tol":0.0}"#,
    r#"{"id":3,"cmd":"refine","workload":"idct","clocks":[2000,2400,2800,3200],"cycles":[14,18,22,26],"gap_tol":0.0}"#,
    r#"{"id":4,"cmd":"refine","workload":"idct","clocks":[2100,2500,2900,3300],"cycles":[12,18,24,30],"gap_tol":0.0}"#,
];

const SWEEP: &str = r#"{"id":"s","cmd":"sweep","workload":"idct","clocks":[2200,2600,3000],"cycles":[12,16,20,24]}"#;

fn pool_opts() -> PoolOptions {
    PoolOptions {
        threads: 2,
        skip_infeasible: true,
        ..Default::default()
    }
}

fn direct_response(line: &str) -> String {
    let srv = Server::new(EvaluatorPool::new(
        tsmc90::library(),
        HlsOptions::default(),
        pool_opts(),
    ));
    let mut out = Vec::new();
    srv.serve_connection(format!("{line}\n").as_bytes(), &mut out)
        .expect("direct serve");
    String::from_utf8(out).expect("responses are UTF-8")
}

fn two_worker_router() -> Router {
    Router::new(
        in_process_factory(|_idx| {
            EvaluatorPool::new(tsmc90::library(), HlsOptions::default(), pool_opts())
        }),
        RouterOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("router spawns")
}

/// The slot rendezvous hashing assigns a request to — recomputed here so
/// the test can prove the load actually spans both shards.
fn assigned_slot(line: &str, workers: usize) -> usize {
    let (_, cmd) = parse_request(line);
    let spec = match cmd.expect("fixture parses") {
        Command::Refine { spec, .. } | Command::Sweep(spec) => spec,
        other => panic!("fixture is not routable: {other:?}"),
    };
    let key = routing_fingerprint(&spec).expect("fixture spec is valid");
    (0..workers)
        .max_by_key(|&i| {
            let mut h = Fnv::default();
            h.u64(key).u64(i as u64);
            (h.digest(), i)
        })
        .expect("at least one worker")
}

#[test]
fn concurrent_refines_through_the_router_match_the_direct_streams() {
    let shards: std::collections::BTreeSet<usize> =
        REFINES.iter().map(|l| assigned_slot(l, 2)).collect();
    assert_eq!(
        shards.len(),
        2,
        "the fixture load must exercise both worker shards, got {shards:?}"
    );

    let router = two_worker_router();
    let routed: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = REFINES
            .iter()
            .map(|line| {
                let router = &router;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    router.handle_line(line, &mut out).expect("routed refine");
                    String::from_utf8(out).expect("responses are UTF-8")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("refine thread"))
            .collect()
    });

    for (line, got) in REFINES.iter().zip(&routed) {
        assert_eq!(
            got,
            &direct_response(line),
            "routed stream diverged from the direct single-pool stream for {line}"
        );
    }

    let snap = router.telemetry().snapshot();
    assert_eq!(snap.counter("serve.worker.spawns"), Some(2));
    assert_eq!(snap.counter("serve.worker.faults").unwrap_or(0), 0);
    assert_eq!(snap.counter("serve.rejected").unwrap_or(0), 0);
}

#[test]
fn a_routed_sweep_matches_the_direct_response_and_the_engine_rows() {
    let router = two_worker_router();
    let mut out = Vec::new();
    router.handle_line(SWEEP, &mut out).expect("routed sweep");
    let routed = String::from_utf8(out).expect("responses are UTF-8");
    assert_eq!(routed, direct_response(SWEEP), "routed sweep diverged");

    // Tie the wire rows back to the core per-point path: same points, same
    // names, in the same order (infeasible points skipped).
    let (_, cmd) = parse_request(SWEEP);
    let Ok(Command::Sweep(spec)) = cmd else {
        panic!("fixture parses as sweep")
    };
    let points = sweep_points(&spec).expect("fixture expands");
    let lib = tsmc90::library();
    let reference: Vec<_> = points
        .iter()
        .filter_map(|p| adhls_core::dse::evaluate_point(p, &lib, &HlsOptions::default()).ok())
        .collect();

    let doc = Value::parse(routed.trim_end()).expect("sweep response is JSON");
    let Some(Value::Arr(rows)) = doc.get("rows") else {
        panic!("sweep response has rows: {routed}")
    };
    assert_eq!(rows.len(), reference.len());
    for (wire, core_row) in rows.iter().zip(&reference) {
        assert_eq!(
            wire.get("name").and_then(Value::as_str),
            Some(core_row.name.as_str()),
            "wire row order must match the input order"
        );
    }
}

/// A second identical refine lands on the same shard (rendezvous hashing
/// is deterministic) and replays out of that worker's warm cache — the
/// property that makes sharding worth having.
#[test]
fn repeated_requests_stay_on_their_shard_and_hit_its_cache() {
    let router = two_worker_router();
    let line = REFINES[0];
    let mut first = Vec::new();
    router.handle_line(line, &mut first).expect("first refine");
    let before = router.metrics_snapshot().counter("cache.hits").unwrap_or(0);
    let mut second = Vec::new();
    router
        .handle_line(line, &mut second)
        .expect("second refine");
    assert_eq!(
        first, second,
        "a replayed refine must stream identical bytes"
    );
    let after = router.metrics_snapshot().counter("cache.hits").unwrap_or(0);
    assert!(
        after > before,
        "the replay must hit the owning shard's warm cache ({before} -> {after})"
    );
}
