//! End-to-end tests for `adhls serve` — the PR's acceptance path: start
//! the daemon, submit two *concurrent* adaptive requests for the IDCT
//! workload over separate TCP connections, and check that both returned
//! fronts are bit-identical to a direct serial run of the same grid,
//! that the server's `stats` response shows cross-request cache sharing,
//! and that the cache stayed within its `--cache-bytes` budget.

use adhls_core::json::Value;
use adhls_core::sched::HlsOptions;
use adhls_explore::export::rows_to_json_line;
use adhls_explore::refine::{refine, RefineOptions};
use adhls_explore::server::{workload_grid, WorkloadSpec};
use adhls_explore::{EvaluatorPool, PoolOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const CACHE_BYTES: u64 = 256 * 1024;

/// The grid both server requests and the direct reference run explore:
/// small enough to keep the test fast, rich enough for multiple rounds.
const CLOCKS: [u64; 2] = [2200, 3000];
const CYCLES: [u32; 3] = [12, 16, 24];
const GAP_TOL: f64 = 0.1;

struct Serve {
    child: Child,
    addr: String,
    metrics_addr: Option<String>,
}

impl Serve {
    fn start(extra: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_adhls"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("adhls serve spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let announced = |reader: &mut BufReader<_>, what: &str| {
            let mut line = String::new();
            reader.read_line(&mut line).expect(what);
            let addr = line
                .trim()
                .rsplit(' ')
                .next()
                .expect("address at end of announcement")
                .to_string();
            assert!(
                addr.starts_with("127.0.0.1:"),
                "unexpected announcement: {line}"
            );
            addr
        };
        let addr = announced(&mut reader, "serve announces its address");
        if extra.contains(&"--workers") {
            // Router mode inserts its banner between the address and
            // metrics announcements.
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .expect("router announces its workers");
            assert!(
                line.contains("routing over"),
                "unexpected router banner: {line}"
            );
        }
        let metrics_addr = extra
            .contains(&"--metrics-addr")
            .then(|| announced(&mut reader, "serve announces its metrics address"));
        Serve {
            child,
            addr,
            metrics_addr,
        }
    }

    /// One raw HTTP scrape of the exposition listener; returns head + body.
    fn scrape(&self) -> String {
        let addr = self
            .metrics_addr
            .as_ref()
            .expect("started with --metrics-addr");
        let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            .expect("send scrape request");
        let mut out = String::new();
        use std::io::Read as _;
        stream
            .read_to_string(&mut out)
            .expect("read scrape response");
        out
    }

    /// Sends one request line on a fresh connection; returns all response
    /// lines up to and including the terminal `result`.
    fn request(&self, line: &str) -> Vec<Value> {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        loop {
            let mut resp = String::new();
            let n = reader.read_line(&mut resp).expect("read response");
            assert!(n > 0, "connection closed before a result message");
            let v = Value::parse(resp.trim()).expect("response is JSON");
            let terminal = v.get("event").and_then(Value::as_str) == Some("result");
            out.push(v);
            if terminal {
                return out;
            }
        }
    }

    fn shutdown(mut self) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect for shutdown");
        stream
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("send shutdown");
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).ok();
        let status = self.child.wait().expect("serve exits after shutdown");
        assert!(status.success(), "serve exited with {status}");
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Belt and braces: if an assertion fired before shutdown(), don't
        // leak the daemon.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The direct (no server, no pool) reference front for the test grid.
fn direct_front_json() -> String {
    let pool = EvaluatorPool::new(
        adhls_reslib::tsmc90::library(),
        HlsOptions::default(),
        PoolOptions {
            threads: 1,
            skip_infeasible: true,
            ..Default::default()
        },
    );
    let (grid, prefix, build) = workload_grid(&WorkloadSpec {
        workload: Some("idct".into()),
        clocks: Some(CLOCKS.to_vec()),
        cycles: Some(CYCLES.to_vec()),
        ..Default::default()
    })
    .expect("idct grid builds");
    let r = refine(
        &pool,
        &grid,
        &prefix,
        build,
        &RefineOptions {
            gap_tol: GAP_TOL,
            ..Default::default()
        },
    )
    .expect("direct refinement runs");
    rows_to_json_line(&r.front)
}

#[test]
fn concurrent_adaptive_requests_share_one_pool_and_match_direct_runs() {
    let serve = Serve::start(&["--cache-bytes", &CACHE_BYTES.to_string(), "--threads", "4"]);
    let req = |id: usize| {
        format!(
            "{{\"id\":{id},\"cmd\":\"refine\",\"workload\":\"idct\",\
             \"clocks\":[2200,3000],\"cycles\":[12,16,24],\"gap_tol\":{GAP_TOL}}}"
        )
    };

    // Two concurrent adaptive requests over separate connections.
    let (resp_a, resp_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| serve.request(&req(1)));
        let b = scope.spawn(|| serve.request(&req(2)));
        (a.join().expect("client A"), b.join().expect("client B"))
    });

    let expected_front = direct_front_json();
    for (who, resp) in [("A", &resp_a), ("B", &resp_b)] {
        let result = resp.last().expect("terminal message");
        assert_eq!(
            result.get("ok"),
            Some(&Value::Bool(true)),
            "client {who}: {}",
            result.render()
        );
        // Round events streamed before the result.
        assert!(
            resp.len() >= 2,
            "client {who} saw no streamed rounds: {} messages",
            resp.len()
        );
        // The served front is byte-identical to the direct serial run.
        let served = result.render();
        assert!(
            served.contains(&format!("\"front\":{expected_front}")),
            "client {who}'s front diverged from the direct run\n\
             served: {served}\nexpected front: {expected_front}"
        );
    }

    // Cross-request sharing: the stats response must show cache hits
    // (direct hits, or waits coalesced onto the other request's in-flight
    // evaluations — both mean one HLS run served two requests).
    let stats_resp = serve.request("{\"id\":9,\"cmd\":\"stats\"}");
    let stats = stats_resp[0].get("stats").expect("stats payload");
    let hits = stats.get("hits").and_then(Value::as_u64).unwrap();
    let coalesced = stats.get("coalesced").and_then(Value::as_u64).unwrap();
    assert!(
        hits + coalesced > 0,
        "identical concurrent requests shared nothing: {}",
        stats.render()
    );

    // Evictions respect --cache-bytes: the budget is echoed and the live
    // byte gauge sits within it.
    assert_eq!(
        stats.get("capacity_bytes").and_then(Value::as_u64),
        Some(CACHE_BYTES)
    );
    let bytes = stats.get("bytes").and_then(Value::as_u64).unwrap();
    assert!(
        bytes <= CACHE_BYTES,
        "cache at {bytes} bytes exceeds the {CACHE_BYTES} budget"
    );
    assert!(stats.get("evictions").and_then(Value::as_u64).is_some());

    serve.shutdown();
}

#[test]
fn tiny_cache_budget_forces_evictions_but_not_wrong_answers() {
    // A budget far below one IDCT row per shard: everything evicts, rows
    // still match the direct run (eviction trades hits for recomputation).
    let serve = Serve::start(&["--cache-bytes", "1k", "--threads", "2"]);
    let req = "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
               \"clocks\":[1100,1400],\"cycles\":[3,4]}";
    let first = serve.request(req);
    let second = serve.request(req);
    assert_eq!(
        first[0].get("rows").unwrap().render(),
        second[0].get("rows").unwrap().render(),
        "rows changed across repeated requests under eviction pressure"
    );
    let stats = serve.request("{\"cmd\":\"stats\"}");
    let s = stats[0].get("stats").unwrap();
    let bytes = s.get("bytes").and_then(Value::as_u64).unwrap();
    assert!(bytes <= 1024, "{bytes} bytes cached under a 1k budget");
    serve.shutdown();
}

/// The observability acceptance path: every export surface (the `metrics`
/// verb, the `stats` verb, the Prometheus exposition listener) renders
/// one shared snapshot, and the per-request span histograms plus the
/// in-flight gauge account for the request counter exactly.
#[test]
fn metrics_surfaces_reconcile_with_the_request_history() {
    let serve = Serve::start(&[
        "--threads",
        "2",
        "--metrics-addr",
        "127.0.0.1:0",
        "--slow-ms",
        "600000",
    ]);
    // Traffic: one sweep (ok), one ping (ok), one unknown command (error).
    let sweep = serve.request(
        "{\"id\":1,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
         \"clocks\":[1100,1400],\"cycles\":[3,4]}",
    );
    assert_eq!(sweep[0].get("ok"), Some(&Value::Bool(true)));
    serve.request("{\"id\":2,\"cmd\":\"ping\"}");
    let err = serve.request("{\"id\":3,\"cmd\":\"frobnicate\"}");
    assert_eq!(err[0].get("ok"), Some(&Value::Bool(false)));

    let resp = serve.request("{\"id\":4,\"cmd\":\"metrics\"}");
    let m = resp[0].get("metrics").expect("metrics payload");
    let counter = |name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
    };
    let gauge = |name: &str| {
        m.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Value::as_u64)
    };
    let hist_count = |name: &str| {
        m.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };

    // Per-verb spans for the three finished requests; the metrics request
    // itself is still in flight at snapshot time, so it appears in the
    // gauge rather than its histogram.
    assert_eq!(hist_count("serve.request.sweep"), 1);
    assert_eq!(hist_count("serve.request.ping"), 1);
    assert_eq!(hist_count("serve.request.invalid"), 1);
    let requests = counter("serve.requests").expect("request counter");
    assert_eq!(requests, 4);
    let in_flight = gauge("serve.in_flight").expect("in-flight gauge");
    let span_total: u64 = [
        "sweep", "refine", "stats", "metrics", "ping", "shutdown", "invalid",
    ]
    .iter()
    .map(|v| hist_count(&format!("serve.request.{v}")))
    .sum();
    assert_eq!(
        span_total + in_flight,
        requests,
        "per-request spans + in-flight must account for every request: {}",
        resp[0].render()
    );
    // Outcome counters partition the finished requests.
    assert_eq!(counter("serve.ok"), Some(2));
    assert_eq!(counter("serve.errors"), Some(1));
    // The sweep's real HLS work shows up as pipeline phase spans, pool
    // batches, and cache misses — one unified snapshot, so the phase
    // count and the cache's miss counter must agree exactly.
    assert!(hist_count("pipeline.evaluate") >= 4);
    assert_eq!(
        counter("cache.misses"),
        Some(hist_count("pipeline.evaluate"))
    );
    assert!(counter("pool.points").unwrap_or(0) >= 4);
    assert_eq!(gauge("pool.threads"), Some(2));
    assert!(gauge("serve.uptime_ms").is_some());

    // The stats verb reads the same snapshot: its request counter sits
    // exactly one ahead (itself), and the pool echo matches.
    let stats_resp = serve.request("{\"id\":5,\"cmd\":\"stats\"}");
    let stats = stats_resp[0].get("stats").expect("stats payload");
    assert_eq!(
        stats.get("requests").and_then(Value::as_u64),
        Some(requests + 1)
    );
    assert_eq!(stats.get("threads").and_then(Value::as_u64), Some(2));
    assert_eq!(stats.get("in_flight").and_then(Value::as_u64), Some(1));
    assert!(stats.get("uptime_ms").and_then(Value::as_u64).is_some());

    // The exposition listener renders the same snapshot in Prometheus
    // text format; a scrape is not a protocol request, so the counter
    // still reads 5.
    let scrape = serve.scrape();
    assert!(
        scrape.starts_with("HTTP/1.0 200 OK"),
        "unexpected scrape head: {}",
        scrape.lines().next().unwrap_or("")
    );
    assert!(scrape.contains("Content-Type: text/plain; version=0.0.4"));
    assert!(
        scrape.contains("\nadhls_serve_requests 5\n"),
        "scrape disagrees with the metrics verb:\n{scrape}"
    );
    assert!(scrape.contains("# TYPE adhls_serve_request_sweep histogram"));
    assert!(scrape.contains("adhls_serve_request_sweep_count 1"));
    assert!(scrape.contains("adhls_pipeline_schedule_bucket{le=\"+Inf\"}"));
    assert!(scrape.contains("adhls_serve_scrapes 1"));

    serve.shutdown();
}

#[test]
fn stdio_transport_answers_ping_and_sweep() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_adhls"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("adhls serve --stdio spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"id\":1,\"cmd\":\"ping\"}\n\
              {\"id\":2,\"cmd\":\"sweep\",\"workload\":\"interpolation\",\
               \"clocks\":[1100],\"cycles\":[3]}\n",
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("stdio serve exits on EOF");
    assert!(out.status.success());
    let lines: Vec<Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| Value::parse(l).expect("JSON line"))
        .collect();
    assert_eq!(lines.len(), 2, "one response per request");
    assert_eq!(lines[0].get("cmd").and_then(Value::as_str), Some("ping"));
    assert_eq!(lines[1].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(
        lines[1]
            .get("rows")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(1)
    );
}

/// The multi-worker acceptance path against the release binary over real
/// TCP: `--workers 2` routes concurrent refinements to sharded workers,
/// the fronts stay bit-identical to a direct serial run, a `cancel`
/// with nothing in flight yields the documented structured error, and
/// the aggregated `stats` surface counts every client request once.
#[test]
fn routed_concurrent_requests_match_direct_runs_and_aggregate_stats() {
    let serve = Serve::start(&["--workers", "2", "--threads", "2"]);
    let req = |id: usize| {
        format!(
            "{{\"id\":{id},\"cmd\":\"refine\",\"workload\":\"idct\",\
             \"clocks\":[2200,3000],\"cycles\":[12,16,24],\"gap_tol\":{GAP_TOL}}}"
        )
    };

    let (resp_a, resp_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| serve.request(&req(1)));
        let b = scope.spawn(|| serve.request(&req(2)));
        (a.join().expect("client A"), b.join().expect("client B"))
    });

    let expected_front = direct_front_json();
    for (who, resp) in [("A", &resp_a), ("B", &resp_b)] {
        let result = resp.last().expect("terminal message");
        assert_eq!(
            result.get("ok"),
            Some(&Value::Bool(true)),
            "client {who}: {}",
            result.render()
        );
        assert!(
            resp.len() >= 2,
            "client {who} saw no relayed rounds: {} messages",
            resp.len()
        );
        let served = result.render();
        assert!(
            served.contains(&format!("\"front\":{expected_front}")),
            "client {who}'s routed front diverged from the direct run\n\
             served: {served}\nexpected front: {expected_front}"
        );
    }

    // A cancel with nothing in flight is answered by the router with the
    // same structured error a single-pool server gives.
    let cancel = serve.request("{\"id\":7,\"cmd\":\"cancel\",\"target\":1}");
    assert_eq!(cancel[0].get("ok"), Some(&Value::Bool(false)));
    assert!(
        cancel[0]
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("no in-flight request")),
        "unexpected cancel error: {}",
        cancel[0].render()
    );

    // Aggregated metrics: the router counts each client request exactly
    // once (two refines, the cancel, this metrics request) even though
    // the workers also served forwarded copies, and the workers gauge
    // reports both backends alive.
    let resp = serve.request("{\"id\":9,\"cmd\":\"metrics\"}");
    let m = resp[0].get("metrics").expect("metrics payload");
    assert_eq!(
        m.get("counters")
            .and_then(|c| c.get("serve.requests"))
            .and_then(Value::as_u64),
        Some(4),
        "router double-counted or dropped requests: {}",
        resp[0].render()
    );
    assert_eq!(
        m.get("gauges")
            .and_then(|g| g.get("serve.workers"))
            .and_then(Value::as_u64),
        Some(2)
    );

    serve.shutdown();
}
