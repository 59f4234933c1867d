"""The traced run (``--trace 1``): per-layer metrics of one workload.

The tracer package (``tracer/``) replays the workload's inputs through the
library crates with a span around every call into a layer's public
functions that the pool's own registry does not time, and writes the spans,
the pool's own telemetry (whose ``pipeline.*`` histograms time the core
phases the pool runs) and the deterministic work counts of two
single-thread count passes. This module
turns that into the per-layer metrics, checks the replayed responses with
the oracle and the counts for exact repetition, and adds the two layers the
library cannot see: the CLI process (``table4_batch``) and the router's
relay (``serve_routed``).

Span metrics are self times summed over the replayed stream: a span's
duration minus the part its child spans cover. Registry metrics are the
histogram sums over the same stream, inclusive of any phase nested inside
(a flow's run includes its bind and area). Layers a workload does not reach
read 0.
"""

import itertools
import json
import os
import statistics
import subprocess
import time
from collections import defaultdict

import gen
import oracle

TRACER_TIMEOUT_S = 140
# CLI passes behind cli.overhead_s (their median is compared).
CLI_PASSES = 3

# per-layer metric -> span name (self time, ms, summed over the stream)
SPAN_METRICS = {
    "ir.compile_ms": "ir.compile",
    "ir.validate_ms": "ir.validate",
    "timing.budget_ms": "timing.budget",
    "timing.slack_ms": "timing.slack",
    "pool.evaluate_ms": "pool.evaluate",
    "refine.self_ms": "refine",
    "pareto.front_ms": "pareto.front",
    "pareto.staircase_ms": "pareto.staircase",
    "session.handle_ms.sweep": "session.handle.sweep",
    "session.handle_ms.refine": "session.handle.refine",
}

# per-layer metric -> the pool's own phase histogram (sum over the stream of
# the traced pass, microseconds; reported in ms)
REGISTRY_METRICS = {
    "prepare.ms": "pipeline.elab",
    "sched.conv_ms": "pipeline.flow.conventional",
    "sched.slack_ms": "pipeline.flow.slack",
    "bind.ms": "pipeline.bind",
    "area.ms": "pipeline.area",
    "power.ms": "pipeline.power",
    "dse.cell_ms": "pipeline.evaluate",
}

# per-layer metric -> deterministic count from the tracer's count passes
COUNT_METRICS = {
    "sched.relax_rounds.conv": "sched.relax_rounds.conv",
    "sched.relax_rounds.slack": "sched.relax_rounds.slack",
    "sched.infeasible": "sched.infeasible",
    "prepare.bytes": "prepare.bytes",
    "refine.rounds": "refine.rounds",
    "refine.evaluated": "refine.evaluated",
    "refine.pruned": "refine.pruned",
    "cells.evaluated": "pool.points",
}

# per-layer metric -> the pool's own counter over the stream (count passes)
POOL_COUNTERS = {
    "cache.hits": "counter:cache.hits",
    "cache.misses": "counter:cache.misses",
    "pool.cache.coalesced": "counter:cache.coalesced",
    "pool.cache.evictions": "counter:cache.evictions",
    "prefix.hits": "counter:pipeline.prefix.hit",
    "prefix.misses": "counter:pipeline.prefix.miss",
}


def inputs(workload, seed, stream_len, rm):
    """(setup, stream) as lists of (line, spec, ctx): the untraced run's
    warm-up and the first ``stream_len`` requests of its stream."""
    if workload == "table4_batch":
        spec = {"cmd": "sweep", "workload": "idct-table4"}
        return [], [(gen.request_line(1, spec), spec, {"kind": "table4"})]
    stream = itertools.islice(rm.Stream(workload, seed).source, stream_len)
    stream = [(gen.request_line(1001 + i, spec), spec, ctx)
              for i, (spec, ctx) in enumerate(stream)]
    return ([] if workload == "serve_cold" else rm.catalogue_lines()), stream


def self_times(spans, first_request):
    """Per span name: (summed self time ms, summed duration ms) over the stream."""
    covered = defaultdict(float)
    for name, start, end, parent, req in spans:
        if parent is not None:
            covered[parent] += end - start
    self_ms, dur_ms = defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, req) in enumerate(spans):
        if req < first_request:
            continue
        self_ms[name] += (end - start - covered[i]) / 1e3
        dur_ms[name] += (end - start) / 1e3
    return self_ms, dur_ms


def session_ms_by_request(spans, first_request):
    out = {}
    for name, start, end, parent, req in spans:
        if req >= first_request and name.startswith("session.handle."):
            out[req - first_request] = (end - start) / 1e3
    return out


def terminal_results(raw):
    return [line for line in raw.splitlines() if b'"event":"result"' in line[:96]]


def traced_run(bins, workload, seed, expected, rm):
    """One traced run; returns (metrics, attempted, failed, errors, record
    extras). ``rm`` is the running ``run`` module, passed in rather than
    imported because ``run`` imports this one."""
    os.makedirs(rm.OUT_DIR, exist_ok=True)
    setup, stream = inputs(workload, seed, rm.TRACE_STREAM, rm)
    paths = {k: os.path.join(rm.OUT_DIR, f"trace-{workload}.{k}")
             for k in ("setup", "stream", "json", "responses")}
    for key, part in (("setup", setup), ("stream", stream)):
        with open(paths[key], "w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line, _, _ in part)
    # The routed workers each run one evaluator thread.
    threads = 1 if workload == "serve_routed" else 2
    cmd = [bins["tracer"], "--setup", paths["setup"], "--stream", paths["stream"],
           "--threads", str(threads), "--out", paths["json"], "--responses", paths["responses"]]
    if workload == "serve_cold":
        cmd += ["--cache-bytes", str(rm.COLD_CACHE_BYTES)]
    t_start = time.perf_counter()
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                       timeout=TRACER_TIMEOUT_S, check=False)
    waited = time.perf_counter() - t_start
    if r.returncode != 0:
        raise rm.Fatal(f"tracer failed: {r.stderr[-2000:]}")
    with open(paths["json"], encoding="utf-8") as f:
        trace = json.load(f)
    with open(paths["responses"], "rb") as f:
        raw = f.read()

    errors = []
    attempted = failed = 0
    results = terminal_results(raw)
    if len(results) != len(stream):
        errors.append(f"{len(results)} session results for {len(stream)} requests")
        failed += 1
    checker = rm.Checker(expected)
    for line, (_, spec, ctx) in zip(results, stream):
        attempted += 1
        ok, _ = checker.check(line, spec, ctx)
        failed += 0 if ok else 1
    errors += checker.errors

    counts_a, counts_b = trace["count_a"], trace["count_b"]
    pool_a = {k: v for k, v in counts_a["pool_delta"].items() if k.startswith("counter:")}
    pool_b = {k: v for k, v in counts_b["pool_delta"].items() if k.startswith("counter:")}
    deterministic = counts_a["counts"] == counts_b["counts"] and pool_a == pool_b
    attempted += 1
    if not deterministic:
        failed += 1
        errors.append(f"work counts differ between two count passes: "
                      f"{counts_a['counts']} vs {counts_b['counts']}")
    if trace["traced"]["counts"]["requests.failed"]:
        failed += 1
        errors.append("the layered replay failed a request (see tracer stderr)")

    first = trace["setup_requests"]
    self_ms, dur_ms = self_times(trace["spans"], first)
    m = {name: self_ms.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    traced_delta = trace["traced"]["pool_delta"]
    for name, hist in REGISTRY_METRICS.items():
        m[name] = traced_delta.get(f"sum:{hist}", 0.0) / 1e3
    counts = counts_a["counts"]
    for name, src in COUNT_METRICS.items():
        m[name] = counts[src]
    delta = counts_a["pool_delta"]
    for name, src in POOL_COUNTERS.items():
        m[name] = delta.get(src, 0)
    points = counts["pool.points"]
    m["pool.cache.points"] = points
    m["pool.cache.hit_ratio"] = (m["cache.hits"] + m["pool.cache.coalesced"]) / points \
        if points else 0.0
    m["pool.cache.bytes"] = delta.get("gauge:cache.bytes", 0)
    prefix_total = m["prefix.hits"] + m["prefix.misses"]
    m["pool.prefix.hit_ratio"] = m["prefix.hits"] / prefix_total if prefix_total else 0.0
    m["pool.queue_wait_ms"] = traced_delta.get("sum:pool.batch.submit_to_start_us", 0.0) / 1e3
    evaluate_us = dur_ms.get("pool.evaluate", 0.0) * 1e3
    busy_us = traced_delta.get("counter:pool.worker.busy_us", 0.0)
    m["pool.worker_idle_frac"] = max(0.0, 1.0 - busy_us / ((threads - 1) * evaluate_us)) \
        if threads > 1 and evaluate_us else 0.0
    m["session.out_bytes"] = sum(len(line) for line in raw.splitlines(keepends=True))
    untraced = trace["untraced"]["stream_ms"]
    m["trace.overhead_pct"] = (trace["traced"]["stream_ms"] - untraced) / untraced * 100.0
    m["cli.overhead_s"] = 0.0
    m["router.relay_ms"] = 0.0
    m["router.faults"] = 0
    m["router.rejected"] = 0

    if workload == "table4_batch":
        walls = []
        for _ in range(CLI_PASSES):
            wall, out, code, _ = rm.run_cli(bins["adhls"], gen.TABLE4_ARGS)
            walls.append(wall)
            attempted += 1
            errs = [f"adhls explore exited {code}"] if code else oracle.check_result(
                rm.table4_doc_to_msg(out), {"cmd": "sweep"}, {"kind": "table4"}, expected)
            failed += 1 if errs else 0
            errors += errs
        waited += sum(walls)
        m["cli.overhead_s"] = statistics.median(walls) - dur_ms.get("pool.evaluate", 0.0) / 1e3
    elif workload == "serve_routed":
        t_routed = time.perf_counter()
        a, f, relay, counters, errs = routed_relay(bins, rm, setup, stream, expected,
                                                   session_ms_by_request(trace["spans"], first))
        waited += time.perf_counter() - t_routed
        attempted += a
        failed += f
        errors += errs
        m["router.relay_ms"] = relay
        m["router.faults"] = counters.get("serve.worker.faults", 0)
        m["router.rejected"] = counters.get("serve.rejected", 0)

    extra = {
        # Time the benchmark itself spent, not waiting on the tracer, a CLI
        # pass or the routed server (the routed client's own share is
        # inside the latter).
        "generator_self_s": time.perf_counter() - t_start - waited,
        "deterministic_counts": deterministic,
        "counts": counts,
        "pool_counters": pool_a,
        "tracer": {k: trace[k] for k in ("threads", "setup_requests", "stream_requests",
                                         "untraced")},
        "traced_stream_ms": trace["traced"]["stream_ms"],
        "spans_file": os.path.relpath(paths["json"], rm.ROOT),
        "self_ms": dict(sorted(self_ms.items())),
        "pipeline_ms": {k[len("sum:"):]: v / 1e3 for k, v in sorted(traced_delta.items())
                        if k.startswith("sum:pipeline.")},
    }
    return m, attempted, failed, errors, extra


def routed_relay(bins, rm, setup, stream, expected, session_ms):
    """Replays the stream through a routed server, one request at a time.

    Returns (attempted, failed, relay ms, router counters, errors): the relay
    is each request's routed latency minus the in-process ``handle_line``
    time of the same request, summed over the stream.
    """
    checker = rm.Checker(expected)
    server = rm.Server(bins["adhls"], rm.serve_args("serve_routed"))
    attempted = failed = 0
    relay = 0.0
    counters = {}
    try:
        conn = server.connect()
        for line, spec, ctx in setup:
            msg, _ = conn.request(line.encode())
            attempted += 1
            failed += 0 if checker.check(msg, spec, ctx)[0] else 1
        for i, (line, spec, ctx) in enumerate(stream):
            msg, lat = conn.request(line.encode())
            attempted += 1
            failed += 0 if checker.check(msg, spec, ctx)[0] else 1
            relay += lat * 1e3 - session_ms.get(i, 0.0)
        reply, _ = conn.request(b'{"id":1,"cmd":"metrics"}')
        counters = json.loads(reply).get("metrics", {}).get("counters", {})
        conn.close()
    finally:
        server.shutdown()
    return attempted, failed, relay, counters, checker.errors
