#!/usr/bin/env python3
"""The adhls benchmark: the ``explore`` CLI and the ``serve`` protocol under load.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds ``adhls`` (and, with ``--trace 1``, the tracer package next to this
file) from the checkout, runs one workload for ``--seconds`` seconds, checks
every output (see ``oracle.py``) and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
replay with ``--trace 1``. The line before it is the full record (host,
connections, generator self time, counts), which is also appended to
``benchmark/out/results.jsonl`` for ``compare.py``. The command exits 1 when
any output fails a check, and 2 when it cannot run at all.

    python3 benchmark/run.py --regenerate-expected "<why the rows changed>"

rewrites ``expected/`` from the program's current output; see README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("table4_batch", "serve_warm", "serve_cold", "serve_routed")
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 60.0
# Set-ups per run; the metric is their median. Cold set-up is only a spawn,
# so it can afford more repetitions.
SETUPS = {"serve_warm": 3, "serve_cold": 7, "serve_routed": 3}
# The first FIXED_REQUESTS requests of a serve stream always run, even past
# the window, and the figures that grow with the work done come from them
# alone: the server's peak RSS, read when that many have completed, and the
# quality of the rows they returned. A faster program does more work in the
# window; these figures must not move with it.
FIXED_REQUESTS = 800
HELP_SPAWNS = 31
# table4_batch is CPU-bound, and the shared host's speed drifts by a third
# and more from one minute to the next (README.md, "Host speed"). So every
# cold process there, and every spawn timed as a set-up on table4_batch and
# serve_cold, is bracketed by runs of a fixed reference program
# (``calibrate/``) and its time is scaled to a host of fixed speed: the
# reference's work takes CAL_NOMINAL_S there, and a minimal spawn of it
# SPAWN_NOMINAL_S. CAL_CHECKSUM is what the work prints.
CAL_CHECKSUM = b"17538947228160358335"
CAL_NOMINAL_S = 0.12
SPAWN_NOMINAL_S = 0.001
COLD_CACHE_BYTES = 64 * 1024
TRACE_STREAM = 150


class Fatal(Exception):
    """The benchmark cannot run (build failure, missing binary, bad option)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True, check=False)
    if r.returncode != 0:
        raise Fatal(f"cargo build {' '.join(args)} failed:\n{r.stderr[-4000:]}")


def build(trace):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise Fatal("no Cargo.toml at the checkout root: nothing to build")
    cargo_build(["-p", "adhls-cli", "--bin", "adhls"])
    cargo_build(["--manifest-path", os.path.join(HERE, "calibrate", "Cargo.toml")])
    bins = {"adhls": os.path.join(target_dir(), "release", "adhls"),
            "calibrate": os.path.join(target_dir(), "release", "adhls-benchmark-calibrate")}
    if trace:
        cargo_build(["--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")])
        bins["tracer"] = os.path.join(target_dir(), "release", "adhls-benchmark-tracer")
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise Fatal(f"build produced no executable at {path}")
    return bins


# ------------------------------------------------------------ processes


def vm_hwm_kb(pid):
    """Peak resident set of a live process, from /proc (kB)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid):
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as f:
                out.extend(int(p) for p in f.read().split())
    except OSError:
        pass
    return out


def alive(pid):
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def run_cli(binary, args):
    """Runs one CLI process; returns (wall s, stdout bytes, exit code, peak RSS kB)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "cli.stderr"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([binary, *args], stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, out, p.returncode, usage.ru_maxrss


class Server:
    """One ``adhls serve`` process on an ephemeral port."""

    def __init__(self, binary, extra):
        self.proc = subprocess.Popen([binary, "serve", "--addr", "127.0.0.1:0", *extra],
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.kill()
            raise Fatal(f"adhls serve did not announce its port: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.workers = []

    def connect(self):
        return Conn(self.port)

    def peak_rss_kb(self):
        """The server's peak RSS plus that of every worker process it spawned."""
        self.workers = child_pids(self.proc.pid)
        return vm_hwm_kb(self.proc.pid) + sum(vm_hwm_kb(w) for w in self.workers)

    def shutdown(self):
        if not self.workers:
            self.workers = child_pids(self.proc.pid)
        try:
            c = self.connect()
            c.request(b'{"cmd":"shutdown"}')
            c.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()
        deadline = time.monotonic() + 15
        for w in self.workers:
            while alive(w) and time.monotonic() < deadline:
                time.sleep(0.02)
            if alive(w):
                try:
                    os.kill(w, signal.SIGKILL)
                except OSError:
                    pass

    def kill(self):
        for w in child_pids(self.proc.pid):
            try:
                os.kill(w, signal.SIGKILL)
            except OSError:
                pass
        self.proc.kill()
        self.proc.wait()


class Conn:
    """A closed-loop protocol client: one request in flight at a time, on a
    socket with the kernel's default options, as a user's tool would open.

    The server writes each line in two writes without TCP_NODELAY, so the
    second waits on Nagle's algorithm for this client's delayed ACK, about
    40 ms per line. The benchmark measures that stall, as users see it.
    """

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")

    def request(self, line):
        """Sends one request line; returns (terminal result line, latency s).

        Streamed ``round`` events are read and dropped; only the terminal
        ``result`` line ends the request.
        """
        t0 = time.perf_counter()
        self.sock.sendall(line + b"\n")
        while True:
            msg = self.rfile.readline()
            if not msg:
                raise ConnectionError("server closed the connection")
            if b'"event":"result"' in msg[:96]:
                return msg, time.perf_counter() - t0

    def close(self):
        self.rfile.close()
        self.sock.close()


# ------------------------------------------------------------- helpers


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_info(connections):
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "connections": connections,
        "python": sys.version.split()[0],
    }


def iqm(values):
    """Interquartile mean: the mean of the sorted values without the lowest
    and highest quarter. Like the median it reads the typical sample and
    ignores the tails; unlike the median it moves smoothly with the share
    of each mode when the samples fall into two (see README.md)."""
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


def metric(value, unit):
    return {"value": value, "unit": unit}


def declared_metrics(kind):
    """(name, unit) of every ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def in_declared_order(kind, values):
    """The metrics object: every declared metric with its declared unit."""
    declared = declared_metrics(kind)
    missing = sorted({n for n, _ in declared} ^ set(values))
    if missing:
        raise Fatal(f"measured and declared {kind} metrics differ: {missing}")
    return {name: metric(values[name], unit) for name, unit in declared}


def strip_id(line):
    """A response line without its leading ``"id"`` field (for de-duplication)."""
    return line.split(b",", 1)[1] if line.startswith(b'{"id":') else line


class Checker:
    """Checks terminal results once per distinct response body."""

    def __init__(self, expected):
        self.expected = expected
        self.seen = {}
        self.errors = []
        self.setup_attempted = 0
        self.setup_failed = 0
        self.setup_rows = {}

    def check(self, line, spec, ctx):
        """Returns (ok, rows) for one response line; records errors."""
        digest = hashlib.sha1(strip_id(line) + json.dumps(ctx, sort_keys=True).encode()).digest()
        hit = self.seen.get(digest)
        if hit is None:
            try:
                msg = json.loads(line)
            except ValueError as e:
                msg = {"ok": False, "error": f"unparseable response: {e}"}
            errs = oracle.check_result(msg, spec, ctx, self.expected)
            hit = (not errs, msg.get("rows", []) if not errs else [])
            for e in errs[:3]:
                self.errors.append(e)
            self.seen[digest] = hit
        return hit


# --------------------------------------------------------- table4_batch


def table4_doc_to_msg(out):
    doc = json.loads(out)
    return {"ok": True, "rows": doc["sweep"], "front": doc["front"]}


def reference_spawn(bins):
    """One timed minimal spawn of the reference program (s)."""
    return run_cli(bins["calibrate"], ["--exit"])[0]


def calibrate(bins):
    """One timed run of the reference work (s); checks its output."""
    wall, out, code, _ = run_cli(bins["calibrate"], [])
    if code != 0 or out.strip() != CAL_CHECKSUM:
        raise Fatal(f"the calibration program failed (exit {code}, printed {out[:40]!r})")
    return wall


def at_nominal_speed(seconds, refs, nominal):
    """``seconds`` as it would read on the fixed-speed host: scaled by the
    reference's ``nominal`` time there over its mean time in ``refs``, the
    reference runs just before and after."""
    return seconds * nominal / statistics.fmean(refs)


def run_table4(bins, seconds, expected):
    spec = {"cmd": "sweep"}
    ctx = {"kind": "table4"}
    # CLI users pay every cost on every pass; the only set-up left is the
    # program's fixed start-up, measured as a no-work invocation, each
    # bracketed by minimal spawns of the reference program.
    refs = [reference_spawn(bins)]
    spawns, spawn_scaled = [], []
    for _ in range(HELP_SPAWNS):
        spawns.append(run_cli(bins["adhls"], ["help"])[0])
        refs.append(reference_spawn(bins))
        spawn_scaled.append(at_nominal_speed(spawns[-1], refs[-2:], SPAWN_NOMINAL_S))
    walls, scaled, cals, failed, rss, errors, rows = [], [], [], 0, 0, [], []
    gen_self = 0.0
    start = time.perf_counter()
    cals.append(calibrate(bins))
    while not walls or time.perf_counter() - start < seconds:
        t_loop = time.perf_counter()
        wall, out, code, peak = run_cli(bins["adhls"], gen.TABLE4_ARGS)
        cals.append(calibrate(bins))
        rss = max(rss, peak)
        errs = [f"adhls explore exited {code}"] if code != 0 else []
        if not errs:
            try:
                msg = table4_doc_to_msg(out)
                errs = oracle.check_result(msg, spec, ctx, expected)
                rows = msg["rows"]
            except ValueError as e:
                errs = [f"unparseable export: {e}"]
        if errs:
            failed += 1
            errors.extend(errs[:3])
        walls.append(wall)
        scaled.append(at_nominal_speed(wall, cals[-2:], CAL_NOMINAL_S))
        gen_self += time.perf_counter() - t_loop - wall - cals[-1]
    elapsed = time.perf_counter() - start
    ok = len(walls) - failed
    cells = len(expected["table4"]["rows"])
    # Throughput over the passes' own (scaled) time: the checks and the
    # calibration between passes are not the program's time.
    passes_s = sum(scaled)
    qor = statistics.fmean(r["save_pct"] for r in rows) if rows else 0.0
    metrics = {
        "setup_s": statistics.median(spawn_scaled),
        "peak_rss_mb": rss / 1024.0,
        "req_ms_iqm": iqm(scaled) * 1e3,
        "req_ms_p90": percentile(scaled, 90) * 1e3,
        "req_per_s": ok / passes_s,
        "cells_per_s": ok * cells / passes_s,
        "ok_rate": ok / len(walls),
        "qor_save_pct": qor,
    }
    extra = {"pass_ms": [w * 1e3 for w in walls],
             "pass_ms_scaled": [w * 1e3 for w in scaled],
             "calibration_ms": [c * 1e3 for c in cals],
             # How fast the host ran, against the fixed-speed host the
             # metrics are scaled to (above 1: faster).
             "host_speed": CAL_NOMINAL_S / statistics.median(cals),
             "raw": {"req_ms_iqm": iqm(walls) * 1e3,
                     "req_ms_p50": statistics.median(walls) * 1e3,
                     "req_ms_p90": percentile(walls, 90) * 1e3,
                     "setup_s": statistics.median(spawns)},
             "req_ms_p50": statistics.median(scaled) * 1e3,
             "generator_self_s": gen_self,
             "elapsed_s": elapsed,
             "seed_note": "the Table 4 grid is fixed; the seed has no effect"}
    return metrics, len(walls), failed, errors, extra


# -------------------------------------------------------- serve workloads


def serve_args(workload):
    if workload == "serve_routed":
        return ["--workers", "2", "--worker-mode", "process", "--threads", "1"]
    if workload == "serve_cold":
        return ["--threads", "2", "--cache-bytes", str(COLD_CACHE_BYTES)]
    return ["--threads", "2"]


def catalogue_lines():
    """The warm-up: every catalogue entry once, as (line, spec, ctx)."""
    return [(gen.request_line(i + 1, spec), spec, {"kind": "catalogue", "key": key})
            for i, (key, spec) in enumerate(gen.CATALOGUE)]


def set_up_server(bins, workload, checker):
    """Spawns a server and checks that it answers ``ping``; on the warm
    workloads, also replays the catalogue once (checked after the clock
    stops). Returns (server, seconds).

    The set-up time runs from the spawn to the announced listening port,
    plus, on the warm workloads, the ping and the catalogue pass. A first
    connection waits for the accept loop, which polls every 25 ms; whether
    the ping lands before or after its first poll is a coin toss (about 2.5
    or 27 ms), which would make a median of set-ups jump between the two,
    so on ``serve_cold`` the ping is not part of the measured set-up.
    """
    t0 = time.perf_counter()
    server = Server(bins["adhls"], serve_args(workload))
    listening = time.perf_counter() - t0
    try:
        conn = server.connect()
        reply, _ = conn.request(b'{"id":0,"cmd":"ping"}')
        if b'"ok":true' not in reply:
            raise Fatal(f"ping failed: {reply!r}")
        warm_up = []
        if workload != "serve_cold":
            for line, spec, ctx in catalogue_lines():
                warm_up.append((conn.request(line.encode())[0], spec, ctx))
        took = listening if workload == "serve_cold" else time.perf_counter() - t0
        conn.close()
    except BaseException:
        server.kill()
        raise
    for msg, spec, ctx in warm_up:
        ok, rows = checker.check(msg, spec, ctx)
        checker.setup_attempted += 1
        checker.setup_failed += 0 if ok else 1
        checker.setup_rows.update((row["name"], row["save_pct"]) for row in rows)
    return server, took


class Stream:
    """The seeded request sequence, taken in order by whichever connection
    is free (callers serialise ``take``)."""

    def __init__(self, workload, seed):
        self.taken = 0
        if workload == "serve_cold":
            self.source = gen.cold_requests(seed)
        else:
            entries = dict(gen.CATALOGUE)
            self.source = ((entries[k], {"kind": "catalogue", "key": k})
                           for k in gen.warm_stream(seed))

    def take(self):
        """The next (line, spec, ctx, index in the stream)."""
        spec, ctx = next(self.source)
        self.taken += 1
        line = gen.request_line(1000 + self.taken, spec).encode()
        return line, spec, ctx, self.taken - 1


def drive(server, stream, deadline):
    """Closed-loop load: one thread per connection, each sending its next
    request only after reading the previous one's terminal result.

    Requests taken before ``deadline`` form the timed window. The first
    ``FIXED_REQUESTS`` of the stream always run: if the window closes first,
    the connections go on until they have. The server's peak RSS is read
    when that many requests have completed.

    Responses are kept once per distinct body (keyed by a digest without the
    request id) and checked after the window, which keeps checking off the
    program's clock and memory bounded on the warm workloads.

    Returns (results, bodies, generator self seconds, window end, peak RSS
    kB): each result is (digest or None, spec, ctx, latency s, transport
    error or None, in window, index in the stream); the self time is the
    connections' time not spent waiting on the program.
    """
    results, bodies = [], {}
    lock = threading.Lock()
    self_s = []
    state = {"completed": 0, "rss_kb": None, "window_end": 0.0}

    def client():
        try:
            conn = server.connect()
        except OSError as e:
            with lock:
                results.append((None, {}, {}, 0.0, f"connect: {e}"))
            return
        t_start = time.perf_counter()
        waited = 0.0
        try:
            while True:
                in_window = time.perf_counter() < deadline
                with lock:
                    if not in_window and stream.taken >= FIXED_REQUESTS:
                        break
                    line, spec, ctx, idx = stream.take()
                try:
                    msg, lat = conn.request(line)
                except OSError as e:
                    with lock:
                        results.append((None, spec, ctx, 0.0, str(e), in_window, idx))
                    break
                waited += lat
                digest = hashlib.sha1(strip_id(msg)).digest()
                with lock:
                    bodies.setdefault(digest, msg)
                    results.append((digest, spec, ctx, lat, None, in_window, idx))
                    state["completed"] += 1
                    sample = state["completed"] == FIXED_REQUESTS
                    if in_window:
                        state["window_end"] = max(state["window_end"], time.perf_counter())
                if sample:
                    state["rss_kb"] = server.peak_rss_kb()
        finally:
            conn.close()
            with lock:
                self_s.append(time.perf_counter() - t_start - waited)

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if state["rss_kb"] is None:
        # The connections failed first; those failures are counted, and the
        # memory figure is whatever the server reached.
        state["rss_kb"] = server.peak_rss_kb()
    return results, bodies, sum(self_s), state["window_end"], state["rss_kb"]


def run_serve(bins, workload, seconds, seed, expected):
    checker = Checker(expected)
    setups, scaled = [], []
    server = None
    # A cold set-up is only a spawn, scaled for host speed as table4_batch's.
    refs = [reference_spawn(bins)]
    for i in range(SETUPS[workload]):
        server, took = set_up_server(bins, workload, checker)
        setups.append(took)
        if workload == "serve_cold":
            try:
                refs.append(reference_spawn(bins))
            except BaseException:
                server.kill()
                raise
            took = at_nominal_speed(took, refs[-2:], SPAWN_NOMINAL_S)
        scaled.append(took)
        if i + 1 < SETUPS[workload]:
            server.shutdown()
    try:
        start = time.perf_counter()
        results, bodies, gen_self, window_end, rss_kb = drive(
            server, Stream(workload, seed), start + seconds)
        elapsed = window_end - start
        metrics_line = None
        try:
            c = server.connect()
            metrics_line, _ = c.request(b'{"id":1,"cmd":"metrics"}')
            c.close()
        except OSError:
            pass
    finally:
        server.shutdown()

    lat_ok, cells = [], 0
    lat_by_kind = {}
    attempted, failed = checker.setup_attempted, checker.setup_failed
    # The warm-up's rows count too, so the warm workloads' quality figure
    # does not depend on which catalogue entries the draw happened to hit.
    distinct_rows = dict(checker.setup_rows)
    # Every request is checked; only the window's feed the timing metrics.
    for digest, spec, ctx, lat, err, in_window, idx in results:
        attempted += 1
        if err is not None:
            failed += 1
            checker.errors.append(f"transport: {err}")
            continue
        ok, rows = checker.check(bodies[digest], spec, ctx)
        if not ok:
            failed += 1
            continue
        if idx < FIXED_REQUESTS:
            for row in rows:
                distinct_rows[row["name"]] = row["save_pct"]
        if not in_window:
            continue
        lat_ok.append(lat)
        lat_by_kind.setdefault(ctx["kind"], []).append(lat)
        cells += len(rows)
    if not lat_ok:
        raise Fatal(f"{workload}: no request succeeded: {checker.errors[:3]}")
    server_metrics = {}
    if metrics_line:
        snap = json.loads(metrics_line).get("metrics", {})
        server_metrics = {k: v for k, v in snap.get("counters", {}).items()
                          if k.startswith(("cache.", "serve.worker", "serve.rejected"))}
    metrics = {
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": rss_kb / 1024.0,
        "req_ms_iqm": iqm(lat_ok) * 1e3,
        "req_ms_p90": percentile(lat_ok, 90) * 1e3,
        "req_per_s": len(lat_ok) / elapsed,
        "cells_per_s": cells / elapsed,
        "ok_rate": (attempted - failed) / attempted,
        "qor_save_pct": statistics.fmean(distinct_rows.values()),
    }
    extra = {
        "requests_ok": len(lat_ok),
        "requests_after_window": sum(1 for r in results if not r[5]),
        "fixed_requests": FIXED_REQUESTS,
        "req_ms_p50": statistics.median(lat_ok) * 1e3,
        # serve_cold mixes two kinds of request; each kind's figures apart,
        # so the mix does not decide which kind the latency metrics measure.
        "req_ms_by_kind": {k: {"n": len(v), "p50": statistics.median(v) * 1e3,
                               "iqm": iqm(v) * 1e3}
                           for k, v in sorted(lat_by_kind.items())},
        "setups_s": setups,
        "generator_self_s": gen_self,
        "generator_self_share": gen_self / (elapsed * CONNECTIONS),
        "elapsed_s": elapsed,
        "server_counters": server_metrics,
    }
    return metrics, attempted, failed, checker.errors, extra


# ---------------------------------------------------------- entry point


def run_one(workload, seed, seconds, trace):
    bins = build(trace)
    expected = oracle.load_all()
    if trace:
        metrics, attempted, failed, errors, extra = layers.traced_run(
            bins, workload, seed, expected, sys.modules[__name__])
    elif workload == "table4_batch":
        metrics, attempted, failed, errors, extra = run_table4(bins, seconds, expected)
    else:
        metrics, attempted, failed, errors, extra = run_serve(
            bins, workload, seconds, seed, expected)
    metrics = in_declared_order("per_layer" if trace else "end_to_end", metrics)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_info(CONNECTIONS if workload != "table4_batch" else 1),
        "errors": errors[:20],
        **extra,
        "metrics": metrics,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def print_table(workload, result):
    log(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
        f"error_rate {result['failed'] / result['attempted']:.4f}")
    for name, m in result["metrics"].items():
        print(f"  {workload:13s} {name:28s} {m['value']:>16.6g} {m['unit']}")


def save_record(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate-expected", metavar="REASON",
                    help="rewrite expected/ from the program's current output")
    args = ap.parse_args(argv)
    try:
        if args.regenerate_expected is not None:
            import regenerate
            regenerate.main(build(False)["adhls"], args.regenerate_expected)
            return 0
        if args.workload is None:
            raise Fatal("--workload is required")
        nproc = os.cpu_count() or 1
        if CONNECTIONS > nproc:
            raise Fatal(f"refusing {CONNECTIONS} client connections on {nproc} CPUs: "
                        "the generator would compete with the program")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results, records = {}, {}
        for w in workloads:
            results[w], records[w] = run_one(w, args.seed, args.seconds, args.trace)
            save_record(records[w])
            print_table(w, results[w])
            for e in records[w]["errors"][:5]:
                log(f"  check failed: {e}")
    except Fatal as e:
        log(f"benchmark: {e}")
        return 2
    if args.workload == "all":
        print(json.dumps(records))
        print(json.dumps(results))
    else:
        print(json.dumps(records[args.workload]))
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
