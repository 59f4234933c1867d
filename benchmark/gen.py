"""Input generation for the adhls benchmark.

Every input is a function of the workload seed; the program only ever sees
the generated request lines and CLI arguments. The fixed parts (the Table 4
grid, the serve catalogue, the random-fleet seed universe) are constants
here, so the expected files in ``expected/`` can pin their outputs.
"""

import json
import random

# The paper's Table 4 grid as ``adhls explore --workload idct-table4`` runs
# it: name -> (clock ps, cycles per item). Pipelined points take one item
# every II cycles. Used to check ``latency_ps`` without trusting the program.
TABLE4_GRID = {
    "D1": (3000, 32), "D2": (3000, 28),
    "D3": (2200, 24), "D4": (2200, 20), "D5": (2200, 16),
    "D6": (2200, 12), "D7": (2200, 10), "D8": (2200, 8),
    "D9": (1350, 12), "D10": (1300, 10), "D11": (1400, 8),
    "D12": (2200, 8), "D13": (2200, 4), "D14": (2200, 12), "D15": (2200, 16),
}

TABLE4_ARGS = ["explore", "--workload", "idct-table4", "--threads", "2", "--json", "-"]

# Fixed DSL designs of the warm catalogue (two small behavioural procs).
_DSL_MAC = """proc mac(in a: u16, in b: u16, in c: u16, out o: u16) {
    loop {
        let p: u16 = read(a) * read(b);
        let q: u16 = p + read(c) * 3;
        wait;
        let r: u16 = q * p - q;
        wait;
        write(o, r ^ p);
    }
}"""

_DSL_POLY = """proc poly(in x: u16, in k: u16, out y: u16) {
    loop {
        let v: u16 = read(x);
        let c: u16 = read(k);
        let v2: u16 = v * v;
        let t: u16 = v2 * c + v * 7;
        wait;
        let u: u16 = t * v2 + c;
        wait;
        wait;
        write(y, u - t);
    }
}"""

# The serve catalogue: sweep/refine specs over interpolation, FIR, matmul
# and 2-D IDCT grids, plus two DSL designs and two fixed random fleets, with
# varied clocks, cycles, objectives, constraints and gap_tol. The repo has no
# record of real traffic, so the entries and their order are assumptions:
# listed from most to least popular, the cheap small-grid specs first, so
# the traffic draw (skewed towards the front) repeats them most.
# Keys name the entries in ``expected/catalogue.json``.
CATALOGUE = [
    ("interp-sweep", {"cmd": "sweep", "workload": "interpolation"}),
    ("interp-refine", {"cmd": "refine", "workload": "interpolation", "gap_tol": 0.05}),
    ("idct-refine-2x2", {"cmd": "refine", "workload": "idct", "clocks": [2200, 3000],
                         "cycles": [12, 16], "gap_tol": 0.1}),
    ("fir-sweep", {"cmd": "sweep", "workload": "fir"}),
    ("mm3-sweep", {"cmd": "sweep", "workload": "matmul"}),
    ("interp-refine-two-planes", {"cmd": "refine", "workload": "interpolation",
                                  "objectives": "area,latency;area,power", "gap_tol": 0.1}),
    ("dsl-mac", {"cmd": "sweep", "dsl": _DSL_MAC, "clocks": [1500, 2000, 2600, 3200]}),
    ("mm3-refine", {"cmd": "refine", "workload": "matmul", "gap_tol": 0.1}),
    ("interp-sweep-area-power", {"cmd": "sweep", "workload": "interpolation",
                                 "clocks": [1100, 1250, 1400], "cycles": [3, 4],
                                 "objectives": "area,power"}),
    ("idct-refine-warm", {"cmd": "refine", "workload": "idct", "clocks": [2200, 3000],
                          "cycles": [12, 16, 24], "gap_tol": 0.1,
                          "warm_front": ["idct-c2200-l12", "idct-c3000-l24"]}),
    ("interp-refine-latency-bound", {"cmd": "refine", "workload": "interpolation",
                                     "clocks": [1100, 1250, 1400, 1800], "cycles": [3, 4, 6],
                                     "objectives": "area,latency",
                                     "constraints": ["latency<=8000"], "gap_tol": 0.1}),
    ("fir-sweep-area-power", {"cmd": "sweep", "workload": "fir", "clocks": [2600],
                              "cycles": [2, 3, 4, 5], "objectives": "area,power"}),
    ("random-7", {"cmd": "sweep", "workload": "random", "count": 6, "seed": 7}),
    ("idct-sweep-3000", {"cmd": "sweep", "workload": "idct", "clocks": [3000],
                         "cycles": [16, 24]}),
    ("mm2-sweep", {"cmd": "sweep", "workload": "matmul", "dim": 2, "clocks": [2200, 2600],
                   "cycles": [3, 4, 6]}),
    ("interp-refine-fine", {"cmd": "refine", "workload": "interpolation",
                            "clocks": [1100, 1175, 1250, 1325, 1400, 1500, 1650, 1800],
                            "cycles": [3, 4, 5, 6], "gap_tol": 0.0}),
    ("dsl-poly", {"cmd": "sweep", "dsl": _DSL_POLY, "clocks": [2600, 3200]}),
    ("mm2-refine-area-power", {"cmd": "refine", "workload": "matmul", "dim": 2,
                               "clocks": [1800, 2200, 3000], "cycles": [3, 4, 6, 8],
                               "objectives": "area,power", "gap_tol": 0.05}),
    ("interp-sweep-latency-bound", {"cmd": "sweep", "workload": "interpolation",
                                    "clocks": [1100, 1400, 1800, 2400], "cycles": [3, 4, 6],
                                    "objectives": "area,latency",
                                    "constraints": ["latency<=8000"]}),
    ("idct-refine-area-power", {"cmd": "refine", "workload": "idct", "clocks": [2600],
                                "cycles": [12, 16, 24, 32], "objectives": "area,power",
                                "gap_tol": 0.1}),
    ("fir-sweep-1800", {"cmd": "sweep", "workload": "fir", "clocks": [1800],
                        "cycles": [2, 3]}),
    ("interp-refine-budget", {"cmd": "refine", "workload": "interpolation", "budget": 6,
                              "gap_tol": 0.02}),
    ("random-101", {"cmd": "sweep", "workload": "random", "count": 4, "seed": 101,
                    "objectives": "area,power"}),
    ("mm3-refine-latency-bound", {"cmd": "refine", "workload": "matmul",
                                  "clocks": [2200, 3000], "cycles": [4, 6, 8],
                                  "objectives": "area,latency",
                                  "constraints": ["latency<=30000"], "gap_tol": 0.05}),
    ("idct-sweep-area-bound", {"cmd": "sweep", "workload": "idct", "clocks": [2200],
                               "cycles": [12, 24], "objectives": "area,latency",
                               "constraints": ["area<=300000"]}),
    ("interp-refine-area-power", {"cmd": "refine", "workload": "interpolation",
                                  "objectives": ["area", "power"], "gap_tol": 0.1}),
    ("fir-sweep-3000", {"cmd": "sweep", "workload": "fir", "clocks": [3000],
                        "cycles": [2, 3, 4], "objectives": "area,latency,power"}),
    ("interp-sweep-three-axes", {"cmd": "sweep", "workload": "interpolation",
                                 "clocks": [1100, 1175, 1250], "cycles": [3, 4, 5, 6],
                                 "objectives": "area,latency,power"}),
    ("mm2-sweep-two-planes", {"cmd": "sweep", "workload": "matmul", "dim": 2,
                              "clocks": [2200, 3000], "cycles": [4, 6],
                              "objectives": "area,latency;area,power"}),
    ("idct-sweep-pipelined", {"cmd": "sweep", "workload": "idct", "clocks": [2200],
                              "cycles": [16], "pipeline": [None, 8]}),
]

CATALOGUE_KEYS = [k for k, _ in CATALOGUE]

# Waits in the loop of each fixed DSL design: its cycles per item.
DSL_WAITS = {"mac": 2, "poly": 3}

# serve_cold: random fleets come from seeds 1..COLD_UNIVERSE in blocks of
# COLD_BLOCK consecutive seeds; a run draws blocks without repetition (a
# 20 s run uses under a fifth of them), so every fleet is new to the
# server. ``expected/cold_fleets.json`` lists the infeasible seeds of the
# whole universe.
COLD_BLOCK = 6
COLD_UNIVERSE = 60000
COLD_CLOCK_SETS = [[2000, 2600], [2200, 3200], [2000, 2600, 3200], [2400, 3000]]
COLD_OBJECTIVES = [None, "area,latency", "area,power", "area,latency;area,power"]

_M64 = (1 << 64) - 1


def _splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def random_design_shape(seed):
    """(clock ps, cycles per item) of random-fleet design ``C<seed>``.

    Mirrors the workload definition: the fleet draws ops, inputs, a cycle
    budget in 2..8 and a clock from a per-seed SplitMix64 stream, and the
    design has one state per budgeted cycle after the first.
    """
    state = (seed * 0x9E3779B9) & _M64
    draws = []
    for _ in range(4):
        state, r = _splitmix(state)
        draws.append(r)
    cycles = 2 + draws[2] % 6
    clock = [1800, 2200, 2600, 3200][draws[3] % 4]
    return clock, max(1, cycles - 1)


def request_line(rid, spec):
    """One protocol line: ``spec`` with the request id first."""
    return json.dumps({"id": rid, **spec}, separators=(",", ":"))


def warm_stream(seed):
    """The endless serve_warm key stream, skewed towards the catalogue head.

    Popularity follows the catalogue order (weight 1/(rank+1)), so the seed
    changes which requests come when, not which entries are hot. The skew is
    an assumption, not a measurement (no traffic record exists): a Zipf-like
    head makes the two connections often ask for the same spec at once,
    which exercises coalescing, while the tail still reaches every entry.
    Keys are drawn in small batches, so taking the first one costs nothing.
    """
    rng = random.Random(seed)
    weights = [1.0 / (i + 1) for i in range(len(CATALOGUE))]
    while True:
        yield from rng.choices(CATALOGUE_KEYS, weights=weights, k=1024)


def _dsl_proc(rng, name):
    """A random straight-line behavioural proc and its waits per item."""
    n_in = rng.randint(2, 4)
    ins = [f"i{k}" for k in range(n_in)]
    lines = []
    vals = []
    for k in range(n_in):
        lines.append(f"let v{k}: u16 = read({ins[k]});")
        vals.append(f"v{k}")
    n_ops = rng.randint(8, 36)
    # About one state per three operations keeps nearly every cell
    # schedulable at the cold clocks (~1.5% are not; the server skips them
    # and the checks accept a skipped cell in place of a row).
    waits = n_ops // 3 + rng.randint(0, 1)
    wait_at = sorted(rng.sample(range(1, n_ops), waits - 1)) if waits > 1 else []
    ops = ["+", "+", "-", "*", "*", "^", "&", "|"]
    for j in range(n_ops):
        if j in wait_at:
            lines.append("wait;")
        a = rng.choice(vals)
        b = rng.choice(vals) if rng.random() < 0.8 else str(rng.randint(1, 99))
        var = f"t{j}"
        lines.append(f"let {var}: u16 = {a} {rng.choice(ops)} {b};")
        vals.append(var)
    lines.append("wait;")
    lines.append(f"write(o, {vals[-1]});")
    ports = ", ".join(f"in {p}: u16" for p in ins)
    body = "\n        ".join(lines)
    src = f"proc {name}({ports}, out o: u16) {{\n    loop {{\n        {body}\n    }}\n}}"
    return src, waits


def cold_requests(seed):
    """The endless serve_cold request stream, every request new to the server.

    Yields (spec, context) pairs: a third random fleets (a fresh seed block
    each), two thirds generated DSL procs. The mix is an assumption (no
    traffic record exists): fleets exercise workload expansion and the
    skipping of infeasible cells, DSL procs the frontend, and both the
    prepare, budgeting and cache-write paths. The benchmark reports each
    kind's median latency apart. The context carries what the checks need:
    the fleet's seed block, or the proc's name and waits per item.
    """
    rng = random.Random(seed * 7919 + 17)
    blocks = list(range(COLD_UNIVERSE // COLD_BLOCK))
    rng.shuffle(blocks)
    next_block = 0
    i = 0
    while True:
        i += 1
        objectives = rng.choice(COLD_OBJECTIVES)
        # Every third request, not a random third: a drawn mix moves with the
        # seed, and the fleets' share sets most of the server's memory.
        if i % 3 == 1:
            block = blocks[next_block % len(blocks)]
            next_block += 1
            base = 1 + block * COLD_BLOCK
            spec = {"cmd": "sweep", "workload": "random", "count": COLD_BLOCK, "seed": base}
            ctx = {"kind": "fleet", "seeds": list(range(base, base + COLD_BLOCK))}
        else:
            name = f"g{abs(seed)}x{i}"
            src, waits = _dsl_proc(rng, name)
            spec = {"cmd": "sweep", "dsl": src, "clocks": rng.choice(COLD_CLOCK_SETS)}
            ctx = {"kind": "dsl", "name": name, "waits": waits}
        if objectives is not None:
            spec["objectives"] = objectives
        yield spec, ctx
