"""Correctness checks for the adhls benchmark.

Two kinds of check, both counted as failures when they trip:

* against the expected files in ``expected/`` (rows of the Table 4 batch and
  of every serve-catalogue entry, the infeasible seeds of the cold random
  fleets), which pin the program's deterministic output;
* checks that do not trust the program at all: every returned Pareto front
  and staircase is recomputed here with this module's own dominance test,
  every row's ``latency_ps`` must equal clock x cycles per item as the
  generator defined the input, and every requested cell must come back as
  exactly one row or one skipped entry.
"""

import json
import math
import os
import re

from gen import DSL_WAITS, TABLE4_GRID, random_design_shape

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

AXES = ("area", "latency", "power", "throughput")
_GRID_NAME = re.compile(r"^(?P<prefix>.+)-c(?P<clock>\d+)-l(?P<cycles>\d+)(?:-ii(?P<ii>\d+))?$")
_DSL_NAME = re.compile(r"^(?P<stem>[A-Za-z_][A-Za-z0-9_]*)-c(?P<clock>\d+)$")
_FLEET_NAME = re.compile(r"^C(?P<seed>\d+)$")
_CONSTRAINT = re.compile(r"^\s*(?P<axis>[a-z]+)\s*(?P<op><=|>=)\s*(?P<bound>[-+0-9.eE]+)\s*$")


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as f:
        return json.load(f)


def key(row, axis):
    """The minimisation key of ``axis`` for an exported row."""
    if axis == "area":
        return row["a_slack"]
    if axis == "latency":
        return row["latency_ps"]
    if axis == "power":
        return row["power"]["total"]
    if axis == "throughput":
        return -row["throughput_per_us"]
    raise ValueError(f"unknown axis {axis}")


def value(row, axis):
    return -key(row, axis) if axis == "throughput" else key(row, axis)


def planes_of(objectives, default):
    """The objective planes a request selected, each a list of axes."""
    if objectives is None:
        return [list(default)]
    if isinstance(objectives, str):
        return [[a.strip() for a in p.split(",") if a.strip()] for p in objectives.split(";")]
    if objectives and isinstance(objectives[0], list):
        return [list(p) for p in objectives]
    return [list(objectives)]


def parse_constraints(raw):
    if raw is None:
        return []
    if isinstance(raw, str):
        raw = [c for c in raw.split(",") if c.strip()]
    out = []
    for c in raw:
        m = _CONSTRAINT.match(c)
        if not m:
            raise ValueError(f"unparseable constraint {c!r}")
        out.append((m["axis"], m["op"], float(m["bound"])))
    return out


def finite(row):
    return all(math.isfinite(key(row, a)) for a in AXES)


def feasible(row, constraints):
    for axis, op, bound in constraints:
        v = value(row, axis)
        if (op == "<=" and not v <= bound) or (op == ">=" and not v >= bound):
            return False
    return True


def dominates(axes, a, b):
    better = False
    for axis in axes:
        ka, kb = key(a, axis), key(b, axis)
        if ka > kb:
            return False
        if ka < kb:
            better = True
    return better


def front_names(rows, axes, constraints):
    """Names of the feasible rows no other feasible row dominates in ``axes``."""
    pool = [r for r in rows if finite(r) and feasible(r, constraints)]
    return sorted(
        r["name"] for r in pool if not any(o is not r and dominates(axes, o, r) for o in pool)
    )


def staircase_names(rows, axes, constraints):
    """The plane's tradeoff curve: primary axis improving, secondary strictly improving."""
    primary, secondary = axes[0], axes[1]
    pool = [r for r in rows if finite(r) and feasible(r, constraints)]
    pool.sort(key=lambda r: (key(r, primary), key(r, secondary), r["name"]))
    out, best = [], math.inf
    for r in pool:
        k = key(r, secondary)
        if k < best:
            best = k
            out.append(r["name"])
    return out


def cycles_per_item(name, ctx):
    """(clock ps, cycles per item) of a returned row, as the generator
    defined the input."""
    if name in TABLE4_GRID:
        return TABLE4_GRID[name][0], TABLE4_GRID[name][1]
    m = _GRID_NAME.match(name)
    if m:
        cycles = int(m["ii"] or m["cycles"])
        return int(m["clock"]), cycles
    m = _FLEET_NAME.match(name)
    if m:
        return random_design_shape(int(m["seed"]))
    m = _DSL_NAME.match(name)
    if m:
        waits = ctx.get("waits") if ctx and ctx.get("kind") == "dsl" else DSL_WAITS.get(m["stem"])
        if waits is not None:
            return int(m["clock"]), waits
    return None, None


def check_row(row, ctx, errors):
    name = row.get("name", "?")
    clock, cycles = cycles_per_item(name, ctx)
    if cycles is None:
        errors.append(f"{name}: no cycles-per-item known for this row name")
        return
    if row["clock_ps"] != clock:
        errors.append(f"{name}: clock_ps {row['clock_ps']} != requested {clock}")
    if row["latency_ps"] != clock * cycles:
        errors.append(f"{name}: latency_ps {row['latency_ps']} != {clock} x {cycles}")
    if not math.isclose(row["throughput_per_us"] * row["latency_ps"], 1e6, rel_tol=1e-9):
        errors.append(f"{name}: throughput_per_us disagrees with latency_ps")
    if row["a_conv"] != 0:
        save = (row["a_conv"] - row["a_slack"]) / row["a_conv"] * 100.0
        if not math.isclose(save, row["save_pct"], rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"{name}: save_pct disagrees with a_conv/a_slack")


def check_front(rows, got, axes, constraints, label, errors):
    want = front_names(rows, axes, constraints)
    names = sorted(r["name"] for r in got)
    if names != want:
        errors.append(f"{label}: front {names} != recomputed {want}")
    by_name = {r["name"]: r for r in rows}
    for r in got:
        if by_name.get(r["name"]) != r:
            errors.append(f"{label}: front row {r['name']} is not one of the returned rows")


def check_staircase(rows, got, axes, constraints, label, errors):
    want = staircase_names(rows, axes, constraints)
    names = [r["name"] for r in got]
    if names != want:
        errors.append(f"{label}: staircase {names} != recomputed {want}")


def check_sweep_like(msg, spec, ctx, errors):
    """Row sanity, fronts and staircases of one successful sweep/refine result."""
    rows = msg.get("rows", [])
    for row in rows:
        check_row(row, ctx, errors)
    constraints = parse_constraints(spec.get("constraints"))
    if spec["cmd"] == "sweep":
        planes = planes_of(spec.get("objectives"), AXES)
        check_front(rows, msg["front"], planes[0], constraints, "front", errors)
    else:
        planes = planes_of(spec.get("objectives"), ("area", "latency"))
        # A refine result's front is the full four-objective front.
        check_front(rows, msg["front"], AXES, constraints, "front", errors)
    # The CLI export of the Table 4 batch carries no staircase.
    if ctx.get("kind") != "table4":
        check_staircase(rows, msg["staircase"], planes[0], constraints, "staircase", errors)
    if len(planes) > 1:
        got_planes = msg.get("planes", [])
        if len(got_planes) != len(planes):
            errors.append(f"{len(got_planes)} planes returned, {len(planes)} requested")
        for i, (axes, plane) in enumerate(zip(planes, got_planes)):
            if spec["cmd"] == "sweep":
                check_front(rows, plane["front"], axes, constraints, f"plane {i} front", errors)
            check_staircase(rows, plane["staircase"], axes, constraints,
                            f"plane {i} staircase", errors)


def check_result(msg, spec, ctx, expected):
    """All checks for one terminal ``result`` message; returns error strings.

    ``ctx`` says what the generator knows about the request: a catalogue
    key, a cold fleet's seed block, a generated DSL proc, or the Table 4
    batch. ``expected`` holds the loaded expected files.
    """
    errors = []
    if not msg.get("ok") or msg.get("busy"):
        return [f"request failed: {msg.get('error', msg)}"]
    try:
        check_sweep_like(msg, spec, ctx, errors)
        kind = ctx["kind"]
        rows = msg["rows"]
        skipped = [s[0] for s in msg.get("skipped", [])]
        if kind == "catalogue":
            want = expected["catalogue"]["entries"][ctx["key"]]
            if rows != want["rows"]:
                errors.append(f"{ctx['key']}: rows differ from expected/catalogue.json")
            if skipped != want["skipped"]:
                errors.append(f"{ctx['key']}: skipped {skipped} != expected {want['skipped']}")
        elif kind == "fleet":
            infeasible = expected["cold_infeasible"]
            want_skip = [f"C{s}" for s in ctx["seeds"] if s in infeasible]
            want_rows = [f"C{s}" for s in ctx["seeds"] if s not in infeasible]
            if skipped != want_skip:
                errors.append(f"fleet {ctx['seeds'][0]}: skipped {skipped} != expected {want_skip}")
            if [r["name"] for r in rows] != want_rows:
                errors.append(f"fleet {ctx['seeds'][0]}: rows are not the feasible seeds")
        elif kind == "dsl":
            got = sorted(int(n.rsplit("-c", 1)[1]) for n in [r["name"] for r in rows] + skipped)
            if got != sorted(spec["clocks"]):
                errors.append(f"{ctx['name']}: cells {got} != requested clocks {spec['clocks']}")
        elif kind == "table4":
            if rows != expected["table4"]["rows"]:
                errors.append("table4: rows differ from expected/table4_batch.json")
    except (KeyError, TypeError, ValueError, IndexError) as e:
        errors.append(f"malformed result: {type(e).__name__}: {e}")
    return errors


def load_all():
    """Every expected file, shaped for ``check_result``."""
    cold = load_expected("cold_fleets.json")
    return {
        "table4": load_expected("table4_batch.json"),
        "catalogue": load_expected("catalogue.json"),
        "cold_infeasible": set(cold["infeasible"]),
    }
