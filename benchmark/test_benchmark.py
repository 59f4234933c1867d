"""Tests of the benchmark's own machinery: the oracle, failure accounting,
the compare rule, and the refusal to run without the program's sources.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

EXPECTED = oracle.load_all()
TABLE4_SPEC = {"cmd": "sweep"}
TABLE4_CTX = {"kind": "table4"}


def table4_msg():
    """A correct Table 4 result, with the front recomputed from the rows."""
    rows = copy.deepcopy(EXPECTED["table4"]["rows"])
    names = set(oracle.front_names(rows, oracle.AXES, []))
    return {"ok": True, "rows": rows, "front": [r for r in rows if r["name"] in names]}


def catalogue_msg(key):
    """A correct result for one catalogue entry, built from the expected rows."""
    spec = dict(gen.CATALOGUE)[key]
    rows = copy.deepcopy(EXPECTED["catalogue"]["entries"][key]["rows"])
    planes = oracle.planes_of(spec.get("objectives"),
                              oracle.AXES if spec["cmd"] == "sweep" else ("area", "latency"))
    cons = oracle.parse_constraints(spec.get("constraints"))
    front_axes = planes[0] if spec["cmd"] == "sweep" else oracle.AXES

    def pick(names):
        return [next(r for r in rows if r["name"] == n) for n in names]

    msg = {"ok": True, "rows": rows,
           "front": pick(oracle.front_names(rows, front_axes, cons)),
           "staircase": pick(oracle.staircase_names(rows, planes[0], cons)),
           "skipped": [[n, "infeasible"] for n in
                       EXPECTED["catalogue"]["entries"][key]["skipped"]]}
    if len(planes) > 1:
        msg["planes"] = [{"front": pick(oracle.front_names(rows, p, cons)),
                          "staircase": pick(oracle.staircase_names(rows, p, cons))}
                         for p in planes]
    return spec, msg


class OracleTest(unittest.TestCase):
    def test_correct_outputs_pass(self):
        self.assertEqual(oracle.check_result(table4_msg(), TABLE4_SPEC, TABLE4_CTX, EXPECTED), [])
        for key in gen.CATALOGUE_KEYS:
            spec, msg = catalogue_msg(key)
            ctx = {"kind": "catalogue", "key": key}
            self.assertEqual(oracle.check_result(msg, spec, ctx, EXPECTED), [], key)

    def test_corrupted_row_fails(self):
        msg = table4_msg()
        msg["rows"][3]["power"]["total"] *= 1.0001
        self.assertTrue(oracle.check_result(msg, TABLE4_SPEC, TABLE4_CTX, EXPECTED))
        spec, msg = catalogue_msg("interp-refine")
        msg["rows"][0]["a_conv"] += 1.0
        errs = oracle.check_result(msg, spec, {"kind": "catalogue", "key": "interp-refine"},
                                   EXPECTED)
        self.assertTrue(any("differ from expected" in e for e in errs), errs)

    def test_front_disagreeing_with_recomputation_fails(self):
        msg = table4_msg()
        msg["front"] = msg["front"][1:]
        errs = oracle.check_result(msg, TABLE4_SPEC, TABLE4_CTX, EXPECTED)
        self.assertTrue(any("recomputed" in e for e in errs), errs)
        spec, msg = catalogue_msg("interp-sweep-area-power")
        dominated = next(r for r in msg["rows"] if r not in msg["front"])
        msg["front"].append(dominated)
        errs = oracle.check_result(msg, spec, {"kind": "catalogue",
                                               "key": "interp-sweep-area-power"}, EXPECTED)
        self.assertTrue(any("recomputed" in e for e in errs), errs)

    def test_latency_must_be_clock_times_cycles(self):
        spec, msg = catalogue_msg("fir-sweep")
        row = msg["rows"][0]
        row["latency_ps"] += row["clock_ps"]
        row["throughput_per_us"] = 1e6 / row["latency_ps"]
        errs = []
        oracle.check_row(row, {"kind": "catalogue"}, errs)
        self.assertTrue(any("latency_ps" in e for e in errs), errs)

    def test_fleet_infeasible_set_is_pinned(self):
        infeasible = sorted(EXPECTED["cold_infeasible"])[0]
        block = (infeasible - 1) // gen.COLD_BLOCK
        seeds = list(range(1 + block * gen.COLD_BLOCK, 1 + (block + 1) * gen.COLD_BLOCK))
        ctx = {"kind": "fleet", "seeds": seeds}
        spec = {"cmd": "sweep", "workload": "random", "count": gen.COLD_BLOCK,
                "seed": seeds[0]}
        msg = {"ok": True, "rows": [], "front": [], "staircase": [],
               "skipped": [[f"C{s}", "x"] for s in seeds]}
        errs = oracle.check_result(msg, spec, ctx, EXPECTED)
        self.assertTrue(any("skipped" in e for e in errs), errs)

    def test_random_design_shape_matches_pinned_rows(self):
        for row in EXPECTED["catalogue"]["entries"]["random-7"]["rows"]:
            clock, cycles = gen.random_design_shape(int(row["name"][1:]))
            self.assertEqual((row["clock_ps"], row["latency_ps"]), (clock, clock * cycles))


class FailureAccountingTest(unittest.TestCase):
    def test_checker_counts_a_bad_response_as_failed(self):
        checker = run.Checker(EXPECTED)
        msg = table4_msg()
        ok, rows = checker.check(json.dumps(msg).encode(), TABLE4_SPEC, TABLE4_CTX)
        self.assertTrue(ok)
        self.assertEqual(len(rows), 15)
        msg["rows"][0]["a_slack"] = 1.0
        ok, _ = checker.check(json.dumps(msg).encode(), TABLE4_SPEC, TABLE4_CTX)
        self.assertFalse(ok)
        self.assertTrue(checker.errors)
        ok, _ = checker.check(b'{"id":3,"event":"result","ok":false,"busy":true}',
                              TABLE4_SPEC, TABLE4_CTX)
        self.assertFalse(ok)


class IqmTest(unittest.TestCase):
    def test_drops_each_outer_quarter(self):
        self.assertEqual(run.iqm([400, 1, 300, 2, 200, 3, 100, 4]), (3 + 4 + 100 + 200) / 4)
        self.assertEqual(run.iqm([7.0]), 7.0)

    def test_moves_smoothly_between_two_modes(self):
        # A median jumps from one mode to the other as the slow share
        # crosses one half; the interquartile mean moves by a step's worth.
        fast, slow = [44.0] * 52, [88.0] * 48
        below = run.iqm(fast + slow)
        above = run.iqm(fast[:-4] + slow + [88.0] * 4)
        self.assertLess(above - below, 0.1 * below)


class HostSpeedTest(unittest.TestCase):
    def test_a_uniformly_slower_host_reads_the_same(self):
        fast = run.at_nominal_speed(1.5, [0.10, 0.14], 0.12)
        slow = run.at_nominal_speed(1.5 * 1.4, [0.10 * 1.4, 0.14 * 1.4], 0.12)
        self.assertAlmostEqual(fast, 1.5)
        self.assertAlmostEqual(slow, fast)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        parent = [100.0 + i % 3 for i in range(10)]
        self.assertEqual(compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0],
                         "improved")
        self.assertEqual(compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0],
                         "worse")
        self.assertEqual(compare.verdict(parent, list(parent), "lower", 0.1)[0], "unchanged")
        self.assertEqual(compare.verdict(parent[:5], parent[:5], "lower", 0.1)[0],
                         "unresolved")
        noisy = [50.0, 150.0] * 5
        self.assertEqual(compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0], "unresolved")


class RefusalTest(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "benchmark"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            r = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                                "table4_batch", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                               timeout=60, check=False)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")

    def test_refuses_more_connections_than_cpus(self):
        with mock.patch.object(run.os, "cpu_count", return_value=run.CONNECTIONS - 1), \
                mock.patch.object(run, "build", side_effect=AssertionError("ran")):
            self.assertEqual(run.main(["--workload", "serve_warm"]), 2)


if __name__ == "__main__":
    unittest.main()
