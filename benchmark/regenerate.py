"""Rewrites ``expected/`` from the program's current output.

Run through ``python3 benchmark/run.py --regenerate-expected "<reason>"``.
The reason is stored in every file it writes, so a diff of ``expected/``
always says why the pinned rows moved. Outputs that fail the program-
independent checks (recomputed fronts, latency = clock x cycles, every cell
accounted for) are refused, never pinned.
"""

import json
import os
import subprocess
import time

import gen
import oracle

BATCH = 500


def serve_stdio(binary, specs):
    """Terminal results of ``specs`` from one ``adhls serve --stdio`` process."""
    lines = [gen.request_line(i + 1, spec) for i, spec in enumerate(specs)]
    r = subprocess.run([binary, "serve", "--stdio", "--threads", "2"],
                       input="\n".join(lines) + "\n", capture_output=True, text=True,
                       check=True)
    out = [json.loads(l) for l in r.stdout.splitlines() if '"event":"result"' in l[:96]]
    if len(out) != len(specs):
        raise RuntimeError(f"{len(out)} results for {len(specs)} requests")
    return out


def refuse_on_errors(errors, what):
    if errors:
        raise RuntimeError(f"{what} fails the independent checks: {errors[:5]}")


def write(name, doc, indent=1):
    path = os.path.join(oracle.EXPECTED_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=indent)
        f.write("\n")
    print(f"wrote {path}")


def main(binary, reason):
    if not reason.strip():
        raise SystemExit("--regenerate-expected needs a reason")
    stamp = {"reason": reason, "generated": time.strftime("%Y-%m-%d")}

    out = subprocess.run([binary, *gen.TABLE4_ARGS], capture_output=True, check=True).stdout
    doc = json.loads(out)
    msg = {"ok": True, "rows": doc["sweep"], "front": doc["front"]}
    errors = []
    oracle.check_sweep_like(msg, {"cmd": "sweep"}, {"kind": "table4"}, errors)
    refuse_on_errors(errors, "the Table 4 batch")
    write("table4_batch.json", {**stamp, "rows": doc["sweep"]})

    specs = [spec for _, spec in gen.CATALOGUE]
    entries = {}
    for (key, spec), msg in zip(gen.CATALOGUE, serve_stdio(binary, specs)):
        if not msg.get("ok"):
            raise RuntimeError(f"catalogue entry {key} failed: {msg.get('error')}")
        errors = []
        oracle.check_sweep_like(msg, spec, {"kind": "catalogue", "key": key}, errors)
        refuse_on_errors(errors, f"catalogue entry {key}")
        entries[key] = {"rows": msg["rows"], "skipped": [s[0] for s in msg["skipped"]]}
    write("catalogue.json", {**stamp, "entries": entries})

    infeasible = []
    blocks = list(range(gen.COLD_UNIVERSE // gen.COLD_BLOCK))
    for lo in range(0, len(blocks), BATCH):
        specs = [{"cmd": "sweep", "workload": "random", "count": gen.COLD_BLOCK,
                  "seed": 1 + b * gen.COLD_BLOCK} for b in blocks[lo:lo + BATCH]]
        for spec, msg in zip(specs, serve_stdio(binary, specs)):
            seeds = list(range(spec["seed"], spec["seed"] + gen.COLD_BLOCK))
            if not msg.get("ok"):
                raise RuntimeError(f"fleet {spec['seed']} failed: {msg.get('error')}")
            errors = []
            oracle.check_sweep_like(msg, spec, {"kind": "fleet", "seeds": seeds}, errors)
            refuse_on_errors(errors, f"fleet {spec['seed']}")
            skipped = [int(s[0][1:]) for s in msg["skipped"]]
            got = sorted([int(r["name"][1:]) for r in msg["rows"]] + skipped)
            if got != seeds:
                raise RuntimeError(f"fleet {spec['seed']}: cells {got} != seeds {seeds}")
            infeasible.extend(skipped)
    write("cold_fleets.json", {**stamp, "universe": [1, gen.COLD_UNIVERSE],
                               "block": gen.COLD_BLOCK, "infeasible": sorted(infeasible)},
          indent=None)
