#!/usr/bin/env python3
"""Self-tests of the host-performance benchmark.

Run from the root of a checkout (about three minutes; builds first):

    python3 perfbench/selftest.py

Checks that run.py rejects bad or unknown arguments, that every metric
of BENCHMARK.json is emitted for every workload in both modes, and
that the deterministic per-layer counts repeat exactly across two
invocations with one seed and change with another seed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Host-time metrics; everything else in the per-layer ledger is a
# deterministic function of (workload, seed).
TIMED_UNITS = {"s", "ns/op"}
TIMED_NAMES = {"trace.overhead_ratio"}
# Workloads whose model draws nothing from the seed: the pathfinder
# stencil's addresses are a pure function of the grid geometry.
SEED_INDEPENDENT = {"pathfinder_regular"}

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(args):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=ROOT, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    units = {g: {m["name"]: m["unit"] for m in spec[g]}
             for g in ("end_to_end", "per_layer")}
    first = workloads[0]

    good = ["--workload", first, "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    bad = {
        "no arguments": [],
        "unknown workload": ["--workload", "nope"] + good[2:],
        "unknown flag": good + ["--fast", "1"],
        "duplicate flag": good + ["--seed", "2"],
        "missing value": good[:-1],
        "missing flag": good[:6],
        "non-numeric seed": good[:3] + ["x"] + good[4:],
        "zero seconds": good[:5] + ["0"] + good[6:],
        "trace 2": good[:7] + ["2"],
    }
    for what, args in bad.items():
        proc = run(args)
        check(proc.returncode == 2 and "{" not in proc.stdout,
              "rejects bad arguments: " + what)

    for w in workloads:
        e2e = run(["--workload", w, "--seed", "7", "--seconds", "1",
                   "--trace", "0"])
        check(e2e.returncode == 0, w + ": --trace 0 exits 0")
        if e2e.returncode == 0:
            r = result(e2e)
            check(r["correct"] and r["failed"] == 0,
                  w + ": --trace 0 correct, nothing failed")
            check({k: m["unit"] for k, m in r["metrics"].items()}
                  == units["end_to_end"],
                  w + ": every end-to-end metric present with its unit")

        layers = [run(["--workload", w, "--seed", seed, "--seconds", "1",
                       "--trace", "1"]) for seed in ("7", "7", "8")]
        check(all(p.returncode == 0 for p in layers),
              w + ": --trace 1 exits 0 (three runs)")
        if not all(p.returncode == 0 for p in layers):
            continue
        res = [result(p) for p in layers]
        check(all(r["correct"] and r["failed"] == 0 for r in res),
              w + ": --trace 1 correct, nothing failed")
        check({k: m["unit"] for k, m in res[0]["metrics"].items()}
              == units["per_layer"],
              w + ": every per-layer metric present with its unit")
        counts = [{k: m["value"] for k, m in r["metrics"].items()
                   if m["unit"] not in TIMED_UNITS and k not in TIMED_NAMES}
                  for r in res]
        check(counts[0] == counts[1],
              w + ": deterministic counts repeat exactly for one seed")
        if w not in SEED_INDEPENDENT:
            check(counts[0] != counts[2],
                  w + ": deterministic counts change with the seed")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
