#!/usr/bin/env python3
"""Build and run the gpummu host-performance benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <n> --trace <0|1>

Builds the simulator and the benchmark driver from source with CMake
(into .bench_build/ at the checkout root), runs one measurement and
checks its result: the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
metrics. Exit codes: 0 ok, 1 build, check or result failure, 2 bad
usage.
"""

import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
ARGS = ("--workload", "--seed", "--seconds", "--trace")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv, workloads):
    """Strict parse of `--key value` pairs; every key exactly once."""
    if len(argv) % 2:
        fail("arguments come in '--key value' pairs", 2)
    args = {}
    for key, val in zip(argv[::2], argv[1::2]):
        if key not in ARGS:
            fail("unknown argument '%s'" % key, 2)
        if key in args:
            fail("duplicate argument '%s'" % key, 2)
        args[key] = val
    missing = [k for k in ARGS if k not in args]
    if missing:
        fail("missing " + ", ".join(missing), 2)
    if args["--workload"] not in workloads:
        fail("unknown workload '%s' (have: %s)"
             % (args["--workload"], ", ".join(workloads)), 2)
    seed, seconds = args["--seed"], args["--seconds"]
    if not seed.isdigit() or int(seed) >= 2 ** 64:
        fail("bad --seed '%s'" % seed, 2)
    if not seconds.isdigit() or not 1 <= int(seconds) <= 120:
        fail("bad --seconds '%s' (want 1..120)" % seconds, 2)
    if args["--trace"] not in ("0", "1"):
        fail("bad --trace '%s' (want 0 or 1)" % args["--trace"], 2)
    return args


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure once, then build incrementally; serialised by a lock
    so concurrent runs in one checkout never share a half-built tree."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            try:
                proc = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if proc.returncode != 0:
                # A failed configure must not leave a cache that makes
                # the next run skip configuring.
                if "-S" in cmd:
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("build failed (exit %d); see %s"
                     % (proc.returncode, log_path))


def provenance():
    """Commit (when the checkout is a git work tree) and a digest of
    the sources the binary was built from."""
    commit = "unknown (not a git work tree)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def check_result(line, expected):
    """Return the reason the result line breaks the contract, or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or \
            set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) \
                or res[key] < 0:
            return "%s is not a whole number" % key
    if res["attempted"] < 1:
        return "nothing was attempted"
    metrics = res["metrics"]
    if not isinstance(metrics, dict):
        return "metrics is not an object"
    if set(metrics) != set(expected):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected)))
    for name, m in metrics.items():
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            return "metric %s has no finite value" % name
        if m.get("unit") != expected[name]:
            return "metric %s has unit %r, want %r" % (
                name, m.get("unit"), expected[name])
    return None


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec.get("workloads", [])]
    args = parse_args(sys.argv[1:], workloads)
    group = "per_layer" if args["--trace"] == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec.get(group, [])}

    build()
    commit, src_digest = provenance()
    print("perfbench: commit=%s src_sha256=%s nproc=%d python=%s"
          % (commit, src_digest, os.cpu_count() or 0,
             sys.version.split()[0]), flush=True)

    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY]
    for key in ARGS:
        cmd += [key, args[key]]
    cmd += ["--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measurement exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("benchmark exited %d without a result" % proc.returncode)
    if proc.returncode == 1:
        # A failed check: the result says so (correct false, failed > 0).
        print("\n".join(lines), flush=True)
        return 1
    reason = check_result(lines[-1], expected)
    print("\n".join(lines[:-1]), flush=True)
    if reason:
        fail("result rejected: " + reason)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
