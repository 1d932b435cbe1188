#!/usr/bin/env python3
"""Repository benchmark: builds giph_perfbench from source, runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve16 --seed 1 --seconds 25 --trace 0

Workloads: serve16, scale1000, train20, stream50 (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. giph_perfbench prints a human-readable table, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` as the last line of
standard output. ``--size tiny`` shrinks inputs for the smoke test.

The program emits the metrics its workload measured. This script checks
their names and units against BENCHMARK.json, which is the one list of them:
an end-to-end metric may not be missing, and a per-layer metric the workload
does not load is reported as 0 (perfbench/README.md notes why for each).

The build goes to ``$CARGO_TARGET_DIR`` when set (relative paths are taken
from the repository root), else ``.bench_build``. Build output goes to
standard error. The exit code is non-zero on a failed build, a failed output
check, or a result whose metrics disagree with BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve16", "scale1000", "train20", "stream50")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once, then builds incrementally; returns the program path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "giph.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "giph_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "giph_perfbench")


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        fail("result line repeats a key")
    return dict(pairs)


def complete(metrics, declared, trace):
    """Checks the measured metrics and fills 0 for unloaded per-layer ones."""
    for name, m in metrics.items():
        if name not in declared:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if m["unit"] != declared[name]:
            fail(f"metric {name} has unit {m['unit']}, declared {declared[name]}")
    missing = [n for n in declared if n not in metrics]
    if missing and not trace:
        fail("end-to-end metrics not measured: " + " ".join(missing))
    for name in missing:
        metrics[name] = {"value": 0.0, "unit": declared[name]}
    return missing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} failed (exit code {proc.returncode})")
    result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    declared = declared_metrics(args.trace)
    unloaded = complete(result["metrics"], declared, args.trace)
    print("\n".join(lines[:-1]))
    for name in unloaded:
        print(f"  {name:34s} {0:16g} {declared[name]:6s} not loaded by {args.workload}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
