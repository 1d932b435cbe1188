#!/usr/bin/env python3
"""Gate benchmark results against a committed baseline.

Usage: check_bench.py BASELINE.json CURRENT.json [--tolerance 0.30]
       check_bench.py --self-test

Compares every throughput metric (keys ending in ``_per_sec`` or ``_per_s``,
recursively) and every ratio metric (keys ending in ``_rate``, in [0, 1] by
convention, e.g. the delta-simulation hit rate) and fails when the current
value has regressed more than the tolerance below the baseline. Also fails
when any ``bitwise_identical`` flag that is true in the baseline turned
false, and when a gated baseline metric is missing from the current run
entirely — a benchmark that silently stops emitting a metric must not pass
the gate.

A perfbench metric record ``{"value": v, "unit": u}`` reads as the leaf
``v``, so a file of perfbench result lines keyed by workload (``{"serve16":
{"metrics": {"throughput_per_s": {"value": 989.0, "unit": "1/s"}}}}``) gates
against a baseline that writes ``"throughput_per_s": 989.0``.

Only stdlib is used, and absolute wall times are deliberately ignored:
runner machines differ, so the gate is a relative one against numbers
measured on comparable hardware.

``--self-test`` runs the script's own unit tests (used by the bench-smoke CI
job to keep the gate itself from rotting).
"""

import argparse
import json
import sys

FLOOR_SUFFIXES = ("_per_sec", "_per_s", "_rate")


def walk(obj, prefix=""):
    """Yields (dotted_path, value) for every leaf of a nested dict."""
    if isinstance(obj, dict) and set(obj) == {"value", "unit"}:
        yield prefix.rstrip("."), obj["value"]  # a perfbench metric record
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from walk(value, f"{prefix}{key}." if prefix else f"{key}.")
    else:
        yield prefix.rstrip("."), obj


def is_gated(path, base_value):
    """True when a baseline leaf participates in the gate."""
    return path.endswith(FLOOR_SUFFIXES) or (
        path.endswith("bitwise_identical") and base_value is True)


def run_check(baseline, current, tolerance):
    """Pure gating core over flattened dicts.

    Returns (log_lines, failures, checked); the caller decides the exit code.
    """
    lines = []
    failures = []
    checked = 0
    for path, base_value in baseline.items():
        if not is_gated(path, base_value):
            continue
        if path not in current:
            # Descriptive baseline keys (notes, machine shape) are free-form,
            # but a gated metric the current run no longer emits is a failure:
            # a silently dropped metric must not read as "no regression".
            failures.append(f"{path}: gated in baseline but missing from current run")
            continue
        cur_value = current[path]
        if path.endswith(FLOOR_SUFFIXES):
            checked += 1
            floor = (1.0 - tolerance) * base_value
            status = "ok" if cur_value >= floor else "REGRESSED"
            lines.append(
                f"{path}: {base_value:.6g} -> {cur_value:.6g} "
                f"(floor {floor:.6g}, tol {tolerance:.0%}) {status}")
            if cur_value < floor:
                failures.append(
                    f"{path}: {cur_value:.6g} is more than "
                    f"{tolerance:.0%} below baseline {base_value:.6g}")
        else:  # bitwise_identical flag, true in baseline
            checked += 1
            lines.append(f"{path}: {cur_value}")
            if cur_value is not True:
                failures.append(
                    f"{path}: determinism check failed (was true in baseline)")
    return lines, failures, checked


def self_test():
    """Unit tests of the gating core; returns a process exit code."""
    import unittest

    class CheckBenchTest(unittest.TestCase):
        def check(self, baseline, current, tolerance=0.30):
            return run_check(dict(walk(baseline)), dict(walk(current)), tolerance)

        def test_within_tolerance_passes(self):
            _, failures, checked = self.check(
                {"x_per_sec": 100.0}, {"x_per_sec": 80.0})
            self.assertEqual(failures, [])
            self.assertEqual(checked, 1)

        def test_regression_fails(self):
            _, failures, _ = self.check({"x_per_sec": 100.0}, {"x_per_sec": 60.0})
            self.assertEqual(len(failures), 1)
            self.assertIn("x_per_sec", failures[0])

        def test_missing_gated_key_fails(self):
            _, failures, _ = self.check(
                {"x_per_sec": 100.0, "hit_rate": 0.9, "bitwise_identical": True},
                {"x_per_sec": 100.0})
            self.assertEqual(len(failures), 2)
            self.assertTrue(any("hit_rate" in f and "missing" in f for f in failures))
            self.assertTrue(
                any("bitwise_identical" in f and "missing" in f for f in failures))

        def test_descriptive_keys_are_free_form(self):
            _, failures, checked = self.check(
                {"x_per_sec": 100.0, "note": "measured on runner A", "tasks": 1000},
                {"x_per_sec": 100.0})
            self.assertEqual(failures, [])
            self.assertEqual(checked, 1)

        def test_perfbench_records_gate_per_s_keys(self):
            # perfbench result lines keyed by workload: the throughput record
            # is gated by its value, at a tolerance under the default (a 30%
            # drop would pass at 0.30).
            run = {"correct": True, "metrics": {
                "setup_s": {"value": 0.001, "unit": "s"},
                "throughput_per_s": {"value": 70.0, "unit": "1/s"}}}
            base = {"serve16": {"metrics": {"throughput_per_s": 100.0}}}
            _, failures, checked = self.check(
                base, {"serve16": run}, tolerance=0.25)
            self.assertEqual(checked, 1)
            self.assertEqual(len(failures), 1)
            self.assertIn("serve16.metrics.throughput_per_s", failures[0])
            run["metrics"]["throughput_per_s"]["value"] = 76.0
            _, failures, _ = self.check(base, {"serve16": run}, tolerance=0.25)
            self.assertEqual(failures, [])

        def test_bitwise_flag_flip_fails(self):
            _, failures, _ = self.check(
                {"bitwise_identical": True}, {"bitwise_identical": False})
            self.assertEqual(len(failures), 1)
            self.assertIn("determinism", failures[0])

        def test_bitwise_flag_false_in_baseline_not_gated(self):
            _, failures, checked = self.check(
                {"bitwise_identical": False, "x_per_sec": 1.0}, {"x_per_sec": 1.0})
            self.assertEqual(failures, [])
            self.assertEqual(checked, 1)

        def test_rate_metrics_gated(self):
            _, failures, _ = self.check({"hit_rate": 0.9}, {"hit_rate": 0.5})
            self.assertEqual(len(failures), 1)

        def test_nested_paths(self):
            _, failures, checked = self.check(
                {"case": {"a": {"x_per_sec": 100.0}}},
                {"case": {"a": {"x_per_sec": 60.0}}})
            self.assertEqual(len(failures), 1)
            self.assertIn("case.a.x_per_sec", failures[0])
            self.assertEqual(checked, 1)

        def test_no_gated_metrics_is_reported(self):
            _, failures, checked = self.check({"note": "hi"}, {"note": "hi"})
            self.assertEqual(checked, 0)
            self.assertEqual(failures, [])

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(CheckBenchTest)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop below baseline (default 0.30)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own unit tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("BASELINE.json and CURRENT.json are required (or --self-test)")

    with open(args.baseline) as f:
        baseline = dict(walk(json.load(f)))
    with open(args.current) as f:
        current = dict(walk(json.load(f)))

    lines, failures, checked = run_check(baseline, current, args.tolerance)
    for line in lines:
        print(line)

    if checked == 0 and not failures:
        print("error: no gated metrics found in baseline", file=sys.stderr)
        return 2
    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {checked} gated metrics within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
