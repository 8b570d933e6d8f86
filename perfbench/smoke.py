#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload for 0.2 s, untraced and traced, and checks that
every metric named in ``BENCHMARK.json`` is emitted with its unit; that a
deliberately corrupted result is counted as failed rather than passing;
that a checkout without the program gives no result; and the verdicts of
the compare command.  Deliberately not named ``test_*.py``, so the
repository's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run  # first: pins BLAS threads before numpy loads

run.import_program()

import compare  # noqa: E402
import workloads  # noqa: E402
from common import HERE, ROOT, load_spec  # noqa: E402
from moment2d import AtomicMeasure  # noqa: E402

SPEC = load_spec()
TINY = ["--seconds", "0.2", "--seed", "3"]


def run_main(argv) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, code
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def shifted(report, delta):
    m = report.measure
    return dataclasses.replace(report, measure=AtomicMeasure(
        m.points + delta, m.weights, m.merge_tol))


def corrupt_reports(reports):
    return [shifted(r, 1e-3) for r in reports]


def corrupt_grid(result):
    code, text = result
    lines = text.decode().splitlines()
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-6) + 1e-6)
    lines[1] = ",".join(fields)
    return code, ("\n".join(lines) + "\n").encode()


CORRUPT = {"table-recover": corrupt_reports, "pair-family": corrupt_reports,
           "resolvent-grid": corrupt_grid}


class MetricsEmitted(unittest.TestCase):
    def check_metrics(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(result["correct"])
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)

    def test_every_workload_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = run_main(["--workload", w["name"], "--trace", "0"] + TINY)
                self.check_metrics(result, "end_to_end")
                for name in ("ops_per_s", "op_ms_p50", "op_ms_p90",
                             "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)
                result, _ = run_main(["--workload", w["name"], "--trace", "1"] + TINY)
                self.check_metrics(result, "per_layer")
                self.assertEqual(
                    result["metrics"]["trace.output_mismatches"]["value"], 0)

    def test_timed_tables_do_not_fail_and_probe_is_reported(self):
        result, text = run_main(["--workload", "table-recover", "--trace", "0",
                                 "--seconds", "2", "--seed", "3"])
        self.assertEqual(result["failed"], 0)
        self.assertRegex(text, r"# known-defect probe .*: \d+ of "
                         rf"{2 * workloads.PROBE_PER_DEGREE} tables")

    def test_layers_are_seen_on_their_workload(self):
        expect = {"table-recover": "gns.build_gns.ms",
                  "pair-family": "solutions.moments_from_pair.ms",
                  "resolvent-grid": "cayley.constant_admissibility.us_per_point"}
        for name, metric in expect.items():
            with self.subTest(workload=name):
                result, _ = run_main(["--workload", name, "--trace", "1"] + TINY)
                self.assertGreater(result["metrics"][metric]["value"], 0)


class CorruptedResultsFail(unittest.TestCase):
    def test_corrupted_result_counts_as_failed(self):
        for name, corrupt in CORRUPT.items():
            base = workloads.WORKLOADS[name]

            class Corrupted(base):
                def run(self, case, _corrupt=corrupt, _base=base):
                    return _corrupt(_base.run(self, case))

            with self.subTest(workload=name), \
                    mock.patch.dict(workloads.WORKLOADS, {name: Corrupted}):
                result, text = run_main(["--workload", name, "--trace", "0"] + TINY)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 0.0)
                # operations that raise stay counted by their error class
                wrong = int(re.search(r'"wrong_result": (\d+)', text).group(1))
                self.assertGreater(wrong, result["attempted"] // 2)


class NoProgramNoResult(unittest.TestCase):
    def test_checkout_without_src_exits_nonzero(self):
        bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "table-recover", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CompareVerdicts(unittest.TestCase):
    metric = {"name": "op_ms_p50", "better": "lower", "bound": 0.1}

    def test_verdicts(self):
        parent = [100.0 + i for i in range(10)]
        self.assertEqual(compare.verdict(parent, [80.0 + i for i in range(10)],
                                         self.metric)[0], "gain")
        self.assertEqual(compare.verdict(parent, [103.0 + i for i in range(10)],
                                         self.metric)[0], "no regression")
        self.assertEqual(compare.verdict(parent, [130.0 + i for i in range(10)],
                                         self.metric)[0], "regression")
        noisy = [100.0, 60.0, 140.0, 90.0, 120.0, 70.0, 130.0, 80.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(noisy, [115.0] * 10, self.metric)[0],
                         "unresolved")
        self.assertEqual(compare.verdict(parent, [80.0 + i for i in range(10)],
                                         self.metric, True)[0], "no regression")

    def test_failures(self):
        def records(failed):
            return [{"failed": f, "attempted": 100, "input_fail_ratio": f / 50}
                    for f in failed]
        none, some = records([0] * 10), records([0] * 9 + [1])
        self.assertEqual(compare.failures_rose(none, none), None)
        self.assertEqual(compare.failures_rose(none, some), "new")
        base = records([5, 5, 4, 6, 5, 5, 4, 6, 5, 5])
        self.assertEqual(compare.failures_rose(base, base), None)
        self.assertEqual(compare.failures_rose(base, records([6] * 10)), "more")
        probe = [dict(r, probe_fail_ratio=0.05) for r in none]
        worse = [dict(r, probe_fail_ratio=0.06) for r in none]
        self.assertEqual(compare.failures_rose(probe, probe), None)
        self.assertEqual(compare.failures_rose(probe, worse), "more")
        self.assertEqual(compare.failures_rose(worse, probe), None)


if __name__ == "__main__":
    unittest.main()
