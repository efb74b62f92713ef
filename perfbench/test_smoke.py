"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q     # or
    python3 perfbench/test_smoke.py

It checks that every metric named in ``BENCHMARK.json`` is emitted with
its unit on every workload, that the reply oracle and the durability
check pass, that a deliberately wrong expected value fails the run,
and that the benchmark refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
# ``analytic`` is not a gated workload (see workloads.py) but must still run.
NAMES = [workload["name"] for workload in SPEC["workloads"]] + ["analytic"]


def bench(*args, cwd=ROOT):
    """Run the benchmark; returns ``(exit code, stdout lines)``."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def tiny(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in specs))
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float), spec["name"])

    def test_every_workload_emits_every_metric_and_passes_its_checks(self):
        for workload in NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = tiny(workload, trace)
                    result = json.loads(lines[-1])
                    self.assertEqual(code, 0, "\n".join(lines[-30:]))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.check_metrics(result, SPEC[key])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_wrong_expected_value_fails_the_run(self):
        code, lines = tiny("ingest", 0, "--inject-fault")
        result = json.loads(lines[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(line.startswith("FAILED verify") for line in lines))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("--workload", "point", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
