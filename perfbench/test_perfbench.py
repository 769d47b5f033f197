#!/usr/bin/env python3
"""Tests for the benchmark's own parts. Run from the checkout root:

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed (as run.py does), then checks that the
timing IoBackend decorator leaves report bytes identical, that every
metric name is well formed, that sanitizer builds are refused, that the
default seed reproduces the committed manifests, and that a smoke run of
every workload, untraced and traced, prints every metric.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def setUpModule():
    run.build()


def scratch_dir():
    """A temporary directory inside the checkout's scratch area."""
    os.makedirs(run.WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


class SpecTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = run.load_spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))

    def test_sanitizer_build_is_refused(self):
        run.check_stamp({"cxx_flags": "-O2 -g -DNDEBUG"})
        with self.assertRaises(run.SanitizerBuildError):
            run.check_stamp({"cxx_flags": "-O1 -fsanitize=address,undefined"})

    def test_default_seed_reproduces_committed_manifests(self):
        with scratch_dir() as tmp:
            for sources in run.WORKLOADS.values():
                for src in sources:
                    dst = os.path.join(tmp, "m.manifest")
                    run.seeded_manifest(src, dst, 0)
                    self.assertEqual(run.read_bytes(dst), run.read_bytes(src))
                    run.seeded_manifest(src, dst, 5)
                    self.assertNotEqual(run.read_bytes(dst),
                                        run.read_bytes(src))


class HarnessTest(unittest.TestCase):
    def test_timing_io_keeps_report_bytes(self):
        with scratch_dir() as tmp:
            result, rc = run.run_harness(["io-selftest", "--dir", tmp])
        self.assertEqual(rc, 0)
        self.assertEqual(result["identical"], 1)
        self.assertGreater(result["fsync_count"], 0)

    def test_harness_metric_names(self):
        with scratch_dir() as tmp:
            result, rc = run.run_harness(["report", "--cells", "500", "--seed",
                                          "3", "--dir", tmp])
        self.assertEqual(rc, 0)
        for name in result:
            self.assertRegex(name, NAME)


class SmokeTest(unittest.TestCase):
    def smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
             workload, "--seed", "2", "--seconds", "1", "--trace", str(trace),
             "--smoke"], capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in run.load_spec()[key]))
        return result["metrics"]

    def test_smoke_every_workload(self):
        for workload in sorted(run.WORKLOADS):
            with self.subTest(workload=workload):
                metrics = self.smoke(workload, 0)
                for name in ("throughput_per_s", "latency_p50_s"):
                    self.assertGreater(metrics[name]["value"], 0)
                self.smoke(workload, 1)


if __name__ == "__main__":
    unittest.main()
