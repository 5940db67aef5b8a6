#!/usr/bin/env python3
"""Self-tests of the benchmark driver (about half a minute):

    python3 rcbench/selftest.py

- a workload whose SystemConfig fails validate() is a failed run, recorded
  with its reason, and the driver carries on;
- bad flags and a missing or garbage seed exit 2 without printing a result;
- the result digest does not depend on windowed stepping, the shard count
  or RC_CHECK, on short runs of both workload kinds;
- stray RC_* variables do not reach the children;
- BENCHMARK.json names the driver's workloads and metrics.
"""

import json
import os
import subprocess
import sys
import time
import unittest
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHORT_SYSTEM = run.Workload("system", 4, 1, 1_000, 3_000)
SHORT_SYNTHETIC = run.Workload("synthetic", 8, 1, 500, 2_000,
                               rate=0.04, service=7)


def deadline():
    return time.monotonic() + 120


class BuiltRunner(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("runner build failed")


class InvalidConfig(BuiltRunner):
    def test_failed_run_is_recorded(self):
        bad = replace(run.WORKLOADS["fft_8x8"], partition_side=3)
        r = run.Run("fft_8x8", 1, 1)
        s = r.child("invalid", bad)
        self.assertFalse(s.ok)
        self.assertIn("partition side must divide", s.error)
        self.assertEqual(len(r.samples), 1)
        self.assertEqual(len(r.failures), 1)
        # The driver keeps going: the next child of a valid workload runs.
        good = r.child("valid", SHORT_SYSTEM)
        self.assertTrue(good.ok, good.error)


class Usage(unittest.TestCase):
    def run_driver(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), *args],
            capture_output=True, text=True, timeout=60)

    def test_bad_usage_exits_2(self):
        ok = ["--workload", "fft_8x8", "--seconds", "1", "--trace", "0"]
        cases = [
            ok,                                   # missing seed
            ok + ["--seed", "abc"],               # garbage seed
            ok + ["--seed", "-3"],
            ok + ["--seed", "1.5"],
            ok + ["--seed"],                      # seed without value
            ok + ["--seed", "1", "--frobnicate", "2"],
            ["--workload", "nope", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            ["--workload", "fft_8x8", "--seed", "1", "--seconds", "0",
             "--trace", "0"],
            ["--workload", "fft_8x8", "--seed", "1", "--seconds", "1",
             "--trace", "2"],
            [],
        ]
        for args in cases:
            with self.subTest(args=args):
                p = self.run_driver(*args)
                self.assertEqual(p.returncode, 2, p.stderr)
                self.assertEqual(p.stdout, "")
                self.assertIn("usage:", p.stderr)


class DigestIdentity(BuiltRunner):
    def check(self, w):
        base = run.run_child(w, 5, "selftest.single", deadline())
        self.assertTrue(base.ok, base.error)
        variants = {
            "windowed": run.run_child(w, 5, "selftest.windowed", deadline(),
                                      windows=25),
            "shards2": run.run_child(replace(w, shards=2), 5,
                                     "selftest.shards2", deadline()),
            "checked": run.run_child(replace(w, env={"RC_CHECK": "1"}), 5,
                                     "selftest.checked", deadline()),
        }
        for name, s in variants.items():
            with self.subTest(variant=name):
                self.assertTrue(s.ok, s.error)
                self.assertEqual(s.result["digest"], base.result["digest"])
        self.assertEqual(len(variants["windowed"].result["windows_s"]), 25)
        other = run.run_child(w, 6, "selftest.seed6", deadline())
        self.assertNotEqual(other.result["digest"], base.result["digest"])

    def test_system(self):
        self.check(SHORT_SYSTEM)

    def test_synthetic(self):
        self.check(SHORT_SYNTHETIC)


class EnvironmentScrub(BuiltRunner):
    def test_stray_variables_do_not_reach_children(self):
        stray = {"RC_TICK_ALWAYS": "1", "RC_SHARDS": "2", "RC_CHECK": "1",
                 "RC_TELEMETRY": os.path.join(run.BUILD_DIR, "stray.jsonl")}
        saved = {k: os.environ.get(k) for k in stray}
        os.environ.update(stray)
        try:
            s = run.run_child(SHORT_SYSTEM, 1, "selftest.scrub", deadline())
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        self.assertTrue(s.ok, s.error)
        self.assertEqual(s.result["tick_mode"], "Activity")
        self.assertEqual(s.result["shards"], 1)
        self.assertFalse(s.result["checked"])
        self.assertFalse(os.path.exists(stray["RC_TELEMETRY"]))


class BenchmarkJson(unittest.TestCase):
    def test_names_match_driver(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            b = json.load(f)
        self.assertEqual(b["command"], ["python3", "rcbench/run.py"])
        self.assertEqual([w["name"] for w in b["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in b["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in b["per_layer"]],
                         run.PER_LAYER)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
