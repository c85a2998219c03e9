#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

Each workload runs untraced and traced through perfbench/run.py. The
tests check the result line's shape, that every metric BENCHMARK.json
names is printed once with its unit and a finite value, that all
checks passed, and that the traced run's layer self times add up to
its host time within the tracing overhead. A last test runs the
benchmark in a directory holding only BENCHMARK.json and perfbench/,
where it must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Self times must cover the traced host time to within the tracing
# overhead; at tiny sizes timer noise gets this share of slack too.
SLACK_SHARE = 0.10


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


class WorkloadTest(unittest.TestCase):
    def result(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        last = done.stdout.strip().splitlines()[-1]
        result = json.loads(last)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result

    def check_metrics(self, result, names):
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in names})
        for m in names:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.result(w, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for name in ("host_s", "setup_s", "peak_rss_mb",
                             "sim_cycles", "sim_words_per_cycle"):
                    self.assertGreater(
                        result["metrics"][name]["value"], 0, name)

    def test_traced_layers(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.result(w, 1)
                self.check_metrics(result, SPEC["per_layer"])
                trace = json.loads(
                    (build_dir() / ("trace-%s-%d.json" % (w, SEED)))
                    .read_text())
                summary = trace["summary"]
                self.assertEqual(summary["seed"], SEED)
                self.assertTrue(trace["traceEvents"])
                host_ms = summary["traced_host_s"] * 1e3
                layers_ms = sum(ms for name, ms in trace["layers"].items()
                                if not name.startswith("bench."))
                overhead_ms = abs(summary["trace_overhead_s"]) * 1e3
                self.assertLessEqual(layers_ms, host_ms + 1e-3)
                self.assertLessEqual(host_ms - layers_ms,
                                     overhead_ms + SLACK_SHARE * host_ms)
                self.assertAlmostEqual(
                    result["metrics"]["bench.trace_overhead_s"]["value"],
                    summary["trace_overhead_s"], places=9)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        scratch = build_dir().parent / "standalone-check"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, capture_output=True, text=True,
                timeout=180, check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
