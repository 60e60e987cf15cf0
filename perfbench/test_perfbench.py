#!/usr/bin/env python3
"""Smoke tests for the benchmark itself (a few minutes on 2 vCPUs).

    python3 perfbench/test_perfbench.py

Each workload runs at the smallest size (--seconds 1) twice untraced
and once traced. The tests check that every metric BENCHMARK.json names
is emitted with its unit, that the deterministic outputs repeat exactly
for one seed, that the traced batch layers account for the traced solve
time, and that the benchmark refuses to run without the repository.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics that are a function of the seed alone.
DETERMINISTIC = ["objective", "cert_gap_pct", "ok_pct"]


def run(workload, seed, trace, cwd=ROOT):
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return p


def result(p):
    lines = p.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    work = [l for l in lines if l.startswith("work: ")]
    return out, work


class Benchmark(unittest.TestCase):
    def check_vocabulary(self, out, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for k, v in out["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)

    def test_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w, 5, 0), run(w, 5, 0)
                self.assertEqual(a.returncode, 0, a.stderr)
                self.assertEqual(b.returncode, 0, b.stderr)
                (ra, wa), (rb, wb) = result(a), result(b)
                self.check_vocabulary(ra, "end_to_end")
                for m in DETERMINISTIC:
                    self.assertEqual(ra["metrics"][m]["value"],
                                     rb["metrics"][m]["value"], m)
                    self.assertNotEqual(ra["metrics"][m]["value"], 0, m)
                # shard solves, events applied, objective, disk bytes
                self.assertEqual(len(wa), 1)
                self.assertEqual(wa, wb)
                self.assertEqual(ra["attempted"], rb["attempted"])

                t = run(w, 5, 1)
                self.assertEqual(t.returncode, 0, t.stderr)
                rt, wt = result(t)
                self.check_vocabulary(rt, "per_layer")
                self.assertEqual(wt, wa)
                m = {k: v["value"] for k, v in rt["metrics"].items()}
                if w == "batch_modularity":
                    layers = sum(m[k] for k in (
                        "partition.s", "lp_build.s", "relaxation.s",
                        "rounding.s", "certify.s", "repair.s"))
                    self.assertAlmostEqual(
                        layers * 100 / m["solve.s"] + m["unattributed_pct"],
                        100.0, places=6)
                    self.assertLess(m["unattributed_pct"], 5.0)
                    self.assertGreater(m["partition.s"], 0)
                else:
                    self.assertGreater(m["tick.p50_ms"], 0)
                    self.assertGreater(m["event.p99_ms"], m["tick.p50_ms"])
                if w == "serve_churn_durable":
                    self.assertGreater(m["recover.s"], 0)
                    self.assertGreater(m["wal.append_ns"], 0)

    def test_refuses_without_repository(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-test-",
                                         dir=ROOT) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run(WORKLOADS[0], 1, 0, cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", WORKLOADS[0], "--seed", "1"]):
            p = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                               capture_output=True, text=True, timeout=600)
            self.assertEqual(p.returncode, 2)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
