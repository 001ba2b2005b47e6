#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, timed and traced, at tiny
sizes, plus the seed-discipline check.

    python3 perfbench/smoke_test.py

Builds through run.py (so $CARGO_TARGET_DIR applies) and takes about a
minute once the binary exists.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["history_reads", "corpus_point_reads", "ingest"]


def run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          list(args), capture_output=True, text=True,
                          timeout=900, cwd=ROOT)


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class SmokeTest(unittest.TestCase):

    def check_result(self, workload, trace):
        out = run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, declared(section))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        self.assertIn("context {", out.stdout)
        return result["metrics"]

    def test_timed_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0)

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1)
                if workload == "ingest":
                    self.assertGreater(metrics["xml.parse_us"]["value"], 0)
                    self.assertGreater(metrics["storage.wal_sync_us"]["value"], 0)
                else:
                    self.assertGreater(metrics["core.query_at_us"]["value"], 0)

    def test_layer_map_covers_per_layer_metrics(self):
        with open(os.path.join(HERE, "layer_map.json")) as f:
            names = [layer["name"] for layer in json.load(f)["layers"]]
        self.assertEqual(sorted(names), sorted(declared("per_layer")))

    def test_seed_discipline(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                dumps = {}
                for seed in ("1", "1", "2"):
                    out = run("--workload", workload, "--seed", seed,
                              "--seconds", "1", "--trace", "0",
                              "--dump-inputs")
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    lines = dict(line.split(" ", 1)
                                 for line in out.stdout.strip().splitlines())
                    dumps.setdefault(seed, []).append(lines)
                same, again = dumps["1"]
                other = dumps["2"][0]
                self.assertEqual(same, again)
                self.assertNotEqual(same["fingerprint"], other["fingerprint"])
                self.assertEqual(same["shape"], other["shape"])


if __name__ == "__main__":
    unittest.main()
