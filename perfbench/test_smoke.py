#!/usr/bin/env python3
"""Smoke test of the benchmark of record: every workload once at a tiny
scale factor, untraced and traced.

    python3 perfbench/test_smoke.py

Asserts that every metric BENCHMARK.json names is emitted with its unit,
that every query's output matches its recorded digest, and that no query
failed (failed_frac is 0).
"""
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[0])["stamp"]
    return stamp, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        stamp, result = run(workload, trace)
        self.assertEqual(stamp["mode"], "real")
        self.assertEqual(stamp["smoke"], "1")
        self.assertTrue(result["correct"], "an output digest did not match")
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        if trace:
            self.assertEqual(result["metrics"]["failed_frac"]["value"], 0)
        else:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return result

    def test_tpch_stream(self):
        self.check("tpch_stream", 0)
        layers = self.check("tpch_stream", 1)["metrics"]
        self.assertGreater(layers["exec.scan_rows"]["value"], 0)
        self.assertGreater(layers["storage.gen_cpu_share"]["value"], 0)
        self.assertGreater(layers["trace.coverage_min"]["value"], 0.9)

    def test_short_queries(self):
        self.check("short_queries", 0)
        layers = self.check("short_queries", 1)["metrics"]
        self.assertGreater(layers["sql.parse_us"]["value"], 0)
        self.assertGreater(layers["cluster.rpc_per_query"]["value"], 0)

    def test_elastic_switch(self):
        self.check("elastic_switch", 0)
        self.check("elastic_switch", 1)

    def test_spill_join(self):
        self.check("spill_join", 0)
        layers = self.check("spill_join", 1)["metrics"]
        self.assertGreater(layers["exec.spill_bytes_written"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
