"""Smoke test of the benchmark at a tiny scale.

Checks that every metric named in BENCHMARK.json is emitted under its name
with its unit, that every output check passes (error rate 0) on the
default seed and on another one, and that the benchmark refuses to run
without the program's sources. It checks no timings. Run from anywhere::

    python3 bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = "0.02"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):
    def result(self, workload: str, seed: int, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--scale", TINY)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # error_rate = failed / attempted
        self.assertIn(f"{'error_rate':40s} 0 ", proc.stdout)
        return result

    @staticmethod
    def units(metrics: dict) -> dict:
        return {name: metric["unit"] for name, metric in metrics.items()}

    def test_spec_names_what_the_harness_measures(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], tracing.PER_LAYER)

    def test_end_to_end_metrics_on_default_and_second_seed(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in workloads.WORKLOADS:
            for seed in (1, 2):  # 1 is the default seed
                with self.subTest(workload=workload, seed=seed):
                    metrics = self.result(workload, seed, trace=0)["metrics"]
                    self.assertEqual(self.units(metrics), expected)
                    self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_per_layer_metrics(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 2, trace=1)["metrics"]
                self.assertEqual(self.units(metrics), expected)
                value = {name: m["value"] for name, m in metrics.items()}
                if workload.startswith("eval"):
                    self.assertEqual(value["analytics.matched_projections.calls"], 2)
                    self.assertEqual(value["facts.rows_loaded"], value["facts.rows_dumped"])
                    self.assertEqual(value["ingest.decode_receipt.calls"], 0)
                else:
                    self.assertEqual(value["ingest.decode_receipt.calls"], value["ingest.receipts"])
                    self.assertEqual(value["ingest.facts_out"], value["facts.rows_dumped"])
                    self.assertEqual(value["rules.eval_all_s"], 0)

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "eval-clean", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_self_time_excludes_children_and_gc(self):
        spans = [["a", 0.0, 10.0, None], ["b", 2.0, 5.0, 0], ["gc.gen2", 3.0, 4.0, 1],
                 ["gc.gen0", 6.0, 6.5, 0]]
        busy, own = tracing.busy_and_self(spans)
        self.assertEqual((busy["a"], own["a"]), (10.0, 6.5))
        self.assertEqual((busy["b"], own["b"]), (3.0, 2.0))


if __name__ == "__main__":
    unittest.main()
