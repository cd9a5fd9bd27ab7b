"""Self-tests of the benchmark.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

They run smoke-scale benchmark runs (a few cheap pool entries, one pass),
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import compare
from run import BENCH_DIR, REFERENCE, ROOT, cli_argv, run_child
from workloads import SMOKE, WORKLOADS, all_entries

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class OpLists(unittest.TestCase):
    def first_passes(self, workload, seed, n=3):
        passes = WORKLOADS[workload].passes(seed)
        return [next(passes) for _ in range(n)]

    def test_same_seed_same_op_list(self):
        for name, workload in WORKLOADS.items():
            a = self.first_passes(name, 7)
            self.assertEqual(a, self.first_passes(name, 7))
            self.assertNotEqual(a, self.first_passes(name, 8))
            for order in a:
                self.assertEqual(sorted(order), sorted(workload.pool))

    def test_every_pool_entry_has_a_reference_digest(self):
        digests = json.loads(REFERENCE.read_text())["digests"]
        self.assertEqual(set(digests), set(all_entries()))
        for name, entries in SMOKE.items():
            self.assertLessEqual(set(entries), set(WORKLOADS[name].pool))

    def test_tail_percentile_leaves_ten_samples(self):
        for workload in WORKLOADS.values():
            self.assertGreaterEqual(workload.min_ops * (100 - workload.tail_pct) / 100, 10)


class Smoke(unittest.TestCase):
    def run_smoke(self, workload, trace, *extra):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as out:
            proc = bench("--workload", workload, "--trace", str(trace), "--smoke",
                         "--out", out, *extra)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-2])["report"]
            return json.loads(lines[-1]), report

    def test_every_metric_is_emitted(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = self.run_smoke(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    names = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, names)

    def test_corrupted_reference_digest_fails_the_op(self):
        doc = json.loads(REFERENCE.read_text())
        doc["digests"][SMOKE["cold-enum"][0]] = "0" * 64
        with tempfile.NamedTemporaryFile("w", dir=SCRATCH, suffix=".json") as ref:
            json.dump(doc, ref)
            ref.flush()
            result, report = self.run_smoke("cold-enum", 0, "--reference", ref.name)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(report["fail_ratio"], 0)
        self.assertLess(result["metrics"]["success_ratio"]["value"], 1)

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "cold-enum", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Guards(unittest.TestCase):
    def test_runaway_op_is_killed(self):
        # About 100 s and 2.4 GB when left alone.
        _, record = run_child(cli_argv("cohomology U 4 4"), timeout=1.5)
        self.assertTrue(record["timed_out"])
        self.assertLess(record["wall"], 10)

    def test_address_space_is_limited(self):
        argv = [sys.executable, "-c", "bytearray(2 << 30)"]
        _, record = run_child(argv, timeout=30)
        self.assertNotEqual(record["rc"], 0)
        self.assertFalse(record["timed_out"])


class Compare(unittest.TestCase):
    def write_runs(self, directory, values, failed=0):
        for seed, value in enumerate(values):
            report = {"workload": "w", "seed": seed, "trace": 0, "failed": failed,
                      "metrics": {"latency_p50_s": {"value": value, "unit": "s"}}}
            (Path(directory) / f"{seed}.json").write_text(json.dumps(report))

    def verdict(self, parent, change, change_failed=0):
        spec = {"end_to_end": [{"name": "latency_p50_s", "unit": "s",
                                "better": "lower", "bound": 0.1}]}
        with tempfile.TemporaryDirectory(dir=SCRATCH) as p, \
                tempfile.TemporaryDirectory(dir=SCRATCH) as c:
            self.write_runs(p, parent)
            self.write_runs(c, change, change_failed)
            (row,) = compare.compare(p, c, spec)
        return row["verdict"]

    parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]

    def test_rules(self):
        self.assertEqual(self.verdict(self.parent, [v * 0.8 for v in self.parent]), "better")
        self.assertEqual(self.verdict(self.parent, [v * 1.3 for v in self.parent]), "worse")
        self.assertEqual(self.verdict(self.parent, [v * 1.02 for v in self.parent]), "same")
        noisy = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.7, 1.3, 1.0, 1.0]
        self.assertEqual(self.verdict(self.parent, noisy), "unresolved")
        # Nine wins in ten pairs is enough; eight is not.
        nine = [v * 0.9 for v in self.parent[:9]] + [1.5]
        self.assertEqual(self.verdict(self.parent, nine), "better")
        eight = [v * 0.9 for v in self.parent[:8]] + [1.5, 1.5]
        self.assertNotEqual(self.verdict(self.parent, eight), "better")
        # A gain does not count when more operations fail.
        faster = [v * 0.8 for v in self.parent]
        self.assertEqual(self.verdict(self.parent, faster, change_failed=1), "same")


if __name__ == "__main__":
    SCRATCH.mkdir(exist_ok=True)
    unittest.main()
