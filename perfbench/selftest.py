#!/usr/bin/env python3
"""Quick self-test of the benchmark at a tiny grid (delta = 0.25).

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its unit, that
span self times add up to no more than the traced wall time, that a
corrupted field CSV trips the correctness check, and that the benchmark
refuses to run without the sources.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ratered.cli  # noqa: E402

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_run" / "selftest"


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SelfTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1 + trace)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    text = "\n".join(lines[:-1])
                    for name, unit in list(want.items()) + [("failed_frac", "ratio")]:
                        self.assertRegex(text, rf"\b{name}\s+\S+ {unit}\b")

    def test_self_times_within_wall(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                path = ROOT / ".perfbench_run" / "results" / f"{workload}-seed7-trace1.json"
                record = json.loads(path.read_text())
                traced = [s for s in record["samples"] if s["traced"]]
                self.assertTrue(traced)
                for sample in traced:
                    self.assertLessEqual(sample["layers"]["self_sum_s"], sample["wall_s"])
                    self.assertGreater(sample["layers"]["self_sum_s"], 0.0)

    def test_corrupted_field_csv_fails_check(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        try:
            plan = workloads.make_plan(workloads.ROUNDTRIP, 7, "tiny", SCRATCH)
            ref = workloads.load_reference("tiny")[workloads.ROUNDTRIP]
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in plan.calls:
                    self.assertEqual(ratered.cli.main(list(argv)), 0)
            self.assertEqual(workloads.check(plan, ref), [])

            path = plan.out / "field_max.csv"
            lines = path.read_text().splitlines()
            cells = lines[-1].split(",")
            cells[-2] = repr(float(cells[-2]) + 1e-9)
            lines[-1] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            problems = workloads.check(plan, ref)
            self.assertTrue(any("field_sha256" in p for p in problems), problems)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench(workloads.ROUNDTRIP, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
