"""The benchmark's own test: every workload at smoke size, one repetition.

    python3 -m unittest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload run.py knows. BENCHMARK.json lists a subset; the others
# run by name (see README.md).
WORKLOADS = ("stationary-dense", "crowd-mixed", "long-series")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> dict:
    out = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace),
                "--size", "smoke")
    if out.returncode != 0:
        raise AssertionError(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def assert_result(self, result: dict, kind: str) -> None:
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(WORKLOADS))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_result(smoke(workload, 0), "end_to_end")
                first, second = smoke(workload, 1), smoke(workload, 1)
                self.assert_result(first, "per_layer")
                self.assert_result(second, "per_layer")
                counts = [m["name"] for m in self.spec["per_layer"] if m["unit"] == "count"]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench_runs" / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            out = bench("--workload", "long-series", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
