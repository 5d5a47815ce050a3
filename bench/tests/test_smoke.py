"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest bench/tests

Each workload runs once untraced and once traced on a small subset of its
invocations; every metric named in BENCHMARK.json must be reported with its
unit, and every check must pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run_bench(cwd: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_at_toy_size(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "oscillation_scan", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_random_modes_are_seeded_and_admissible():
    assert workloads.random_modes(5, 4) == workloads.random_modes(5, 4)
    assert workloads.random_modes(5, 4) != workloads.random_modes(6, 4)
    for mode in workloads.random_modes(5, 4):
        for part in ("g", "g_imag"):
            g = np.polynomial.Polynomial(mode[part]["poly"])
            assert abs(g(0.0)) + abs(g.deriv()(0.0)) + abs(g(1.0)) < 1e-15
        for part in ("f", "f_imag"):
            assert np.polynomial.Polynomial(mode[part]["poly"])(0.0) == 0.0
