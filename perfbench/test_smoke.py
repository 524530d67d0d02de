"""Smoke test of the benchmark: every workload at a toy size, untraced and
traced, through the same command line the benchmark is run with.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    res = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, res.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


# Counts that depend on the seed alone, not on timing. The pool's
# cancelled runs depend on timing and are left out.
EXACT_COUNTS = ("engine.runs", "engine.events_per_run", "engine.compiles",
                "smc.runs_used", "smc.runs_simulated", "smc.resimulated_share",
                "smc.pool.runs_dispatched")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_exact_counts_repeat_for_a_seed(workload):
    counts = []
    for _ in range(2):
        res = bench("--workload", workload, "--seed", "9", "--seconds", "0",
                    "--trace", "1", "--size", "tiny")
        assert res.returncode == 0, res.stderr
        metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", "suite", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
