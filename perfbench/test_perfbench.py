"""Smoke test of the benchmark: every workload path at m = 3, all checks on.

    python3 -m pytest perfbench -q

Each run also carries the checker's mutation self-check, so a checker that
accepts a corrupted secret or centralizer sample fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, seed=7):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--m", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_for_a_fixed_seed():
    counts = [
        {k: v["value"] for k, v in smoke("cli-p3-m6", 1, seed=3)["metrics"].items()
         if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["zpmsolve.muls"] > 0 and counts[0]["ring.attack_products"] > 0
