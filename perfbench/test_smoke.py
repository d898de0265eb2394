"""Smoke test of the benchmark on one round per workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, trace, root=ROOT, check=True):
    """The benchmark's own command, run from ``root`` on one round."""
    command = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--experiments", "1"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170, check=check)


def _result(done):
    lines = done.stdout.splitlines()
    info = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
    return lines, info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units_and_nothing_fails(workload):
    lines, _, result = _result(_run(workload, trace=0))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit for ln in lines), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_artifacts_repeat_for_the_same_seed(workload):
    runs = [_result(_run(workload, trace=1)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for _, _, result in runs:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert result["correct"] and result["failed"] == 0
    (_, info1, first), (_, info2, second) = runs
    assert info1["artifact_sha256"] == info2["artifact_sha256"]
    for name, unit in expected.items():
        if unit in ("count", "MB"):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], trace=0, root=tmp_path, check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
