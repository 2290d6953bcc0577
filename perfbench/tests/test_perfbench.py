"""Tests for the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import one_pass  # noqa: E402
from spans import Span, self_time_by_layer  # noqa: E402

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_the_runner() -> None:
    assert tuple(WORKLOADS) == one_pass.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload: str, tmp_path: Path) -> None:
    first = one_pass.input_digest(workload, 1, TINY, tmp_path / "a")
    again = one_pass.input_digest(workload, 1, TINY, tmp_path / "b")
    other = one_pass.input_digest(workload, 2, TINY, tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload: str, trace: str) -> None:
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", trace, "--scale", str(TINY),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in table} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    report = "\n".join(proc.stdout.strip().splitlines()[:-1])
    for name, metric in result["metrics"].items():
        assert f"{name} " in report and metric["unit"] in report


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children() -> None:
    spans = [
        Span(1, 0, "core.reconstruct", 0.0, 10.0),
        Span(2, 1, "core.emulate", 1.0, 7.0),
        Span(3, 0, "trace.io.parse", 10.0, 12.0),
    ]
    layers = self_time_by_layer(spans, lambda s: s.end - s.start)
    assert layers == {"core": 10.0, "trace": 2.0}
