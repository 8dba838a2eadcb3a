"""Smoke test of the benchmark itself, at the tiny scale of each workload.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that ``BENCHMARK.json`` names exactly the metrics the runner
emits, that every workload reports every metric with its unit and no
failed op, that the deterministic per-layer metrics repeat exactly across
two invocations on one seed, and that the runner refuses to run without
the program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _invoke(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT,
            script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def test_benchmark_json_matches_runner():
    """BENCHMARK.json declares exactly the workloads and metrics emitted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    """An untraced run reports every end-to-end metric, none of them 0."""
    result = _result(_invoke(workload, trace=0))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_and_determinism(workload):
    """A traced run reports every per-layer metric; counts repeat."""
    first = _result(_invoke(workload, trace=1))["metrics"]
    assert {name: m["unit"] for name, m in first.items()} == \
        _declared("per_layer")
    second = _result(_invoke(workload, trace=1))["metrics"]
    for name in run.DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_without_program_source():
    """Beside BENCHMARK.json and perfbench/ alone, the runner fails."""
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _invoke("compile_paper", trace=0, cwd=bare,
                       script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
