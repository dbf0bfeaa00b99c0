"""The benchmark can fail: a synthetic evaluator slowdown trips its bound.

The slowdown is a busy wait, as long as the call itself, wrapped around
``ObjectiveEvaluator.evaluate_assignment`` from this test; ``src/`` is
not touched.  It must push ``solve-paper/solve_p50_s`` past its bound
and leave ``sweep-cache/sweep_warm_s`` (no evaluator on the warm path)
inside its bound.
"""

import json
import time
from pathlib import Path

import pytest

from perfbench import run, workloads
from repro.core.objective import ObjectiveEvaluator

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


def _bound(name: str) -> float:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return next(m["bound"] for m in declared if m["name"] == name)


def _measure(name: str, tmp_path: Path, **shorter) -> dict:
    """End-to-end metrics of a short run (``shorter`` overrides sizes)."""
    workdir = tmp_path / name
    workdir.mkdir(exist_ok=True)
    workload = workloads.make(name, workdir)
    for attr, value in shorter.items():
        setattr(workload, attr, value)
    workload.setup(SEED)
    return run.untraced_run(workload, seconds=0.0)["values"]


@pytest.fixture
def slow_evaluator(monkeypatch):
    original = ObjectiveEvaluator.evaluate_assignment

    def slowed(self, server_of_user, channel_of_user):
        t0 = time.perf_counter()
        value = original(self, server_of_user, channel_of_user)
        deadline = time.perf_counter() + (time.perf_counter() - t0)
        while time.perf_counter() < deadline:
            pass
        return value

    def install():
        monkeypatch.setattr(ObjectiveEvaluator, "evaluate_assignment", slowed)

    return install


def test_evaluator_slowdown_fails_solve_paper_not_sweep_warm(tmp_path, slow_evaluator):
    paper = {"min_ops": 5, "warm_cells": 5}
    base_solve = _measure("solve-paper", tmp_path, **paper)["solve_p50_s"]
    base_warm = _measure("sweep-cache", tmp_path, min_ops=3)["sweep_warm_s"]
    slow_evaluator()
    slow_solve = _measure("solve-paper", tmp_path, **paper)["solve_p50_s"]
    slow_warm = _measure("sweep-cache", tmp_path, min_ops=3)["sweep_warm_s"]

    assert slow_solve > base_solve * (1 + _bound("solve_p50_s")), (base_solve, slow_solve)
    assert slow_warm <= base_warm * (1 + _bound("sweep_warm_s")), (base_warm, slow_warm)
