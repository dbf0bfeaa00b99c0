"""The decision of ``scripts/perf_gate.py`` on synthetic perfbench results.

Each case builds result lines the way ``perfbench/run.py`` prints them
and checks which ``workload/metric`` verdicts fail.  No benchmark runs.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "scripts" / "perf_gate.py")
assert _spec is not None and _spec.loader is not None
perf_gate = importlib.util.module_from_spec(_spec)
sys.modules["perf_gate"] = perf_gate  # dataclasses look their module up there
_spec.loader.exec_module(perf_gate)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
WORKLOAD = "solve-paper"
#: A plausible base result: every declared metric, no failed operation.
BASE_VALUES = {
    "solve_p50_s": 0.71,
    "solve_tail_s": 0.80,
    "sweep_cold_s": 0.73,
    "sweep_warm_s": 0.0032,
    "utility_mean": 1.0,
    "ok_frac": 1.0,
    "setup_s": 0.60,
    "peak_rss_mb": 50.0,
}


def line(correct=True, attempted=20, failed=0, drop=(), **overrides) -> str:
    values = {**BASE_VALUES, **overrides}
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": "s"}
                for name, value in values.items()
                if name not in drop
            },
        }
    )


def failures(change_line: str) -> set:
    """Names of the failed checks when every change run prints ``change_line``."""
    runs = [(0, line())] * perf_gate.PAIRS
    changed = [(0, change_line)] * perf_gate.PAIRS
    checks = perf_gate.judge(DECLARED, {WORKLOAD: runs}, {WORKLOAD: changed})
    return {check.name for check in checks if not check.ok}


def test_identical_results_pass():
    assert failures(line()) == set()


def test_timing_ten_percent_slower_passes():
    assert failures(line(solve_p50_s=0.71 * 1.10)) == set()


def test_timing_thirty_percent_over_base_fails():
    assert failures(line(solve_p50_s=0.71 * 1.30)) == {"solve-paper/solve_p50_s"}


def test_utility_mean_down_six_percent_fails():
    assert failures(line(utility_mean=0.94)) == {"solve-paper/utility_mean"}


def test_lower_ok_frac_fails():
    assert "solve-paper/ok_frac" in failures(line(ok_frac=0.9, failed=2))


def test_incorrect_run_fails():
    assert failures(line(correct=False)) == {"solve-paper/correct"}


def test_higher_failed_share_fails():
    assert failures(line(attempted=20, failed=1)) == {"solve-paper/failed_share"}


def test_missing_metric_fails():
    assert failures(line(drop=("setup_s",))) == {"solve-paper/setup_s"}


def test_non_finite_metric_fails():
    assert failures(line(peak_rss_mb=float("nan"))) == {"solve-paper/peak_rss_mb"}


@pytest.mark.parametrize(
    "status,last_line", [(1, line()), (0, "Traceback (most recent call last):")]
)
def test_failed_or_silent_change_run_fails(status, last_line):
    runs = [(0, line())] * perf_gate.PAIRS
    changed = runs[:-1] + [(status, last_line)]
    checks = perf_gate.judge(DECLARED, {WORKLOAD: runs}, {WORKLOAD: changed})
    assert [check.name for check in checks if not check.ok] == ["solve-paper/runs"]


def test_one_slow_outlier_does_not_move_the_median():
    runs = [(0, line())] * perf_gate.PAIRS
    changed = runs[:-1] + [(0, line(solve_p50_s=10.0))]
    checks = perf_gate.judge(DECLARED, {WORKLOAD: runs}, {WORKLOAD: changed})
    assert all(check.ok for check in checks)


def test_bounds_come_from_the_base_checkout(tmp_path):
    """A change that loosens its own BENCHMARK.json is still judged by the base's."""
    base, change = tmp_path / "base", tmp_path / "change"
    for checkout in (base, change):
        checkout.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
    loosened = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in loosened["end_to_end"]:
        metric["bound"] = 10.0
    (change / "BENCHMARK.json").write_text(json.dumps(loosened), encoding="utf-8")

    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout, workload, seed))
        slow = checkout == change and workload == WORKLOAD
        return 0, line(solve_p50_s=0.71 * (1.30 if slow else 1.0))

    checks = perf_gate.gate(base, change, run=fake_run)
    assert {check.name for check in checks if not check.ok} == {"solve-paper/solve_p50_s"}
    workloads = [w["name"] for w in loosened["workloads"]]
    assert len(calls) == 2 * perf_gate.PAIRS * len(workloads)
    # The base runs first on even pairs, the change first on odd ones.
    assert [c[0] for c in calls[:2]] == [base, change]
    first_odd = 2 * len(workloads)
    assert [c[0] for c in calls[first_odd : first_odd + 2]] == [change, base]
    assert {seed for _, _, seed in calls} == set(range(1, perf_gate.PAIRS + 1))


def test_both_checkouts_hold_bytecode_before_the_first_run(tmp_path):
    """A fresh worktree has no ``__pycache__``; the gate compiles both
    sides before any pair, so neither pays for compiling in a run."""
    base, change = tmp_path / "base", tmp_path / "change"
    packages = ("src/pkg", "perfbench")
    for checkout in (base, change):
        checkout.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
        for package in packages:
            (checkout / package).mkdir(parents=True)
            (checkout / package / "mod.py").write_text("VALUE = 1\n", encoding="utf-8")

    compiled_at_first_run = []

    def fake_run(checkout, workload, seed):
        if not compiled_at_first_run:
            compiled_at_first_run.extend(
                any((tree / package / "__pycache__").glob("mod.*.pyc"))
                for tree in (base, change)
                for package in packages
            )
        return 0, line()

    checks = perf_gate.gate(base, change, run=fake_run)
    assert compiled_at_first_run == [True] * 4
    assert all(check.ok for check in checks)
