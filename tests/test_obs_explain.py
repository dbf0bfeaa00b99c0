"""``tsajs obs explain`` counts what the solvers report.

* Its per-run counters equal the ``ScheduleResult`` of the same runs
  for the threshold-trigger ablation's TTSA and Vanilla-slow schedules,
  and its phase-switch levels are exactly the levels whose
  ``anneal.level`` event reached ``maxCount``.
* It reads a sharded solve (clusters and reconcile rounds) and a
  trace with no annealing run at all.
* On a :class:`~repro.obs.clock.TickClock` its output is byte-identical
  across two recordings of the same command.
"""

from __future__ import annotations

import re
from typing import List, Tuple

import pytest

from repro.cli import main
from repro.experiments import ablation_threshold
from repro.obs.analyze import explain
from repro.obs.clock import TickClock
from repro.obs.recorder import set_recorder, use_recorder
from repro.obs.trace import TraceRecorder, read_trace
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

SEED = 2025


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    set_recorder(None)


@pytest.fixture
def tick_clock(monkeypatch):
    """Record every CLI trace on a TickClock (byte-deterministic files)."""
    monkeypatch.setattr("repro.obs.trace.MonotonicClock", TickClock)


def run_blocks(report: str) -> List[str]:
    """The per-run blocks of an explain report, in order."""
    body = report.split("\nannealing runs: ")[1].split("\n\nsharded solves:")[0]
    return re.split(r"\n(?=run \d+: )", body)[1:]


def run_counters(block: str) -> Tuple[int, int, int, List[int]]:
    """``(evaluations, fast_coolings, switches fired, switch levels)``."""
    evaluations = int(re.search(r" evaluations=(\d+) ", block).group(1))
    fast_coolings = int(re.search(r" fast_coolings=(\d+)\n", block).group(1))
    fired = int(re.search(r"phase switch fired (\d+) times", block).group(1))
    listed = re.search(r"at levels ([\d,\s]+?)\n  acceptance", block)
    levels = [int(x) for x in re.findall(r"\d+", listed.group(1))] if listed else []
    return evaluations, fast_coolings, fired, levels


def explain_cli(path, capsys) -> str:
    capsys.readouterr()
    assert main(["obs", "explain", str(path)]) == 0
    return capsys.readouterr().out


def test_explain_counts_what_ablation_threshold_tabulates():
    settings = ablation_threshold.AblationThresholdSettings.quick()
    config = SimulationConfig(
        n_users=settings.n_users,
        workload_megacycles=settings.workload_megacycles,
    )
    scenario = Scenario.build(config, seed=SEED)
    ttsa, slow = ablation_threshold.schedulers(settings)[:2]
    assert (ttsa.name, slow.name) == ("TTSA", "Vanilla-slow")
    recorder = TraceRecorder(clock=TickClock())
    with use_recorder(recorder):
        results = [
            scheduler.schedule(scenario, child_rng(SEED, 100 + index))
            for index, scheduler in enumerate((ttsa, slow))
        ]
    records = recorder.records
    blocks = run_blocks(explain(records))
    assert len(blocks) == 2

    # Each run's level events, grouped by their anneal.run span.
    run_ids = [
        record["id"]
        for record in records
        if record["kind"] == "span_start" and record["name"] == "anneal.run"
    ]
    for index, (scheduler, result, block, run_id) in enumerate(
        zip((ttsa, slow), results, blocks, run_ids)
    ):
        assert block.startswith(f"run {index}: scheme={scheduler.name}\n")
        evaluations, fast_coolings, fired, levels = run_counters(block)
        assert evaluations == result.evaluations
        assert fast_coolings == fired == result.fast_coolings
        max_count = scheduler.schedule_params.max_count
        assert levels == [
            record["attrs"]["level"]
            for record in records
            if record["name"] == "anneal.level"
            and record.get("parent") == run_id
            and record["attrs"]["accepted_worse"] >= max_count
        ]
    assert results[0].fast_coolings > 0  # TTSA does trigger here
    assert run_counters(blocks[1])[1:] == (0, 0, [])
    assert "at levels" not in blocks[1]


def test_explain_reads_a_sharded_solve(tmp_path, capsys, tick_clock):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        assert main(
            ["solve", "--users", "12", "--seed", "1", "--quick",
             "--cluster-radius", "1.2", "--schemes", "TSAJS-Shard",
             "--trace", str(out)]
        ) == 0
        reports.append(explain_cli(out, capsys))
    assert reports[0] == reports[1]
    report = reports[0]
    (solve,) = [
        record
        for record in read_trace(tmp_path / "a.jsonl")
        if record["name"] == "shard.schedule" and record["kind"] == "span_start"
    ]
    n_clusters = solve["attrs"]["n_clusters"]
    assert n_clusters >= 2
    assert (
        f"sharded solves: 1\n  shard.schedule scheme=TSAJS-Shard: "
        f"{n_clusters} clusters" in report
    )
    assert "    round 1: improved=" in report
    for cluster in range(n_clusters):
        assert f": scheme=TSAJS cluster={cluster}\n" in report
    path = report.split("critical path:\n")[1].split("\n\n")[0]
    assert path.splitlines()[0].endswith("100.0%  shard.schedule scheme=TSAJS-Shard")


def test_explain_on_a_greedy_only_trace(tmp_path, capsys, tick_clock):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        assert main(
            ["solve", "--users", "8", "--servers", "3", "--subbands", "2",
             "--seed", "1", "--schemes", "Greedy", "--trace", str(out)]
        ) == 0
        reports.append(explain_cli(out, capsys))
    assert reports[0] == reports[1]
    assert "annealing runs: 0\n  no annealing runs in this trace\n" in reports[0]
