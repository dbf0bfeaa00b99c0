"""Pool-sweep tracing and trace analysis.

The load-bearing guarantees of the pool's telemetry path:

* **One trace.**  A pool worker records its cell in memory and returns
  the records and its metrics snapshot with the cell's results; the
  coordinator takes them in under its ``pool.wave`` span, so the
  annealer's spans from inside the workers land in the coordinator's
  one trace file, each labelled with its seed's ``shard``.
* **One timeline.**  Workers record on the coordinator's clock and
  epoch, so every span lies inside its parent on a
  :class:`~repro.obs.clock.TickClock` and on the real monotonic clock.
* **Determinism.**  Telemetry on or off never perturbs metrics on any
  backend, the pool's metrics snapshot equals the serial run's, and on a
  ``TickClock`` the trace is byte-identical across two runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.obs.analyze import (
    build_span_tree,
    critical_path,
    explain,
    render_critical_path,
)
from repro.obs.clock import TickClock
from repro.obs.recorder import set_recorder, use_recorder
from repro.obs.schema import span_pairs_balanced
from repro.obs.trace import TraceRecorder, events_named, read_trace
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor, SerialExecutor
from repro.sim.rng import child_rng
from repro.sim.runner import run_schemes
from repro.sim.scenario import Scenario
from tests.test_executors import RaisingScheduler
from tests.test_resilience import assert_identical_metrics

CONFIG = SimulationConfig(n_users=4, n_servers=2, n_subbands=2)
SCHEDULE = AnnealingSchedule(chain_length=10, min_temperature=1e-1)
SEEDS = [2025, 2026]


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    set_recorder(None)


def _annealer() -> TsajsScheduler:
    return TsajsScheduler(schedule=SCHEDULE)


def _traced_sweep(telemetry_dir: Path, executor, clock=None):
    """One annealer sweep traced into ``telemetry_dir`` as ``run --telemetry``
    records it (on a TickClock unless ``clock`` is given)."""
    recorder = TraceRecorder(
        telemetry_dir / "trace.jsonl",
        clock=clock if clock is not None else TickClock(step=0.5),
    )
    try:
        with use_recorder(recorder):
            result = run_schemes(
                CONFIG, [_annealer()], SEEDS, executor=executor
            )
    finally:
        recorder.close()
    return result


def _spans_outside_their_parent(records):
    """Each span (by name) whose ``[start, end]`` is not inside its parent's."""
    spans = {}
    for record in records:
        if record["kind"] == "span_start":
            spans[record["id"]] = [record["t"], None, record.get("parent"), record["name"]]
        elif record["kind"] == "span_end":
            spans[record["id"]][1] = record["t"]
    return [
        name
        for start, end, parent, name in spans.values()
        if parent is not None
        and not (spans[parent][0] <= start and end <= spans[parent][1])
    ]


class TestTakeIn:
    def test_worker_records_nest_under_the_open_span(self):
        coordinator = TraceRecorder(clock=TickClock(step=0.5))
        with coordinator.span("pool.wave", n_cells=2):
            ctx = coordinator.worker_context()
            captures = []
            for seed in (1, 2):
                worker = ctx.recorder()
                with worker.span("worker.task", task=f"s{seed}"):
                    with worker.span("runner.seed", seed=seed):
                        worker.event("anneal.finish", best=1.0)
                    worker.count("runner.seeds_completed", scheme="X")
                captures.append(worker.capture())
            for seed, capture in zip((1, 2), captures):
                coordinator.take_in(capture, shard=f"s{seed}")
        records = coordinator.records
        assert span_pairs_balanced(records)
        assert _spans_outside_their_parent(records) == []
        ids = [r["id"] for r in records if r["kind"] == "span_start"]
        assert len(ids) == len(set(ids))
        assert {r["shard"] for r in records if "shard" in r} == {"s1", "s2"}
        (wave,) = build_span_tree(records)
        assert [node.name for node in wave.children] == ["worker.task"] * 2
        assert [g.name for n in wave.children for g in n.children] == [
            "runner.seed"
        ] * 2
        assert coordinator.snapshot()["counters"] == {
            "runner.seeds_completed{scheme=X}": 2.0
        }


class TestPoolBackendTracing:
    def test_traced_pool_sweep_matches_untraced(self, tmp_path):
        untraced = run_schemes(
            CONFIG, [_annealer()], SEEDS, executor=SerialExecutor()
        )
        traced = _traced_sweep(
            tmp_path / "tel", ProcessPoolSweepExecutor(n_jobs=2)
        )
        assert_identical_metrics(untraced, traced)
        # On this small instance an extra draw in a worker leaves every
        # metric in place, so also compare what the stream moves: the
        # evaluations and accepted moves each worker's solve reported,
        # against the same solves run untraced on their streams.
        reported = {
            record["shard"]: (
                record["attrs"]["evaluations"],
                record["attrs"]["accepted_moves"],
            )
            for record in read_trace(tmp_path / "tel" / "trace.jsonl")
            if record["kind"] == "event" and record["name"] == "scheduler.result"
        }
        expected = {}
        for seed in SEEDS:
            result = _annealer().schedule(
                Scenario.build(CONFIG, seed=seed), child_rng(seed, 100)
            )
            expected[f"s{seed}"] = (result.evaluations, result.accepted_moves)
        assert reported == expected

    def test_pool_shards_merge_into_one_tree(self, tmp_path):
        tel = tmp_path / "tel"
        _traced_sweep(tel, ProcessPoolSweepExecutor(n_jobs=2))
        assert sorted(path.name for path in tel.iterdir()) == ["trace.jsonl"]
        records = read_trace(tel / "trace.jsonl")
        # Worker-side annealer spans made it into the coordinator's
        # trace, each attributed to its seed's shard.
        anneal_runs = [
            record
            for record in records
            if record["kind"] == "span_start" and record["name"] == "anneal.run"
        ]
        assert len(anneal_runs) == len(SEEDS)
        assert {record["shard"] for record in anneal_runs} == {
            f"s{seed}" for seed in SEEDS
        }
        tree = build_span_tree(records)
        path = critical_path(tree)
        assert path and path[0].name in ("runner.run_schemes", "pool.wave")
        assert [node.name for node in path[1:4]] == [
            "pool.wave",
            "worker.task",
            "runner.seed",
        ]

    @pytest.mark.parametrize("clock", ["tick", "monotonic"])
    def test_every_span_lies_inside_its_parent(self, tmp_path, clock):
        _traced_sweep(
            tmp_path,
            ProcessPoolSweepExecutor(n_jobs=2),
            clock=TickClock(step=0.5) if clock == "tick" else None,
        )
        records = read_trace(tmp_path / "trace.jsonl")
        assert span_pairs_balanced(records)
        assert any(r["name"] == "worker.task" for r in records)
        assert _spans_outside_their_parent(records) == []

    def test_merged_trace_is_byte_identical_across_runs(self, tmp_path):
        # Different worker PIDs and completion orders each run; on a
        # TickClock the trace must not notice.
        traces = []
        for name in ("a", "b"):
            _traced_sweep(tmp_path / name, ProcessPoolSweepExecutor(n_jobs=2))
            traces.append((tmp_path / name / "trace.jsonl").read_bytes())
        assert traces[0] == traces[1]

    def test_raising_seed_keeps_its_worker_task_span(self):
        recorder = TraceRecorder(clock=TickClock())
        executor = ProcessPoolSweepExecutor(n_jobs=2)
        with use_recorder(recorder), pytest.raises(RuntimeError):
            executor.run_wave(
                CONFIG,
                [RaisingScheduler()],
                [(0, 2025)],
                lambda *cell: pytest.fail("the raising seed was handed back"),
            )
        records = recorder.records
        assert span_pairs_balanced(records)
        (task,) = [
            r for r in records
            if r["kind"] == "span_start" and r["name"] == "worker.task"
        ]
        assert task["shard"] == "s2025"
        assert events_named(records, "runner.seed")

    def test_obs_cli_analyzes_a_real_sweep_trace(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        _traced_sweep(tel, ProcessPoolSweepExecutor(n_jobs=2))
        assert cli_main(["obs", "explain", str(tel)]) == 0
        out = capsys.readouterr().out
        assert out == explain(read_trace(tel / "trace.jsonl")) + "\n"
        # The critical path descends into a worker, and each seed's
        # annealing run is reported with its shard attribution.
        path_lines = out.split("critical path:\n")[1].split("\n\n")[0]
        assert "worker.task task=s" in path_lines
        assert "anneal.run [shard s" in path_lines
        for index, seed in enumerate(SEEDS):
            assert (
                f"run {index}: task=s{seed} seed={seed} scheme=TSAJS "
                f"[shard s{seed}]"
            ) in out
        assert f"{len(SEEDS)} computed seeds (runner.seed)" in out

    def test_run_telemetry_on_the_pool_writes_the_serial_files(self, tmp_path, capsys):
        metrics = []
        for workers in ("1", "2"):
            tel = tmp_path / f"w{workers}"
            args = ["run", "fig7", "--quick", "--workers", workers]
            assert cli_main(args + ["--telemetry", str(tel)]) == 0
            assert sorted(p.name for p in tel.iterdir()) == [
                "metrics.json",
                "trace.jsonl",
            ]
            metrics.append(json.loads((tel / "metrics.json").read_text()))
        serial, pool = metrics
        assert serial["counters"] and serial["gauges"]
        assert pool["counters"] == serial["counters"]
        assert pool["gauges"] == serial["gauges"]
        assert {k: v["count"] for k, v in pool["histograms"].items()} == {
            k: v["count"] for k, v in serial["histograms"].items()
        }


class TestAnalysis:
    def test_critical_path_descends_heaviest_children(self):
        recorder = TraceRecorder(clock=TickClock(step=1.0))
        with recorder.span("root"):
            with recorder.span("light"):
                pass
            with recorder.span("heavy"):
                with recorder.span("leaf"):
                    recorder.event("tick")
        tree = build_span_tree(recorder.records)
        names = [node.name for node in critical_path(tree)]
        assert names == ["root", "heavy", "leaf"]
        rendered = render_critical_path(critical_path(tree))
        assert "100.0%" in rendered.splitlines()[0]
