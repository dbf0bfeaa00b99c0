"""Distributed tracing and trace analysis.

The load-bearing guarantees of ``repro.obs.dist`` and friends:

* **Propagation.**  Pool sweeps run with telemetry produce
  per-worker trace shards whose spans (including the annealer's, from
  inside the workers) merge into one schema-v2-valid tree under the
  coordinator's spans.
* **Determinism.**  Telemetry on or off never perturbs metrics on any
  backend, and on a :class:`~repro.obs.clock.TickClock` the merged
  trace is byte-identical across two runs (worker PIDs never reach
  record bodies).
* **Degradation.**  A torn shard is quarantined and replaced by a
  ``shard_truncated`` event; an unpropagable context is announced with
  ``worker_detached`` instead of silently dropping worker telemetry.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines import GreedyScheduler
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
from repro.obs.dist import (
    TraceContext,
    find_shards,
    merge_trace_shards,
    propagated_context,
    render_trace_lines,
    worker_trace,
)
from repro.obs.recorder import set_recorder, use_recorder
from repro.obs.schema import span_pairs_balanced, validate_record
from repro.obs.trace import TraceRecorder, events_named, read_trace
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor, SerialExecutor
from repro.sim.rng import child_rng
from repro.sim.runner import run_schemes
from repro.sim.scenario import Scenario
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


def _traced_sweep(telemetry_dir: Path, executor):
    """One annealer sweep with full distributed telemetry into ``telemetry_dir``."""
    telemetry_dir.mkdir(parents=True, exist_ok=True)
    recorder = TraceRecorder(
        telemetry_dir / "trace.jsonl",
        clock=TickClock(step=0.5),
        trace_id="run-test",
        shard_dir=telemetry_dir,
    )
    try:
        with use_recorder(recorder):
            result = run_schemes(
                CONFIG, [_annealer()], SEEDS, executor=executor
            )
    finally:
        recorder.close()
        executor.close()
    return result


def _ctx(tmp_path: Path, **overrides) -> TraceContext:
    fields = {
        "trace_id": "run-test",
        "parent_span_id": 0,
        "shard_dir": str(tmp_path),
        "iteration_detail": False,
        "tick": 0.5,
    }
    fields.update(overrides)
    return TraceContext(**fields)


class TestTraceContext:
    def test_no_context_from_null_recorder(self):
        assert propagated_context() is None

    def test_no_context_without_distributed_opt_in(self, tmp_path):
        # trace_id alone (or neither) is not enough: shard_dir is the
        # distributed opt-in.
        with use_recorder(TraceRecorder(trace_id="run-x")):
            assert propagated_context() is None
        with use_recorder(TraceRecorder()):
            assert propagated_context() is None

    def test_context_captures_recorder_state(self, tmp_path):
        recorder = TraceRecorder(
            clock=TickClock(step=0.25),
            iteration_detail=True,
            trace_id="run-x",
            shard_dir=tmp_path,
        )
        with use_recorder(recorder):
            assert propagated_context().parent_span_id is None
            with recorder.span("outer"):
                ctx = propagated_context()
        assert ctx.trace_id == "run-x"
        assert ctx.parent_span_id == 0
        assert ctx.shard_dir == str(tmp_path)
        assert ctx.iteration_detail is True
        assert ctx.tick == 0.25

    def test_monotonic_recorder_propagates_no_tick(self, tmp_path):
        recorder = TraceRecorder(trace_id="run-x", shard_dir=tmp_path)
        with use_recorder(recorder):
            assert propagated_context().tick is None


class TestWorkerTrace:
    def test_shard_records_nest_under_foreign_parent(self, tmp_path):
        ctx = _ctx(tmp_path, parent_span_id=41)
        with worker_trace(ctx, task="s7") as recorder:
            with use_recorder(recorder):
                recorder.event("anneal.finish", best=1.0)
        shards = find_shards(tmp_path)
        assert len(shards) == 1
        assert shards[0].name.endswith("-s7.jsonl")
        records = read_trace(shards[0])
        root = records[0]
        assert root["kind"] == "span_start"
        assert root["name"] == "worker.task"
        assert root["parent"] == 41
        assert root["attrs"]["task"] == "s7"
        assert all(record["trace"] == "run-test" for record in records)
        assert span_pairs_balanced(records)
        # The propagated tick makes shard timing deterministic: the
        # worker's TickClock starts fresh, so t is exactly one step.
        assert records[0]["t"] == 0.5

    def test_unreachable_shard_dir_never_fails_the_task(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory", encoding="utf-8")
        ctx = _ctx(tmp_path, shard_dir=str(blocker / "nested"))
        with worker_trace(ctx, task="s7") as recorder:
            with use_recorder(recorder):
                recorder.event("anneal.finish", best=1.0)
        assert find_shards(tmp_path) == []


class TestMergeShards:
    def _telemetry(self, tmp_path: Path) -> Path:
        """A hand-built coordinator trace plus two worker shards."""
        tel = tmp_path / "tel"
        tel.mkdir()
        coordinator = TraceRecorder(
            tel / "trace.jsonl",
            clock=TickClock(step=0.5),
            trace_id="run-test",
            shard_dir=tel,
        )
        with use_recorder(coordinator):
            with coordinator.span("pool.wave", n_cells=2):
                ctx = propagated_context()
        coordinator.close()
        for task in ("s1", "s2"):
            with worker_trace(ctx, task=task) as recorder:
                with use_recorder(recorder):
                    with recorder.span("runner.seed", seed=int(task[1:])):
                        recorder.event("anneal.finish", best=1.0)
        return tel

    def test_merge_renumbers_and_stamps(self, tmp_path):
        tel = self._telemetry(tmp_path)
        records = merge_trace_shards(tel)
        for number, record in enumerate(records, start=1):
            validate_record(record, line=number)
        # Coordinator records come first with their ids preserved.
        assert records[0]["name"] == "pool.wave"
        assert records[0]["id"] == 0
        # Shard roots keep their coordinator-side parent; shard-local
        # span ids are renumbered into one collision-free namespace.
        roots = [
            record
            for record in records
            if record["kind"] == "span_start"
            and record["name"] == "worker.task"
        ]
        assert len(roots) == 2
        assert all(root["parent"] == 0 for root in roots)
        ids = [
            record["id"] for record in records if record["kind"] == "span_start"
        ]
        assert len(ids) == len(set(ids))
        shard_labels = {
            record["shard"] for record in records if "shard" in record
        }
        assert shard_labels == {"s1", "s2"}
        # Shard-internal parent links survive the renumbering.
        tree = build_span_tree(records)
        (wave,) = tree
        assert [node.name for node in wave.children] == [
            "worker.task",
            "worker.task",
        ]
        assert [grand.name for node in wave.children for grand in node.children] == [
            "runner.seed",
            "runner.seed",
        ]

    def test_merged_write_is_deterministic(self, tmp_path):
        # Merging reads the directory without changing it: a second merge
        # renders the same document.
        tel = self._telemetry(tmp_path)
        first = render_trace_lines(merge_trace_shards(tel))
        assert render_trace_lines(merge_trace_shards(tel)) == first
        assert sorted(path.name for path in tel.iterdir()) == sorted(
            ["trace.jsonl"] + [path.name for path in find_shards(tel)]
        )

    def test_torn_shard_is_quarantined_not_fatal(self, tmp_path):
        tel = self._telemetry(tmp_path)
        victim = sorted(find_shards(tel))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])  # torn mid-record
        records = merge_trace_shards(tel)
        for number, record in enumerate(records, start=1):
            validate_record(record, line=number)
        truncations = events_named(records, "shard_truncated")
        assert len(truncations) == 1
        assert truncations[0]["shard"] == truncations[0]["attrs"]["task"]
        # The torn file was moved aside, not destroyed, and the healthy
        # shard still merged normally.
        quarantined = list((tel / "corrupt").iterdir())
        assert [path.name for path in quarantined] == [victim.name]
        assert any(
            record.get("shard") and record["name"] == "worker.task"
            for record in records
        )


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
            for record in merge_trace_shards(tmp_path / "tel")
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
        assert len(find_shards(tel)) == len(SEEDS)
        records = merge_trace_shards(tel)
        for number, record in enumerate(records, start=1):
            validate_record(record, line=number)
        # Worker-side annealer spans made it into the merged tree, each
        # attributed to its seed's shard.
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

    def test_merged_trace_is_byte_identical_across_runs(self, tmp_path):
        # Different worker PIDs each run; on a TickClock the merged
        # document must not notice.
        merged, reports = [], []
        for name in ("a", "b"):
            tel = tmp_path / name
            _traced_sweep(tel, ProcessPoolSweepExecutor(n_jobs=2))
            records = merge_trace_shards(tel)
            merged.append(render_trace_lines(records))
            reports.append(explain(records))
        assert merged[0] == merged[1]
        assert reports[0] == reports[1]

    def test_obs_cli_analyzes_a_real_sweep_trace(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        _traced_sweep(tel, ProcessPoolSweepExecutor(n_jobs=2))
        assert cli_main(["obs", "explain", str(tel)]) == 0
        out = capsys.readouterr().out
        assert out == explain(merge_trace_shards(tel)) + "\n"
        # The critical path descends into a worker shard, and each seed's
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

    def test_wave_without_context_emits_worker_detached(self, tmp_path):
        # Telemetry on, but no shard_dir: the legacy lossy situation,
        # now announced instead of silent.
        recorder = TraceRecorder(clock=TickClock())
        executor = ProcessPoolSweepExecutor(n_jobs=2)
        try:
            with use_recorder(recorder):
                executor.run_wave(
                    CONFIG,
                    [GreedyScheduler()],
                    [(0, 2025), (1, 2026)],
                    timeout_s=None,
                )
        finally:
            executor.close()
        (detached,) = events_named(recorder.records, "worker_detached")
        assert detached["attrs"]["backend"] == "pool"
        assert detached["attrs"]["n_cells"] == 2
        snapshot = recorder.snapshot()
        assert (
            snapshot["counters"]["obs.workers_detached{backend=pool}"] == 2.0
        )


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
