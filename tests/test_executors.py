"""Chaos tests for the pluggable sweep executors.

The contract under test: every backend (serial, pool, file-based work
queue) computes byte-identical metrics for every cell, no matter which
process — or machine — ran it, and the queue backend survives workers
being killed mid-lease, quarantines poison cells that keep killing
workers, and quarantines (then recomputes) corrupt result files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.baselines import GreedyScheduler
from repro.errors import ConfigurationError, SolverError
from repro.sim.config import SimulationConfig
from repro.sim.executors import (
    ProcessPoolSweepExecutor,
    SerialExecutor,
    WorkQueueExecutor,
    make_executor,
)
from repro.sim.executors.base import metrics_from_payload, metrics_to_payload
from repro.sim.executors.files import load_result_payload, task_name
from repro.sim.executors.worker import QueueWorker
from repro.sim.runner import RetryPolicy, run_schemes
from tests.test_resilience import assert_identical_metrics

CONFIG = SimulationConfig(n_users=4, n_servers=2, n_subbands=2)

#: Queue knobs tuned for test speed: tight polling, short idle budget.
FAST_QUEUE = dict(poll_s=0.02, idle_timeout_s=15.0, lease_timeout_s=10.0)


@dataclass(frozen=True)
class CrashOnSeedScheduler:
    """Kills its host process on the scenario whose ``gains[0,0,0]`` matches.

    ``os._exit`` bypasses every handler — to the queue this is a worker
    dying mid-lease, every single time the poisoned cell is attempted.
    """

    poison: float
    name: str = "CrashOnSeed"

    def schedule(self, scenario, rng):
        if float(scenario.gains[0, 0, 0]) == self.poison:
            os._exit(13)
        return GreedyScheduler().schedule(scenario, rng)


@dataclass(frozen=True)
class CrashOnceScheduler:
    """Kills its host process on the first call ever; clean afterwards."""

    marker_dir: str
    name: str = "CrashOnce"

    def schedule(self, scenario, rng):
        crashed = Path(self.marker_dir) / "crashed"
        if not crashed.exists():
            crashed.touch()
            os._exit(13)
        return GreedyScheduler().schedule(scenario, rng)


@dataclass(frozen=True)
class RaisingScheduler:
    name: str = "Raising"

    def schedule(self, scenario, rng):
        raise RuntimeError("scheduler bug")


def _poison_value(seed: int) -> float:
    from repro.sim.scenario import Scenario

    return float(Scenario.build(CONFIG, seed=seed).gains[0, 0, 0])


class TestSerialExecutor:
    def test_runs_cells_in_order(self):
        outcome = SerialExecutor().run_wave(
            CONFIG, [GreedyScheduler()], [(0, 1), (1, 2)], None
        )
        assert [r.position for r in outcome.done] == [0, 1]
        assert not outcome.failed and not outcome.broken

    def test_cell_exception_is_data_not_raise(self):
        outcome = SerialExecutor().run_wave(
            CONFIG, [RaisingScheduler()], [(0, 1)], None
        )
        assert not outcome.done
        [failure] = outcome.failed
        assert not failure.fatal
        assert "scheduler bug" in failure.error
        assert isinstance(failure.exception, RuntimeError)
        assert not outcome.broken


class TestPoolExecutor:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            ProcessPoolSweepExecutor(n_jobs=0)

    def test_worker_death_is_fatal_and_breaks_wave(self, tmp_path):
        executor = ProcessPoolSweepExecutor(n_jobs=2)
        outcome = executor.run_wave(
            CONFIG, [CrashOnceScheduler(str(tmp_path))], [(0, 1), (1, 2)], None
        )
        assert outcome.broken
        assert any(f.fatal for f in outcome.failed)

    def test_matches_serial(self):
        serial = SerialExecutor().run_wave(
            CONFIG, [GreedyScheduler()], [(0, 1), (1, 2), (2, 3)], None
        )
        pooled = ProcessPoolSweepExecutor(n_jobs=2).run_wave(
            CONFIG, [GreedyScheduler()], [(0, 1), (1, 2), (2, 3)], None
        )
        for a, b in zip(serial.done, pooled.done):
            assert a.position == b.position and a.seed == b.seed
            for x, y in zip(a.metrics, b.metrics):
                assert x.system_utility == y.system_utility
                assert x.n_offloaded == y.n_offloaded


class TestMakeExecutor:
    def test_builds_each_backend(self, tmp_path):
        assert make_executor("serial").name == "serial"
        assert make_executor("pool", n_jobs=2).name == "pool"
        queue = make_executor("queue", n_jobs=1, queue_dir=tmp_path / "q")
        assert queue.name == "queue"
        queue.close()

    def test_queue_requires_directory(self):
        with pytest.raises(ConfigurationError, match="queue-dir"):
            make_executor("queue")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            make_executor("carrier-pigeon")


class TestMetricsPayloadCodec:
    def test_roundtrip_is_exact(self):
        [cell] = SerialExecutor().run_wave(
            CONFIG, [GreedyScheduler()], [(0, 5)], None
        ).done
        assert metrics_from_payload(metrics_to_payload(cell.metrics)) == cell.metrics

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown SolutionMetrics"):
            metrics_from_payload([{"definitely_not_a_field": 1}])

    def test_rejects_non_list(self):
        with pytest.raises(ConfigurationError, match="must be a list"):
            metrics_from_payload({"metrics": []})


class TestWorkQueueExecutor:
    def test_validates_knobs(self, tmp_path):
        with pytest.raises(ConfigurationError, match="n_local_workers"):
            WorkQueueExecutor(tmp_path, n_local_workers=-1)
        with pytest.raises(ConfigurationError, match="lease_timeout_s"):
            WorkQueueExecutor(tmp_path, lease_timeout_s=0)

    def test_inline_worker_drains_tasks(self, tmp_path):
        """A worker driven in-process against a hand-built queue tree."""
        from repro.atomicio import atomic_write_json
        from repro.sim.executors.files import QUEUE_FORMAT_VERSION

        executor = WorkQueueExecutor(tmp_path / "q", n_local_workers=0)
        executor._ensure_layout()
        spec = executor._write_spec(CONFIG, [GreedyScheduler()])
        for seed in (1, 2):
            name = task_name(spec, seed)
            atomic_write_json(
                tmp_path / "q" / "tasks" / f"{name}.json",
                {
                    "format_version": QUEUE_FORMAT_VERSION,
                    "spec": spec,
                    "seed": seed,
                },
            )
        worker = QueueWorker(tmp_path / "q", poll_s=0.02)
        assert worker.drain() == 2
        for seed in (1, 2):
            name = task_name(spec, seed)
            path = tmp_path / "q" / "results" / f"{name}.json"
            metrics = load_result_payload(path, name)
            assert len(metrics) == 1
        assert sorted((tmp_path / "q" / "leases").iterdir()) == []

    def test_matches_serial_with_subprocess_workers(self, tmp_path):
        schedulers = [GreedyScheduler()]
        seeds = [1, 2, 3]
        baseline = run_schemes(CONFIG, schedulers, seeds)
        executor = WorkQueueExecutor(
            tmp_path / "q", n_local_workers=2, **FAST_QUEUE
        )
        result = run_schemes(
            CONFIG, schedulers, seeds, retry=RetryPolicy(), executor=executor
        )
        assert not result.failures
        assert_identical_metrics(baseline, result)

    def test_worker_killed_mid_lease_recovers(self, tmp_path):
        """Chaos: the first attempt on some cell kills its worker.

        The lease stops heartbeating, the coordinator expires it (dead
        local pid fast path), the runner retries, and the final result
        is identical to an undisturbed serial run.
        """
        marker = tmp_path / "markers"
        marker.mkdir()
        schedulers = [CrashOnceScheduler(str(marker))]
        seeds = [1, 2]
        executor = WorkQueueExecutor(
            tmp_path / "q", n_local_workers=1, **FAST_QUEUE
        )
        result = run_schemes(
            CONFIG,
            schedulers,
            seeds,
            retry=RetryPolicy(backoff_s=0.0, quarantine_after=3),
            executor=executor,
        )
        assert not result.failures
        assert (marker / "crashed").exists()
        # The poisoned attempt's lease was reclaimed as evidence.
        expired = list((tmp_path / "q" / "expired").iterdir())
        assert expired
        baseline = run_schemes(CONFIG, [GreedyScheduler()], seeds)
        for serial_ms, queue_ms in zip(
            baseline.metrics["Greedy"], result.metrics["CrashOnce"]
        ):
            assert serial_ms.system_utility == queue_ms.system_utility
            assert serial_ms.n_offloaded == queue_ms.n_offloaded

    def test_poison_cell_is_quarantined(self, tmp_path):
        """A cell that kills every worker that touches it is quarantined
        after ``quarantine_after`` fatal failures instead of burning the
        whole retry budget, and the healthy cells still complete."""
        poison_seed, good_seed = 1, 2
        schedulers = [CrashOnSeedScheduler(_poison_value(poison_seed))]
        executor = WorkQueueExecutor(
            tmp_path / "q", n_local_workers=1, **FAST_QUEUE
        )
        result = run_schemes(
            CONFIG,
            [*schedulers],
            [poison_seed, good_seed],
            retry=RetryPolicy(
                max_attempts=5, backoff_s=0.0, quarantine_after=2
            ),
            executor=executor,
        )
        [failure] = result.failures
        assert failure.seed == poison_seed
        assert "quarantined" in failure.error
        assert failure.attempts == 2  # not the full 5-wave budget
        assert result.completed_seeds == [good_seed]
        assert len(result.metrics["CrashOnSeed"]) == 1

    def test_corrupt_result_entry_is_quarantined_and_recomputed(self, tmp_path):
        """Chaos: a pre-existing torn result file for a cell must be
        moved to corrupt/ and the cell recomputed, not trusted."""
        queue_dir = tmp_path / "q"
        executor = WorkQueueExecutor(queue_dir, n_local_workers=1, **FAST_QUEUE)
        executor._ensure_layout()
        spec = executor._write_spec(CONFIG, [GreedyScheduler()])
        name = task_name(spec, 1)
        # A torn write: half a JSON payload under the result's name.
        (queue_dir / "results" / f"{name}.json").write_text('{"format_ver')
        result = run_schemes(
            CONFIG,
            [GreedyScheduler()],
            [1, 2],
            retry=RetryPolicy(backoff_s=0.0),
            executor=executor,
        )
        assert not result.failures
        assert list((queue_dir / "corrupt").iterdir())
        baseline = run_schemes(CONFIG, [GreedyScheduler()], [1, 2])
        assert_identical_metrics(baseline, result)

    def test_unclaimed_tasks_time_out(self, tmp_path):
        """With no workers at all, the coordinator gives up after the
        idle budget instead of hanging forever."""
        executor = WorkQueueExecutor(
            tmp_path / "q",
            n_local_workers=0,
            poll_s=0.02,
            idle_timeout_s=0.3,
        )
        outcome = executor.run_wave(CONFIG, [GreedyScheduler()], [(0, 1)], None)
        [failure] = outcome.failed
        assert "no worker claimed" in failure.error
        assert not outcome.broken


class TestExecutorViaRunSchemes:
    def test_explicit_serial_executor(self):
        baseline = run_schemes(CONFIG, [GreedyScheduler()], [1, 2])
        result = run_schemes(
            CONFIG, [GreedyScheduler()], [1, 2], executor=SerialExecutor()
        )
        assert_identical_metrics(baseline, result)

    def test_default_executor_is_used(self, monkeypatch):
        """Without an executor every sweep runs on a SerialExecutor
        (fail-fast hands it one cell per wave)."""
        waves = []
        run_wave = SerialExecutor.run_wave

        def counting_wave(self, *args):
            waves.append(args[2])
            return run_wave(self, *args)

        monkeypatch.setattr(SerialExecutor, "run_wave", counting_wave)
        result = run_schemes(CONFIG, [GreedyScheduler()], [1, 2])
        assert waves == [[(0, 1)], [(1, 2)]]
        assert result.completed_seeds == [1, 2]

    def test_queue_failure_fails_fast_with_its_message(self, tmp_path):
        """The queue only ships the error text, so the fail-fast policy
        raises it as a SolverError."""
        executor = WorkQueueExecutor(
            tmp_path / "q", n_local_workers=1, **FAST_QUEUE
        )
        with pytest.raises(SolverError, match="scheduler bug"):
            run_schemes(CONFIG, [RaisingScheduler()], [1], executor=executor)

    def test_pool_backend_matches_serial(self):
        baseline = run_schemes(CONFIG, [GreedyScheduler()], [1, 2, 3])
        result = run_schemes(
            CONFIG,
            [GreedyScheduler()],
            [1, 2, 3],
            retry=RetryPolicy(),
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        assert_identical_metrics(baseline, result)
