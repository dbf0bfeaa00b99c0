"""Chaos tests for the sweep executors.

The contract under test: both backends (serial, process pool) compute
byte-identical metrics for every cell, no matter which process ran it,
and the pool pins a worker death on the exact cell: a cell lost to a
shared pool's breakage is re-run alone in a single-worker pool, only
those isolated deaths and timeouts count toward quarantine, and a poison
cell never runs in the coordinator's own process.

A corrupt result entry is the result cache's concern, not an executor's:
``tests/test_result_cache.py::TestCorruption`` pins that a torn or
bit-flipped entry is quarantined and recomputed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.baselines import GreedyScheduler
from repro.errors import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor, SerialExecutor
import repro.sim.runner as runner
from repro.sim.runner import RetryPolicy, run_schemes
from tests.test_resilience import assert_identical_metrics

CONFIG = SimulationConfig(n_users=4, n_servers=2, n_subbands=2)


@dataclass(frozen=True)
class CrashOnSeedScheduler:
    """Kills its host process on the scenario whose ``gains[0,0,0]`` matches.

    ``os._exit`` bypasses every handler — to the pool this is a worker
    dying mid-cell, every single time the poisoned cell is attempted.
    """

    poison: float
    name: str = "CrashOnSeed"

    def schedule(self, scenario, rng):
        if float(scenario.gains[0, 0, 0]) == self.poison:
            os._exit(13)
        return GreedyScheduler().schedule(scenario, rng)


@dataclass(frozen=True)
class HangOnSeedScheduler:
    """Sleeps far past the seed timeout on the poisoned scenario, every time."""

    poison: float
    name: str = "HangOnSeed"

    def schedule(self, scenario, rng):
        if float(scenario.gains[0, 0, 0]) == self.poison:
            time.sleep(2.0)
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


def _sweep_in_child(conn, schedulers, seeds, policy, n_jobs):
    result = run_schemes(
        CONFIG,
        schedulers,
        seeds,
        retry=policy,
        executor=ProcessPoolSweepExecutor(n_jobs=n_jobs),
    )
    conn.send(result)
    conn.close()


def _sweep_in_coordinator(schedulers, seeds, policy, n_jobs):
    """Run a pool sweep from a forked coordinator process.

    A poison cell that reached the coordinator would kill it; running it
    in a child turns that into an exit code the test can assert on,
    instead of taking the test session down.
    """
    context = multiprocessing.get_context("fork")
    parent, child = context.Pipe(duplex=False)
    process = context.Process(
        target=_sweep_in_child, args=(child, schedulers, seeds, policy, n_jobs)
    )
    process.start()
    child.close()
    try:
        result = parent.recv()
    except EOFError:  # the coordinator died before sending
        result = None
    process.join()
    assert process.exitcode == 0, f"coordinator exited with status {process.exitcode}"
    return result


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


@pytest.mark.usefixtures("no_backoff")
class TestPoisonCellAttribution:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_poison_cell_is_quarantined(self, n_jobs):
        """A cell that kills every worker that touches it is quarantined
        after ``QUARANTINE_AFTER`` isolated deaths; the coordinator
        survives and the innocent seed completes, bit-identical to a
        serial run."""
        poison_seed, good_seed = 1, 2
        scheduler = CrashOnSeedScheduler(_poison_value(poison_seed))
        result = _sweep_in_coordinator(
            [scheduler], [poison_seed, good_seed], RetryPolicy(), n_jobs
        )
        [failure] = result.failures
        assert failure.seed == poison_seed
        assert "quarantined" in failure.error
        assert failure.attempts == runner.QUARANTINE_AFTER == 2
        assert result.completed_seeds == [good_seed]
        serial = run_schemes(CONFIG, [scheduler], [good_seed])
        assert_identical_metrics(serial, result)

    def test_shared_pool_death_is_not_counted_against_siblings(
        self, tmp_path, monkeypatch
    ):
        """One worker death in a shared pool fails every pending sibling
        with it.  With quarantine after one death, counting those deaths
        would quarantine innocent cells; re-run alone, each cell proves
        itself healthy and the sweep completes."""
        # The forked coordinator inherits the patched threshold.
        monkeypatch.setattr(runner, "QUARANTINE_AFTER", 1)
        scheduler = CrashOnceScheduler(str(tmp_path))
        seeds = [1, 2, 3]
        result = _sweep_in_coordinator(
            [scheduler], seeds, RetryPolicy(max_attempts=1), n_jobs=1
        )
        assert (tmp_path / "crashed").exists()
        assert result.failures == []
        assert result.completed_seeds == seeds
        assert_identical_metrics(run_schemes(CONFIG, [scheduler], seeds), result)

    def test_hung_cell_is_quarantined_by_isolated_timeouts(self):
        poison_seed, good_seed = 1, 2
        scheduler = HangOnSeedScheduler(_poison_value(poison_seed))
        result = run_schemes(
            CONFIG,
            [scheduler],
            [poison_seed, good_seed],
            retry=RetryPolicy(seed_timeout_s=0.25),
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        [failure] = result.failures
        assert failure.seed == poison_seed
        assert "exceeded the 0.25s budget" in failure.error
        assert failure.attempts == 2
        assert result.completed_seeds == [good_seed]


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
