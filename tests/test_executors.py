"""Chaos tests for the sweep executors.

The contract under test: both backends (serial, process pool) compute
byte-identical metrics for every cell, no matter which process ran it,
hand each completed cell to the caller's ``on_done`` in cell order, so
the runner journals it at once, and raise the first failed cell's own
exception.

A corrupt result entry is the result cache's concern, not an executor's:
``tests/test_result_cache.py::TestCorruption`` pins that a torn or
bit-flipped entry is quarantined and recomputed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

from repro.baselines import GreedyScheduler
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor, SerialExecutor
from repro.sim.runner import run_schemes
from repro.sim.scenario import Scenario
from tests.test_resilience import assert_identical_metrics

CONFIG = SimulationConfig(n_users=4, n_servers=2, n_subbands=2)


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
class AwaitJournalScheduler:
    """Greedy, except that any seed but ``first_seed`` waits (up to
    ``timeout_s``) until the journal has recorded ``first_seed``."""

    marker_dir: str
    first_seed: int
    timeout_s: float = 10.0
    name: str = "AwaitJournal"

    def schedule(self, scenario, rng):
        first = Scenario.build(CONFIG, seed=self.first_seed)
        if not np.array_equal(scenario.gains, first.gains):
            marker = Path(self.marker_dir) / f"recorded-{self.first_seed}"
            deadline = time.monotonic() + self.timeout_s
            while not marker.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError(f"seed {self.first_seed} was never journaled")
                time.sleep(0.01)
        return GreedyScheduler().schedule(scenario, rng)


class MarkingCache(ResultCache):
    """A result cache that also drops a marker file per recorded seed."""

    def __init__(self, root, marker_dir):
        super().__init__(root)
        self.marker_dir = Path(marker_dir)

    def record_seed(self, config, schedulers, seed, metrics):
        super().record_seed(config, schedulers, seed, metrics)
        (self.marker_dir / f"recorded-{seed}").touch()


@dataclass(frozen=True)
class RaisingScheduler:
    name: str = "Raising"

    def schedule(self, scenario, rng):
        raise RuntimeError("scheduler bug")


@dataclass(frozen=True)
class FailingSeedsScheduler:
    """Greedy, except on the instances of ``config`` drawn for ``seeds``:
    there it raises ``RuntimeError("seed <seed> failed")``."""

    config: SimulationConfig
    seeds: Tuple[int, ...]
    name: str = "FailingSeeds"

    def schedule(self, scenario, rng):
        for seed in self.seeds:
            drawn = Scenario.build(self.config, seed=seed)
            if np.array_equal(scenario.gains, drawn.gains):
                raise RuntimeError(f"seed {seed} failed")
        return GreedyScheduler().schedule(scenario, rng)


class TestSerialExecutor:
    def test_runs_cells_in_order(self):
        done = []
        SerialExecutor().run_wave(
            CONFIG,
            [GreedyScheduler()],
            [(0, 1), (1, 2)],
            lambda *cell: done.append(cell),
        )
        assert [(position, seed) for position, seed, _ in done] == [(0, 1), (1, 2)]

    def test_cell_exception_raises_before_next_cell(self):
        done = []
        with pytest.raises(RuntimeError, match="^seed 2 failed$"):
            SerialExecutor().run_wave(
                CONFIG,
                [FailingSeedsScheduler(CONFIG, (2,))],
                [(0, 1), (1, 2), (2, 3)],
                lambda *cell: done.append(cell),
            )
        assert [(position, seed) for position, seed, _ in done] == [(0, 1)]


class TestPoolExecutor:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            ProcessPoolSweepExecutor(n_jobs=0)

    def test_worker_death_is_fatal_and_breaks_wave(self, tmp_path):
        """A dead worker fails the call with BrokenProcessPool; a cell
        that completed before the death is still handed back."""
        executor = ProcessPoolSweepExecutor(n_jobs=2)
        done = []
        with pytest.raises(BrokenProcessPool):
            executor.run_wave(
                CONFIG,
                [CrashOnceScheduler(str(tmp_path))],
                [(0, 1), (1, 2)],
                lambda *cell: done.append(cell),
            )
        assert {position for position, _, _ in done} < {0, 1}

    def test_matches_serial(self):
        cells = [(0, 1), (1, 2), (2, 3)]
        serial, pooled = [], []
        SerialExecutor().run_wave(
            CONFIG, [GreedyScheduler()], cells, lambda *cell: serial.append(cell)
        )
        ProcessPoolSweepExecutor(n_jobs=2).run_wave(
            CONFIG, [GreedyScheduler()], cells, lambda *cell: pooled.append(cell)
        )
        assert len(serial) == len(pooled) == len(cells)
        for (p, s, a), (q, t, b) in zip(serial, pooled):
            assert p == q and s == t
            for x, y in zip(a, b):
                assert x.system_utility == y.system_utility
                assert x.n_offloaded == y.n_offloaded


class TestExecutorViaRunSchemes:
    def test_explicit_serial_executor(self):
        baseline = run_schemes(CONFIG, [GreedyScheduler()], [1, 2])
        result = run_schemes(
            CONFIG, [GreedyScheduler()], [1, 2], executor=SerialExecutor()
        )
        assert_identical_metrics(baseline, result)

    def test_default_executor_is_used(self, monkeypatch):
        """Without an executor every sweep runs on a SerialExecutor, in
        one call holding every pending cell."""
        waves = []
        run_wave = SerialExecutor.run_wave

        def counting_wave(self, *args):
            waves.append(args[2])
            return run_wave(self, *args)

        monkeypatch.setattr(SerialExecutor, "run_wave", counting_wave)
        result = run_schemes(CONFIG, [GreedyScheduler()], [1, 2])
        assert waves == [[(0, 1), (1, 2)]]
        assert len(result.metrics["Greedy"]) == 2

    def test_pool_backend_matches_serial(self):
        baseline = run_schemes(CONFIG, [GreedyScheduler()], [1, 2, 3])
        result = run_schemes(
            CONFIG,
            [GreedyScheduler()],
            [1, 2, 3],
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        assert_identical_metrics(baseline, result)

    def test_pool_journals_each_cell_as_it_completes(self, tmp_path):
        """Seed 2's cell runs only once seed 1 is in the journal, so a
        pool that journals at the end of its wave times the cell out."""
        markers = tmp_path / "markers"
        markers.mkdir()
        cache = MarkingCache(tmp_path / "c", markers)
        schedulers = [AwaitJournalScheduler(str(markers), first_seed=1)]
        result = run_schemes(
            CONFIG,
            schedulers,
            [1, 2],
            journal=cache,
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        assert len(result.metrics["AwaitJournal"]) == 2
        assert cache.lookup_seed(CONFIG, schedulers, 2) is not None

    def test_pool_raises_the_first_failure_and_journals_the_rest(self, tmp_path):
        """Seeds 0 and 2 fail with different errors: the sweep raises
        seed 0's, and seed 1, which completed between them, is in the
        journal afterwards."""
        cache = ResultCache(tmp_path / "c")
        schedulers = [FailingSeedsScheduler(CONFIG, (0, 2))]
        with pytest.raises(RuntimeError, match="^seed 0 failed$"):
            run_schemes(
                CONFIG,
                schedulers,
                [0, 1, 2],
                journal=cache,
                executor=ProcessPoolSweepExecutor(n_jobs=2),
            )
        assert cache.lookup_seed(CONFIG, schedulers, 1) is not None
        assert cache.lookup_seed(CONFIG, schedulers, 0) is None
        assert cache.lookup_seed(CONFIG, schedulers, 2) is None
