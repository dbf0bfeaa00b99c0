"""Determinism of the process-pool sweep backend.

Each seed is a fully self-seeding work unit (the scenario draw and every
scheduler RNG derive from the seed alone) and the merge preserves seed
order, so a parallel run must reproduce the serial run bit for bit in
every metric except wall-clock time.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.baselines import GreedyScheduler
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.errors import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor
from repro.sim.runner import Sweep, run_schemes

#: Every SolutionMetrics field that must match bitwise (wall_time_s is
#: the one field parallelism is allowed to change).
COMPARED_FIELDS = (
    "system_utility",
    "mean_time_s",
    "mean_energy_j",
    "mean_offloaded_time_s",
    "mean_offloaded_energy_j",
    "n_offloaded",
    "evaluations",
)


def fig4_schedulers():
    return [
        TsajsScheduler(
            schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-2),
            use_delta=True,
        ),
        GreedyScheduler(),
    ]


def assert_identical_metrics(serial, parallel):
    assert serial.schemes == parallel.schemes
    assert serial.seeds == parallel.seeds
    for name in serial.schemes:
        for a, b in zip(serial.metrics[name], parallel.metrics[name]):
            for fieldname in COMPARED_FIELDS:
                x, y = getattr(a, fieldname), getattr(b, fieldname)
                if isinstance(x, float) and math.isnan(x):
                    assert math.isnan(y), (name, fieldname)
                else:
                    assert x == y, (name, fieldname, x, y)


@pytest.mark.slow
def test_parallel_bitwise_identical_to_serial():
    """A 4-worker pool sweep == serial on the Fig. 4 config."""
    config = SimulationConfig()  # the paper's Fig. 4 point: U=30, S=9, N=3
    seeds = [2025, 2026, 2027, 2028]
    schedulers = fig4_schedulers()
    serial = run_schemes(config, schedulers, seeds)
    parallel = Sweep(executor=ProcessPoolSweepExecutor(n_jobs=4)).run(
        config, schedulers, seeds
    )
    assert_identical_metrics(serial, parallel)


@pytest.mark.slow
def test_oversubscribed_workers_bitwise_identical_to_serial():
    """More pool workers than cores must not break determinism.

    More workers than cores (and than seeds) changes only how the seed
    work units are spread over processes — every unit self-seeds, so the
    merged metrics must still equal the serial run bit for bit.
    """
    config = SimulationConfig(n_users=8, n_servers=3, n_subbands=2)
    seeds = [1, 2, 3]
    schedulers = fig4_schedulers()
    serial = run_schemes(config, schedulers, seeds)
    oversubscribed = run_schemes(
        config,
        schedulers,
        seeds,
        executor=ProcessPoolSweepExecutor(n_jobs=(os.cpu_count() or 1) + 2),
    )
    assert_identical_metrics(serial, oversubscribed)


def test_runner_rejects_bad_worker_counts():
    with pytest.raises(ConfigurationError, match="n_jobs"):
        ProcessPoolSweepExecutor(n_jobs=0)
