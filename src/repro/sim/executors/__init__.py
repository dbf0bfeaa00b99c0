"""Sweep-execution backends for :mod:`repro.sim.runner`.

See :mod:`repro.sim.executors.base` for the :class:`SweepExecutor`
protocol and the shared work unit, and ``docs/robustness.md`` for the
failure model each backend hardens against.
"""

from __future__ import annotations

from repro.sim.executors.base import (
    Cell,
    SweepExecutor,
    run_one_seed,
    seed_work,
)
from repro.sim.executors.pool import ProcessPoolSweepExecutor
from repro.sim.executors.serial import SerialExecutor

__all__ = [
    "Cell",
    "SweepExecutor",
    "run_one_seed",
    "seed_work",
    "SerialExecutor",
    "ProcessPoolSweepExecutor",
]
