"""In-process serial executor — the reference backend.

The pool's results are defined to be byte-identical to this backend's:
each cell is fully self-seeding, so executing it here or in a pool
worker draws exactly the same RNG streams.

Serial waves need no worker context: cells run in the coordinator's
own process, so seed spans land directly in its trace.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.scheduler import Scheduler
from repro.sim.config import SimulationConfig
from repro.sim.executors.base import (
    Cell,
    CellFailure,
    CellResult,
    WaveOutcome,
    run_one_seed,
)


class SerialExecutor:
    """Runs every cell in the calling process, one after another."""

    name = "serial"

    def run_wave(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        cells: Sequence[Cell],
    ) -> WaveOutcome:
        outcome = WaveOutcome()
        for position, seed in cells:
            try:
                metrics = run_one_seed(config, schedulers, seed)
            except Exception as exc:
                outcome.failed.append(CellFailure(position, seed, exc))
            else:
                outcome.done.append(CellResult(position, seed, metrics))
        return outcome
