"""In-process serial executor — the reference backend.

The pool's results are defined to be byte-identical to this backend's:
each cell is fully self-seeding, so executing it here or in a pool
worker draws exactly the same RNG streams.

Serial sweeps need no worker context: cells run in the coordinator's
own process, so seed spans land directly in its trace.  A failing cell
raises straight out of the loop, so no seed after it runs.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.core.scheduler import Scheduler
from repro.sim.config import SimulationConfig
from repro.sim.executors.base import Cell, run_one_seed
from repro.sim.metrics import SolutionMetrics


class SerialExecutor:
    """Runs every cell in the calling process, one after another."""

    name = "serial"

    def run_wave(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        cells: Sequence[Cell],
        on_done: Callable[[int, int, List[SolutionMetrics]], None],
    ) -> None:
        for position, seed in cells:
            on_done(position, seed, run_one_seed(config, schedulers, seed))
