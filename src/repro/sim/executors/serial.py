"""In-process serial executor — the reference backend.

The pool's results are defined to be byte-identical to this backend's:
each cell is fully self-seeding, so executing it here or in a pool
worker draws exactly the same RNG streams.  Serial execution is also
the graceful-degradation target: when a pool reports itself broken, the
runner can swap in a :class:`SerialExecutor`, which has no machinery
left to break.  A cell that has killed a worker never runs here: it
could kill the coordinator itself, so the runner retries it only in a
single-worker pool (see ``docs/robustness.md``).

Serial waves need no worker context: cells run in the coordinator's
own process, so seed spans land directly in its trace.
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    """Runs every cell in the calling process, one after another.

    ``timeout_s`` is accepted for protocol compatibility and ignored:
    in-process work cannot be pre-empted, so a serial wave has no hang
    protection (the trade it makes for being unbreakable).  A sweep that
    needs a seed timeout runs on the pool, even with one worker.
    """

    name = "serial"

    def run_wave(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        cells: Sequence[Cell],
        timeout_s: Optional[float],
    ) -> WaveOutcome:
        outcome = WaveOutcome()
        for position, seed in cells:
            try:
                metrics = run_one_seed(config, schedulers, seed)
            except Exception as exc:
                outcome.failed.append(
                    CellFailure(
                        position=position,
                        seed=seed,
                        error=f"{type(exc).__name__}: {exc}",
                        exception=exc,
                    )
                )
            else:
                outcome.done.append(
                    CellResult(position=position, seed=seed, metrics=metrics)
                )
        return outcome

    def close(self) -> None:
        """Nothing to release."""
