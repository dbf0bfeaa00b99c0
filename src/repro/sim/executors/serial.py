"""In-process serial executor — the reference backend.

Every other backend's results are defined to be byte-identical to this
one's: each cell is fully self-seeding, so executing it here, in a pool
worker or on another machine draws exactly the same RNG streams.  Serial
execution is also the graceful-degradation target: when a pool or queue
reports itself broken, the runner swaps in a :class:`SerialExecutor`,
which has no machinery left to break (a cell that kills its *host*
process is precisely what the quarantine mechanism exists to stop before
this point — see ``docs/robustness.md``).

Serial waves need no trace propagation (:mod:`repro.obs.dist`): cells
run in the coordinator's own process, so seed spans land directly in
the parent trace and nothing can detach.
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
    protection (the trade it makes for being unbreakable).
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
