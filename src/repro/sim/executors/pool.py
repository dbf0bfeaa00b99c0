"""Process-pool executor — the one parallel (and pre-emptible) backend.

One wave = one fresh ``ProcessPoolExecutor``.  A worker crash surfaces as
``BrokenProcessPool`` on its future (and on every sibling still pending);
a hung worker trips the per-seed timeout.  Either way the wave reports
``broken=True``: a broken pool's workers cannot be recovered, so it is
abandoned (``shutdown(wait=False)``).  Both failure shapes are ``fatal``
— they killed or lost the worker rather than raising from the cell's own
work.  In a pool running several cells a fatal failure cannot be pinned
on one cell (every pending sibling shares the ``BrokenProcessPool``), so
the runner re-runs each fatally failed cell alone in a single-worker
pool, where a death or timeout can only be that cell's, and counts only
those toward poison-cell quarantine.

When telemetry is on, each wave opens a ``pool.wave`` span and pickles
the recorder's :class:`~repro.obs.trace.WorkerContext` into every task.
Each worker records its seed in memory on the coordinator's clock and
returns the records and metrics with the cell's results; the
coordinator takes them in, in cell order, under the wave span and
labelled ``s<seed>``, so a pool sweep writes the same one trace file
and metrics snapshot as a serial one.  A worker that dies or times out
loses its records.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.obs.recorder import get_recorder
from repro.sim.config import SimulationConfig
from repro.sim.executors.base import (
    Cell,
    CellFailure,
    CellResult,
    WaveOutcome,
    run_one_seed_remote,
)


class ProcessPoolSweepExecutor:
    """Fans cells out over ``n_jobs`` worker processes per wave."""

    name = "pool"

    def __init__(self, n_jobs: int) -> None:
        if n_jobs < 1:
            raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = n_jobs

    def run_wave(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        cells: Sequence[Cell],
        timeout_s: Optional[float],
    ) -> WaveOutcome:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        outcome = WaveOutcome()
        rec = get_recorder()
        with rec.span("pool.wave", n_cells=len(cells), n_jobs=self.n_jobs):
            # Taken inside the wave span so worker records nest under it.
            ctx = rec.worker_context()
            pool = ProcessPoolExecutor(max_workers=min(self.n_jobs, len(cells)))
            try:
                futures = [
                    (
                        position,
                        seed,
                        pool.submit(
                            run_one_seed_remote, ctx, config, schedulers, seed
                        ),
                    )
                    for position, seed in cells
                ]
                for position, seed, future in futures:
                    try:
                        metrics, capture = future.result(timeout=timeout_s)
                        if capture is not None:
                            rec.take_in(capture, shard=f"s{seed}")
                        if isinstance(metrics, Exception):
                            raise metrics
                    except FuturesTimeoutError as exc:
                        outcome.broken = True
                        outcome.failed.append(
                            CellFailure(
                                position=position,
                                seed=seed,
                                error=(
                                    f"seed {seed} exceeded the {timeout_s}s budget"
                                ),
                                exception=exc,
                                fatal=True,
                            )
                        )
                    except BrokenProcessPool as exc:
                        outcome.broken = True
                        outcome.failed.append(
                            CellFailure(
                                position=position,
                                seed=seed,
                                error=(
                                    f"worker process died while running seed {seed}"
                                ),
                                exception=exc,
                                fatal=True,
                            )
                        )
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
                            CellResult(
                                position=position, seed=seed, metrics=metrics
                            )
                        )
            finally:
                # A broken pool (dead or hung worker) cannot be drained;
                # waiting on shutdown would block forever on the hung worker.
                pool.shutdown(wait=not outcome.broken, cancel_futures=True)
        return outcome

    def close(self) -> None:
        """Pools are per-wave; nothing outlives :meth:`run_wave`."""
