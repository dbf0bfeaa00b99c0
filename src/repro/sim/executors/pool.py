"""Process-pool executor — the one parallel backend.

One call = one fresh ``ProcessPoolExecutor``.  A cell that raises comes
back as its exception; a worker that dies mid-cell surfaces as
``BrokenProcessPool`` on its future and on every sibling still pending.
The futures are drained in cell order: every completed cell reaches the
runner's journal, including those after a failed one, and the first
failure in cell order is raised once the loop ends.  A failed sweep is
resumed by re-running it with the same result cache, never retried
inside the run (see ``docs/robustness.md``).

When telemetry is on, each call opens a ``pool.wave`` span and pickles
the recorder's :class:`~repro.obs.trace.WorkerContext` into every task.
Each worker records its seed in memory on the coordinator's clock and
returns the records and metrics with the cell's results; the
coordinator takes them in, in cell order, under the wave span and
labelled ``s<seed>``, so a pool sweep writes the same one trace file
and metrics snapshot as a serial one.  A worker that dies loses its
records.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.obs.recorder import get_recorder
from repro.sim.config import SimulationConfig
from repro.sim.executors.base import Cell, run_one_seed_remote
from repro.sim.metrics import SolutionMetrics


class ProcessPoolSweepExecutor:
    """Fans cells out over ``n_jobs`` worker processes."""

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
        on_done: Callable[[int, int, List[SolutionMetrics]], None],
    ) -> None:
        from concurrent.futures import ProcessPoolExecutor

        failure: Optional[Exception] = None
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
                        metrics, capture = future.result()
                        if capture is not None:
                            rec.take_in(capture, shard=f"s{seed}")
                        if isinstance(metrics, Exception):
                            raise metrics
                    except Exception as exc:
                        if failure is None:
                            failure = exc
                    else:
                        on_done(position, seed, metrics)
            finally:
                pool.shutdown(cancel_futures=True)
        if failure is not None:
            raise failure
