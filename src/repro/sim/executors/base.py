"""Executor protocol and the shared work unit for the sweep runner.

The multi-seed runner (:mod:`repro.sim.runner`) hands its pending cells
to any object satisfying :class:`SweepExecutor`.  Two backends ship with
the library:

* :class:`~repro.sim.executors.serial.SerialExecutor` — in-process, the
  reference implementation;
* :class:`~repro.sim.executors.pool.ProcessPoolSweepExecutor` — a
  ``ProcessPoolExecutor`` fan-out, the one parallel backend.

The unit of work is one *cell*: ``(position in the seed list, seed)``.
Each cell is fully self-seeding (scenario streams 0-1, scheduler streams
100+ all derive from the seed alone), so *where* it runs can never change
*what* it computes — the runner's seed-ordered merge therefore produces
byte-identical results on every backend, which the chaos tests in
``tests/test_executors.py`` pin.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence, Tuple, Union

from repro.core.scheduler import Scheduler
from repro.obs.recorder import get_recorder, use_recorder
from repro.obs.trace import Capture, WorkerContext
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SolutionMetrics, solution_metrics
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

#: One unit of pending work: ``(position in the seed list, seed)``.
Cell = Tuple[int, int]


class SweepExecutor(Protocol):
    """Strategy object the runner hands a sweep's pending cells to."""

    #: Stable backend name (``"serial"`` / ``"pool"``), reported as the
    #: ``backend`` of the ``runner.run_schemes`` span.
    name: str

    def run_wave(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        cells: Sequence[Cell],
        on_done: Callable[[int, int, List[SolutionMetrics]], None],
    ) -> None:
        """Run every cell; hand each completed one to ``on_done``.

        ``on_done(position, seed, metrics)`` is called in cell order as
        each cell completes, so the runner journals it while later
        cells may still be running.  A failed cell raises its own
        exception (a dead pool worker's is ``BrokenProcessPool``); when
        several fail, the first in cell order is raised.
        """
        ...  # pragma: no cover - protocol definition


def seed_work(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    seed: int,
) -> List[SolutionMetrics]:
    """All schedulers on one seed's instance (the distributable work unit)."""
    scenario = Scenario.build(config, seed=seed)
    metrics: List[SolutionMetrics] = []
    for index, scheduler in enumerate(schedulers):
        rng = child_rng(seed, 100 + index)
        outcome = scheduler.schedule(scenario, rng)
        metrics.append(solution_metrics(scenario, outcome))
    return metrics


def run_one_seed(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    seed: int,
) -> List[SolutionMetrics]:
    """Dispatch one seed's work, instrumented when a recorder is enabled.

    With the default :class:`~repro.obs.recorder.NullRecorder` this is
    exactly :func:`seed_work` — no spans, no metric touches — so
    untraced runs stay on the bare hot path.  In a pool worker the
    recorder is the one :func:`run_one_seed_remote` installs.
    """
    rec = get_recorder()
    if not rec.enabled:
        return seed_work(config, schedulers, seed)
    with rec.span("runner.seed", seed=seed, n_schemes=len(schedulers)):
        metrics = seed_work(config, schedulers, seed)
    for scheduler, entry in zip(schedulers, metrics):
        rec.count("runner.seeds_completed", scheme=scheduler.name)
        rec.count(
            "scheduler.evaluations", entry.evaluations, scheme=scheduler.name
        )
        rec.observe(
            "scheduler.wall_time_s", entry.wall_time_s, scheme=scheduler.name
        )
        rec.gauge_set(
            "scheduler.utility",
            entry.system_utility,
            scheme=scheduler.name,
            seed=seed,
        )
    return metrics


def run_one_seed_remote(
    ctx: Optional[WorkerContext],
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    seed: int,
) -> Tuple[Union[List[SolutionMetrics], Exception], Optional[Capture]]:
    """:func:`run_one_seed` in a pool worker; returns ``(metrics, capture)``.

    ``ctx`` is the coordinator's pickled
    :class:`~repro.obs.trace.WorkerContext`, or ``None`` when untraced:
    then the capture is ``None`` and a failing cell raises as usual.
    With a context the worker records the seed under a ``worker.task``
    span on the coordinator's clock and epoch and returns the records
    and its metrics snapshot as the capture; a cell that raises returns
    its exception in place of the metrics, so its records still reach
    the coordinator.  Telemetry never perturbs results: the seed's work
    is identical either way.
    """
    if ctx is None:
        return run_one_seed(config, schedulers, seed), None
    recorder = ctx.recorder()
    result: Union[List[SolutionMetrics], Exception]
    with use_recorder(recorder), recorder.span("worker.task", task=f"s{seed}"):
        try:
            result = run_one_seed(config, schedulers, seed)
        except Exception as exc:
            result = exc
    return result, recorder.capture()
