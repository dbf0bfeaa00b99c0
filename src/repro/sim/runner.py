"""Multi-seed experiment runner.

The paper's figures average each scheme's performance over many random
instances (user drops + shadowing) of the same configuration.  The runner
builds one :class:`Scenario` per seed, hands every scheme an *independent
but seed-derived* RNG (so stochastic schedulers are reproducible yet
decorrelated from the instance draw), and collects
:class:`~repro.sim.metrics.SolutionMetrics` per (scheme, seed).

Every sweep runs through one :class:`~repro.sim.executors.base.SweepExecutor`
backend — in-process serial (the default) or a process pool.  Both
compute the same fully self-seeding work unit and the runner merges
results in seed order, so *which* backend ran a sweep never changes its
bytes.

A sweep fails fast: every cell gets one attempt, and the first failed
seed (in seed order) re-raises its original exception.  A cell is a
deterministic function of (config, scheduler, seed), so retrying it
would fail the same way; what an outside kill takes away, a **journal**
gives back (see ``docs/robustness.md``).  The journal (any
:class:`SeedJournal` — in practice the content-addressed
:class:`repro.experiments.cache.ResultCache`) checkpoints every
completed seed to disk, so re-running an interrupted or failed sweep
computes only the missing (scheme, seed) cells.

:class:`Sweep` bundles the executor and journal into one explicit value
the CLI hands to experiment drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence

from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.obs.recorder import get_recorder
from repro.sim.config import SimulationConfig
from repro.sim.executors.base import Cell, SweepExecutor
from repro.sim.executors.serial import SerialExecutor
from repro.sim.metrics import SolutionMetrics
from repro.sim.stats import SummaryStats, summarize

__all__ = [
    "SeedJournal",
    "ExperimentResult",
    "Sweep",
    "run_schemes",
]


class SeedJournal(Protocol):
    """Checkpoint store the runner consults before and after each seed.

    Implemented by :class:`repro.experiments.cache.ResultCache`; kept as
    a protocol here so ``repro.sim`` never imports the experiments layer
    at runtime.  Drivers whose cells are not plain (config, scheduler)
    pairs (``ext_faults``, ``ext_sharding``) use the key-level
    :meth:`get` / :meth:`put` directly.
    """

    def get(self, key: str) -> Optional[SolutionMetrics]:
        """The stored metrics under ``key``, or ``None``."""
        ...  # pragma: no cover - protocol definition

    def put(self, key: str, metrics: SolutionMetrics) -> None:
        """Durably store one cell's metrics under ``key``."""
        ...  # pragma: no cover - protocol definition

    def lookup_seed(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        seed: int,
    ) -> Optional[List[SolutionMetrics]]:
        """Per-scheme metrics for a completed seed, or ``None``."""
        ...  # pragma: no cover - protocol definition

    def record_seed(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        seed: int,
        metrics: Sequence[SolutionMetrics],
    ) -> None:
        """Durably record one completed seed's per-scheme metrics."""
        ...  # pragma: no cover - protocol definition


@dataclass
class ExperimentResult:
    """Per-scheme metric samples for one experiment point, in seed order.

    ``telemetry`` is the recorder's metrics snapshot (counters, gauges and
    histograms keyed ``name{label=value,...}``) taken when the run ends;
    ``None`` unless a recorder was enabled (``tsajs run --telemetry``).
    """

    config: SimulationConfig
    seeds: List[int]
    metrics: Dict[str, List[SolutionMetrics]] = field(default_factory=dict)
    telemetry: Optional[Dict[str, Any]] = None

    def _samples(self, scheme: str) -> List[SolutionMetrics]:
        try:
            return self.metrics[scheme]
        except KeyError:
            known = ", ".join(sorted(self.metrics)) or "none recorded"
            raise ConfigurationError(
                f"unknown scheme {scheme!r}; known schemes: {known}"
            ) from None

    def utilities(self, scheme: str) -> List[float]:
        return [m.system_utility for m in self._samples(scheme)]

    def wall_times(self, scheme: str) -> List[float]:
        return [m.wall_time_s for m in self._samples(scheme)]

    def mean_times(self, scheme: str) -> List[float]:
        return [m.mean_time_s for m in self._samples(scheme)]

    def mean_energies(self, scheme: str) -> List[float]:
        return [m.mean_energy_j for m in self._samples(scheme)]

    def utility_summary(self, scheme: str, confidence: float = 0.95) -> SummaryStats:
        return summarize(self.utilities(scheme), confidence)

    def wall_time_summary(self, scheme: str, confidence: float = 0.95) -> SummaryStats:
        return summarize(self.wall_times(scheme), confidence)

    @property
    def schemes(self) -> List[str]:
        return list(self.metrics.keys())


def run_schemes(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    seeds: Sequence[int],
    journal: Optional[SeedJournal] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    """Run every scheduler on every seed's scenario instance.

    Each scheduler gets RNG stream ``100 + its index`` of the seed, so
    adding or reordering schemes never perturbs the scenario draw
    (streams 0-1) and two stochastic schemes never share a chain.

    The seeds run on ``executor`` (a fresh
    :class:`~repro.sim.executors.serial.SerialExecutor` when ``None``).
    Both backends give bit-identical results (each seed is an
    independent, fully-seeded work unit and the merge preserves seed
    order), so the backend is purely a wall-clock choice.  Schedulers
    must be picklable for the pool backend (all built-in ones are).

    ``journal`` seeds that are already checkpointed are not re-run, and
    every newly completed seed is recorded as the executor hands it
    back.  The run fails fast: the executor raises the original
    exception of the first failed seed in seed order, after the seeds
    completed before it are journaled.  Resumes and backend choice never
    change a completed seed's metrics.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    names = [s.name for s in schedulers]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheduler names: {names}")
    if executor is None:
        executor = SerialExecutor()
    rec = get_recorder()

    result = ExperimentResult(config=config, seeds=seeds)
    for name in names:
        result.metrics[name] = []

    with rec.span(
        "runner.run_schemes",
        n_seeds=len(seeds),
        schemes=names,
        backend=executor.name,
    ):
        by_position: Dict[int, List[SolutionMetrics]] = {}
        pending: List[Cell] = []
        for position, seed in enumerate(seeds):
            # ``is not None``, not truthiness: a ResultCache's __len__
            # walks its whole directory, which made every warm read cost
            # O(cells cached).
            cached = (
                journal.lookup_seed(config, schedulers, seed)
                if journal is not None
                else None
            )
            if cached is not None:
                by_position[position] = cached
                if rec.enabled:
                    rec.event("runner.journal_hit", seed=seed)
                    rec.count("runner.journal_hits")
            else:
                pending.append((position, seed))

        def finish(
            position: int, seed: int, metrics: List[SolutionMetrics]
        ) -> None:
            by_position[position] = metrics
            if journal is not None:
                journal.record_seed(config, schedulers, seed, metrics)

        if pending:
            executor.run_wave(config, schedulers, pending, finish)

        for position in sorted(by_position):
            for name, entry in zip(names, by_position[position]):
                result.metrics[name].append(entry)
        if rec.enabled:
            result.telemetry = rec.snapshot()
        return result


@dataclass(frozen=True)
class Sweep:
    """How an experiment's sweeps run: one explicit, immutable value.

    The CLI builds it from ``tsajs run --workers/--cache/--no-resume``
    and hands it to the driver, which passes every experiment point
    through :meth:`run`.  The default value is a serial, uncached sweep.
    ``journal`` is also the store drivers with non-runner cells read and
    write directly.
    """

    executor: Optional[SweepExecutor] = None
    journal: Optional[SeedJournal] = None

    def run(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        seeds: Sequence[int],
    ) -> ExperimentResult:
        """Run every scheduler on every seed (see :func:`run_schemes`)."""
        return run_schemes(
            config,
            schedulers,
            seeds,
            journal=self.journal,
            executor=self.executor,
        )
