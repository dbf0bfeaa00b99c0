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

Two opt-in layers harden long sweeps (see ``docs/robustness.md``):

* a :class:`RetryPolicy` adds per-seed timeouts, bounded retry with
  exponential backoff, graceful degradation to serial execution when a
  pool breaks, isolated single-worker retries that pin a worker death
  on the exact cell, poison-cell quarantine after repeated
  worker-killing failures, and structured :class:`SeedFailure` records
  instead of a crash on the first bad seed.  Without one the runner
  fails fast: one attempt, and the first failed seed (in seed order)
  re-raises its original exception;
* a **journal** (any :class:`SeedJournal` — in practice the
  content-addressed :class:`repro.experiments.cache.ResultCache`)
  checkpoints every completed seed to disk so an interrupted sweep
  resumes by re-running only the missing (scheme, seed) cells.

:class:`Sweep` bundles the executor, retry policy and journal into one
explicit value the CLI hands to experiment drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence, Set

from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError, SolverError
from repro.obs.clock import sleep
from repro.obs.recorder import get_recorder
from repro.sim.config import SimulationConfig
from repro.sim.executors.base import Cell, CellFailure, SweepExecutor, WaveOutcome
from repro.sim.executors.pool import ProcessPoolSweepExecutor
from repro.sim.executors.serial import SerialExecutor
from repro.sim.metrics import SolutionMetrics
from repro.sim.stats import SummaryStats, summarize

__all__ = [
    "SeedFailure",
    "RetryPolicy",
    "SeedJournal",
    "ExperimentResult",
    "Sweep",
    "run_schemes",
]


@dataclass(frozen=True)
class SeedFailure:
    """A seed that could not be computed within the retry budget."""

    seed: int
    attempts: int
    error: str


#: Sleep before the second attempt's wave, in seconds; it doubles
#: before every later wave (exponential backoff gives a transiently
#: sick machine room to recover).  Tests that must not wait monkeypatch
#: :func:`sleep`.
BACKOFF_S = 0.5
BACKOFF_FACTOR = 2.0

#: A cell whose failures are *fatal* — they killed or lost the worker
#: (dead process, tripped timeout) — this many times while it ran alone
#: in a single-worker pool is quarantined: recorded as a
#: :class:`SeedFailure` at once and never scheduled again, so one poison
#: cell cannot keep taking workers down for the rest of the retry
#: budget.  Fatal failures in a pool shared with other cells do not
#: count: they cannot be pinned on one cell, so each such cell is re-run
#: alone in the same attempt.
QUARANTINE_AFTER = 2


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`run_schemes` survives crashed or hung seed workers.

    Attributes
    ----------
    max_attempts:
        Waves a failing seed is attempted before it is recorded as a
        :class:`SeedFailure` (>= 1; 1 records failures without retry).
    seed_timeout_s:
        Wall-clock budget for one seed's work unit on the pool; a seed
        exceeding it is treated as hung (a fatal failure).  ``None``
        disables the timeout.  Serial execution cannot be timed out and
        ignores this knob, which is why ``tsajs run --seed-timeout``
        always runs on the pool.

    Retry waves are spaced by :data:`BACKOFF_S` (doubling each wave).
    Once the pool broke (worker crash or hang), later waves run serially
    in-process — slower but immune to executor-level failures — except
    that a cell that has itself failed fatally is retried only alone in
    a single-worker pool, and quarantined after
    :data:`QUARANTINE_AFTER` such isolated fatal failures.
    """

    max_attempts: int = 3
    seed_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.seed_timeout_s is not None and self.seed_timeout_s <= 0:
            raise ConfigurationError(
                f"seed_timeout_s must be positive, got {self.seed_timeout_s}"
            )


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
    """Per-scheme metric samples for one experiment point.

    ``seeds`` lists the *requested* seeds; when a run with a retry
    policy gives up on some of them, the per-scheme sample lists cover
    only the seeds that completed and ``failures`` records the rest.

    ``telemetry`` is the recorder's metrics snapshot (counters, gauges and
    histograms keyed ``name{label=value,...}``) taken when the run ends;
    ``None`` unless a recorder was enabled (``tsajs run --telemetry``).
    """

    config: SimulationConfig
    seeds: List[int]
    metrics: Dict[str, List[SolutionMetrics]] = field(default_factory=dict)
    failures: List[SeedFailure] = field(default_factory=list)
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

    @property
    def completed_seeds(self) -> List[int]:
        """Requested seeds minus the permanently-failed ones."""
        failed = {failure.seed for failure in self.failures}
        return [seed for seed in self.seeds if seed not in failed]


def _run_fail_fast(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    cells: Sequence[Cell],
    journal: Optional[SeedJournal],
    executor: SweepExecutor,
) -> Dict[int, List[SolutionMetrics]]:
    """One attempt per cell; the first failed cell in seed order re-raises.

    The serial backend is handed one cell per wave, so its first failure
    stops the sweep instead of the rest of the seeds running first; the
    pool runs all cells in one wave.  Cells completed before the
    failure are journaled before the raise.
    """
    if executor.name == "serial":
        waves = [[cell] for cell in cells]
    else:
        waves = [list(cells)]
    results: Dict[int, List[SolutionMetrics]] = {}
    for wave in waves:
        outcome = executor.run_wave(config, schedulers, wave, None)
        for done in outcome.done:
            results[done.position] = done.metrics
            if journal is not None:
                journal.record_seed(config, schedulers, done.seed, done.metrics)
        if outcome.failed:
            first = min(outcome.failed, key=lambda f: f.position)
            raise first.exception
    return results


def _run_resilient(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    cells: Sequence[Cell],
    policy: RetryPolicy,
    journal: Optional[SeedJournal],
    executor: SweepExecutor,
) -> "tuple[Dict[int, List[SolutionMetrics]], List[SeedFailure]]":
    """Retry loop driving waves of pending cells through an executor.

    A fatal failure (dead worker, tripped timeout) in a wave of several
    cells cannot be pinned on one of them: a worker death breaks the
    whole pool, so every pending sibling fails with it.  Each such cell
    is therefore re-run at once, in the same attempt, alone in a
    single-worker pool, and only these *isolated* fatal failures count
    toward :data:`QUARANTINE_AFTER`.  A cell that has failed fatally
    never runs in-process again, since it could take the coordinator
    down with it: every later attempt on it is isolated as well.
    """
    rec = get_recorder()
    results: Dict[int, List[SolutionMetrics]] = {}
    pending: List[Cell] = list(cells)
    last_error: Dict[int, str] = {}
    fatal_counts: Dict[int, int] = {}
    suspects: Set[int] = set()
    failures: List[SeedFailure] = []
    delay = BACKOFF_S

    def run_wave(
        wave_executor: SweepExecutor, wave: List[Cell]
    ) -> WaveOutcome:
        outcome = wave_executor.run_wave(
            config, schedulers, wave, policy.seed_timeout_s
        )
        for done in outcome.done:
            results[done.position] = done.metrics
            if journal is not None:
                journal.record_seed(config, schedulers, done.seed, done.metrics)
        return outcome

    def note_error(failure: CellFailure, attempt: int, pinned: bool) -> None:
        if rec.enabled:
            rec.event(
                "runner.seed_error",
                seed=failure.seed,
                attempt=attempt,
                error=failure.error,
                fatal=failure.fatal,
                pinned=pinned,
            )
            rec.count("runner.seed_errors")

    for attempt in range(1, policy.max_attempts + 1):
        if not pending:
            break
        if attempt > 1:
            if rec.enabled:
                rec.event(
                    "runner.backoff",
                    attempt=attempt,
                    delay_s=delay,
                    n_pending=len(pending),
                )
                rec.count("runner.retry_waves")
            sleep(delay)
            delay *= BACKOFF_FACTOR
        shared = [cell for cell in pending if cell[0] not in suspects]
        isolate = [cell for cell in pending if cell[0] in suspects]
        failed: List[CellFailure] = []
        if shared:
            outcome = run_wave(executor, shared)
            if outcome.broken:
                if rec.enabled:
                    rec.event(
                        "runner.pool_broken",
                        attempt=attempt,
                        backend=executor.name,
                        n_failed=len(outcome.failed),
                    )
                    rec.count("runner.pool_breaks")
                if executor.name != "serial":
                    if rec.enabled:
                        rec.event(
                            "runner.serial_fallback",
                            attempt=attempt,
                            backend=executor.name,
                        )
                    executor.close()
                    executor = SerialExecutor()
            for failure in outcome.failed:
                if failure.fatal and len(shared) > 1:
                    # Not pinned on this cell: re-run it alone below.
                    note_error(failure, attempt, pinned=False)
                    suspects.add(failure.position)
                    isolate.append((failure.position, failure.seed))
                else:
                    failed.append(failure)
        for cell in sorted(isolate):
            alone = ProcessPoolSweepExecutor(n_jobs=1)
            failed.extend(run_wave(alone, [cell]).failed)
        next_pending: List[Cell] = []
        for failure in failed:
            note_error(failure, attempt, pinned=True)
            last_error[failure.position] = failure.error
            if failure.fatal:
                suspects.add(failure.position)
                count = fatal_counts.get(failure.position, 0) + 1
                fatal_counts[failure.position] = count
                if count >= QUARANTINE_AFTER:
                    failures.append(
                        SeedFailure(
                            seed=failure.seed,
                            attempts=attempt,
                            error=(
                                f"quarantined after {count} fatal "
                                f"failure(s): {failure.error}"
                            ),
                        )
                    )
                    if rec.enabled:
                        rec.event(
                            "runner.cell_quarantined",
                            seed=failure.seed,
                            attempt=attempt,
                            fatal_failures=count,
                            error=failure.error,
                        )
                        rec.count("runner.cells_quarantined")
                    continue
            next_pending.append((failure.position, failure.seed))
        pending = sorted(next_pending)

    failures.extend(
        SeedFailure(
            seed=seed,
            attempts=policy.max_attempts,
            error=last_error.get(position, "unknown error"),
        )
        for position, seed in pending
    )
    if rec.enabled:
        for failure in failures:
            rec.event(
                "runner.seed_failed",
                seed=failure.seed,
                attempts=failure.attempts,
                error=failure.error,
            )
            rec.count("runner.seeds_failed")
    return results, failures


def run_schemes(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    seeds: Sequence[int],
    retry: Optional[RetryPolicy] = None,
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
    every newly completed seed is recorded.  With ``retry=None`` the run
    fails fast: the first failed seed (in seed order) re-raises its
    original exception, and on the serial backend no later seed runs.
    With a :class:`RetryPolicy`, crashed or hung
    seeds are retried per the policy, a worker death in a shared pool is
    pinned on its cell by re-running each lost cell alone, poison cells
    that repeatedly kill workers are quarantined, and seeds that exhaust the budget land in
    ``result.failures`` instead of raising — unless *no* seed completed
    at all, which raises :class:`~repro.errors.SolverError`.  Retries,
    resumes and backend choice never change a completed seed's metrics.
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

        if pending and retry is None:
            by_position.update(
                _run_fail_fast(config, schedulers, pending, journal, executor)
            )
        elif pending and retry is not None:
            computed, failures = _run_resilient(
                config, schedulers, pending, retry, journal, executor
            )
            by_position.update(computed)
            result.failures = failures
            if not by_position:
                details = "; ".join(
                    f"seed {f.seed}: {f.error}" for f in failures[:5]
                )
                raise SolverError(
                    f"all {len(seeds)} seeds failed after "
                    f"{retry.max_attempts} attempt(s): {details}"
                )

        for position in sorted(by_position):
            for name, entry in zip(names, by_position[position]):
                result.metrics[name].append(entry)
        if rec.enabled:
            result.telemetry = rec.snapshot()
        return result


@dataclass(frozen=True)
class Sweep:
    """How an experiment's sweeps run: one explicit, immutable value.

    The CLI builds it from ``tsajs run --workers/--retries/
    --seed-timeout/--cache/--no-resume`` and hands it to the driver, which passes
    every experiment point through :meth:`run`.  The default value is a
    serial, fail-fast, uncached sweep.  ``journal`` is also the store
    drivers with non-runner cells read and write directly.
    """

    executor: Optional[SweepExecutor] = None
    retry: Optional[RetryPolicy] = None
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
            retry=self.retry,
            journal=self.journal,
            executor=self.executor,
        )
