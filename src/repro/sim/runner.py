"""Multi-seed experiment runner.

The paper's figures average each scheme's performance over many random
instances (user drops + shadowing) of the same configuration.  The runner
builds one :class:`Scenario` per seed, hands every scheme an *independent
but seed-derived* RNG (so stochastic schedulers are reproducible yet
decorrelated from the instance draw), and collects
:class:`~repro.sim.metrics.SolutionMetrics` per (scheme, seed).

Execution is delegated to a pluggable
:class:`~repro.sim.executors.base.SweepExecutor` backend — in-process
serial, process pool, or a file-based work queue drained by external
``tsajs worker`` processes.  Every backend computes the same fully
self-seeding work unit and the runner merges results in seed order, so
*which* backend ran a sweep never changes its bytes.

Three resilience layers harden long sweeps (see ``docs/robustness.md``):

* a :class:`RetryPolicy` adds per-seed timeouts, bounded retry with
  exponential backoff, graceful degradation to serial execution when a
  backend breaks, poison-cell quarantine after repeated worker-killing
  failures, and structured :class:`SeedFailure` records instead of a
  crash on the first bad seed;
* a **journal** (any object satisfying :class:`SeedJournal` — in
  practice :class:`repro.experiments.persistence.SweepJournal` or the
  content-addressed :class:`repro.experiments.cache.ResultCache`)
  checkpoints every completed seed to disk so an interrupted sweep
  resumes by re-running only the missing (scheme, seed) cells;
* the executors themselves detect torn or corrupt artifacts, quarantine
  them and recompute (queue backend), or report themselves broken so the
  runner can degrade.

With none of these supplied (and no module-level defaults installed) the
runner follows the exact legacy code path — bitwise-identical results
and fail-fast error propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Sequence

from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError, SolverError
from repro.obs.clock import sleep
from repro.obs.dist import propagated_context
from repro.obs.recorder import get_recorder
from repro.obs.trace import emit_worker_detached
from repro.sim.config import SimulationConfig
from repro.sim.executors.base import Cell, SweepExecutor
from repro.sim.executors.base import run_one_seed as _run_one_seed
from repro.sim.executors.base import run_one_seed_remote as _run_one_seed_remote
from repro.sim.executors.base import seed_work as _seed_work
from repro.sim.executors.pool import ProcessPoolSweepExecutor
from repro.sim.executors.serial import SerialExecutor
from repro.sim.metrics import SolutionMetrics
from repro.sim.stats import SummaryStats, summarize

__all__ = [
    "SeedFailure",
    "RetryPolicy",
    "SeedJournal",
    "ExperimentResult",
    "ExperimentRunner",
    "run_schemes",
    "set_default_n_workers",
    "set_default_retry",
    "set_default_journal",
    "get_default_journal",
    "set_default_executor",
    "get_default_executor",
]

#: Backwards-compatible alias (cells were a private tuple type here
#: before the executors package existed).
_Cell = Cell


@dataclass(frozen=True)
class SeedFailure:
    """A seed that could not be computed within the retry budget."""

    seed: int
    attempts: int
    error: str


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`run_schemes` survives crashed or hung seed workers.

    Attributes
    ----------
    max_attempts:
        Waves a failing seed is attempted before it is recorded as a
        :class:`SeedFailure` (>= 1).
    seed_timeout_s:
        Wall-clock budget for one seed's work unit on a preemptible
        backend (pool, queue); a seed exceeding it is treated as hung
        and retried in the next wave.  ``None`` disables the timeout.
        Serial execution cannot be timed out and ignores this knob.
    backoff_s / backoff_factor:
        Sleep between retry waves: ``backoff_s * backoff_factor**k``
        after wave ``k`` (exponential backoff; gives a transiently
        sick machine room to recover).
    serial_fallback:
        Once the backend broke (worker crash or hang), run later waves
        serially in-process instead of rebuilding it — slower but
        immune to executor-level failures.
    quarantine_after:
        A cell whose failures are *fatal* — they killed or lost the
        worker (dead process, tripped timeout, expired queue lease) —
        this many times is quarantined: recorded as a
        :class:`SeedFailure` immediately and never scheduled again, so
        one poison cell cannot keep taking workers down for the rest of
        the retry budget (>= 1).
    """

    max_attempts: int = 3
    seed_timeout_s: Optional[float] = None
    backoff_s: float = 0.5
    backoff_factor: float = 2.0
    serial_fallback: bool = True
    quarantine_after: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.seed_timeout_s is not None and self.seed_timeout_s <= 0:
            raise ConfigurationError(
                f"seed_timeout_s must be positive, got {self.seed_timeout_s}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )


class SeedJournal(Protocol):
    """Checkpoint store the runner consults before and after each seed.

    Implemented by :class:`repro.experiments.persistence.SweepJournal`
    and :class:`repro.experiments.cache.ResultCache`; kept as a protocol
    here so ``repro.sim`` never imports the experiments layer at runtime.
    """

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

    ``seeds`` lists the *requested* seeds; when a resilient run gives up
    on some of them, the per-scheme sample lists cover only the seeds
    that completed and ``failures`` records the rest.

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


#: Fallback worker count used when neither ``run_schemes(n_jobs=...)`` nor
#: ``config.n_workers`` asks for parallelism (set by ``tsajs run --workers``).
_DEFAULT_N_JOBS = 1

#: Process-level defaults installed by the CLI (``tsajs run --retries /
#: --seed-timeout / --journal / --cache / --backend``); experiment
#: drivers build their own configs internally, so explicit arguments
#: cannot reach them.
_DEFAULT_RETRY: Optional[RetryPolicy] = None
_DEFAULT_JOURNAL: Optional[SeedJournal] = None
_DEFAULT_EXECUTOR: Optional[SweepExecutor] = None


def set_default_n_workers(n_workers: int) -> None:
    """Set the process-level default worker count for multi-seed runs.

    Experiment drivers build their own configs internally, so a CLI flag
    cannot reach them through ``config.n_workers``; this module-level
    default is the escape hatch.  Explicit ``n_jobs`` arguments and
    non-default ``config.n_workers`` values still take precedence.
    """
    global _DEFAULT_N_JOBS
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    _DEFAULT_N_JOBS = n_workers


def set_default_retry(retry: Optional[RetryPolicy]) -> None:
    """Install (or clear, with ``None``) the process-level retry policy."""
    global _DEFAULT_RETRY
    _DEFAULT_RETRY = retry


def set_default_journal(journal: Optional[SeedJournal]) -> None:
    """Install (or clear, with ``None``) the process-level seed journal."""
    global _DEFAULT_JOURNAL
    _DEFAULT_JOURNAL = journal


def get_default_journal() -> Optional[SeedJournal]:
    """The process-level seed journal, if one is installed."""
    return _DEFAULT_JOURNAL


def set_default_executor(executor: Optional[SweepExecutor]) -> None:
    """Install (or clear, with ``None``) the process-level sweep executor.

    Installed by ``tsajs run --backend``; like the other defaults it
    exists because experiment drivers cannot be reached by per-call
    arguments.  An explicit ``run_schemes(executor=...)`` still wins.
    """
    global _DEFAULT_EXECUTOR
    _DEFAULT_EXECUTOR = executor


def get_default_executor() -> Optional[SweepExecutor]:
    """The process-level sweep executor, if one is installed."""
    return _DEFAULT_EXECUTOR


def _run_resilient(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    cells: Sequence[Cell],
    n_jobs: int,
    policy: RetryPolicy,
    journal: Optional[SeedJournal],
    executor: Optional[SweepExecutor],
) -> "tuple[Dict[int, List[SolutionMetrics]], List[SeedFailure]]":
    """Retry loop driving waves of pending cells through an executor."""
    rec = get_recorder()
    results: Dict[int, List[SolutionMetrics]] = {}
    pending: List[Cell] = list(cells)
    last_error: Dict[int, str] = {}
    fatal_counts: Dict[int, int] = {}
    failures: List[SeedFailure] = []
    delay = policy.backoff_s

    created_here = executor is None
    if executor is None:
        if n_jobs > 1 and len(pending) > 1:
            executor = ProcessPoolSweepExecutor(n_jobs=n_jobs)
        else:
            executor = SerialExecutor()

    try:
        for attempt in range(1, policy.max_attempts + 1):
            if not pending:
                break
            if attempt > 1 and delay > 0:
                if rec.enabled:
                    rec.event(
                        "runner.backoff",
                        attempt=attempt,
                        delay_s=delay,
                        n_pending=len(pending),
                    )
                    rec.count("runner.retry_waves")
                sleep(delay)
                delay *= policy.backoff_factor
            outcome = executor.run_wave(
                config, schedulers, pending, policy.seed_timeout_s
            )
            if outcome.broken:
                if rec.enabled:
                    rec.event(
                        "runner.pool_broken",
                        attempt=attempt,
                        backend=executor.name,
                        n_failed=len(outcome.failed),
                        serial_fallback=policy.serial_fallback,
                    )
                    rec.count("runner.pool_breaks")
                if policy.serial_fallback and executor.name != "serial":
                    if rec.enabled:
                        rec.event(
                            "runner.serial_fallback",
                            attempt=attempt,
                            backend=executor.name,
                        )
                    executor.close()
                    executor = SerialExecutor()
                    created_here = True
            for done in outcome.done:
                results[done.position] = done.metrics
                if journal is not None:
                    journal.record_seed(
                        config, schedulers, done.seed, done.metrics
                    )
            next_pending: List[Cell] = []
            for failure in outcome.failed:
                last_error[failure.position] = failure.error
                if rec.enabled:
                    rec.event(
                        "runner.seed_error",
                        seed=failure.seed,
                        attempt=attempt,
                        error=failure.error,
                        fatal=failure.fatal,
                    )
                    rec.count("runner.seed_errors")
                if failure.fatal:
                    count = fatal_counts.get(failure.position, 0) + 1
                    fatal_counts[failure.position] = count
                    if count >= policy.quarantine_after:
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
            pending = next_pending
    finally:
        if created_here:
            executor.close()

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
    n_jobs: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[SeedJournal] = None,
    executor: Optional[SweepExecutor] = None,
) -> ExperimentResult:
    """Run every scheduler on every seed's scenario instance.

    Each scheduler gets RNG stream ``100 + its index`` of the seed, so
    adding or reordering schemes never perturbs the scenario draw
    (streams 0-1) and two stochastic schemes never share a chain.

    ``n_jobs`` defaults to ``config.n_workers`` (falling back to the
    process-level default set by :func:`set_default_n_workers`).  More
    than one job fans the seeds out over a process pool; results are
    bit-identical to the sequential run (each seed is an independent,
    fully-seeded work unit and the merge preserves seed order), so
    parallelism is purely a wall-clock optimisation.  Schedulers must be
    picklable in that case (all built-in ones are).

    ``retry``, ``journal`` and ``executor`` (defaulting to the
    process-level values installed by :func:`set_default_retry` /
    :func:`set_default_journal` / :func:`set_default_executor`) switch
    the runner to its resilient path: journal-cached seeds are not
    re-run, crashed or hung seeds are retried per the policy, poison
    cells that repeatedly kill workers are quarantined, and seeds that
    exhaust the budget land in ``result.failures`` instead of raising —
    unless *no* seed completed at all, which raises
    :class:`~repro.errors.SolverError`.  A completed seed's metrics are
    identical on the legacy and resilient paths and on every executor
    backend (same work unit, same seed-ordered merge), so retries,
    resumes and backend choice never change results.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if n_jobs is None:
        n_jobs = config.n_workers if config.n_workers != 1 else _DEFAULT_N_JOBS
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
    names = [s.name for s in schedulers]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheduler names: {names}")
    if retry is None:
        retry = _DEFAULT_RETRY
    if journal is None:
        journal = _DEFAULT_JOURNAL
    if executor is None:
        executor = _DEFAULT_EXECUTOR
    rec = get_recorder()

    result = ExperimentResult(config=config, seeds=seeds)
    for name in names:
        result.metrics[name] = []

    resilient = retry is not None or journal is not None or executor is not None
    with rec.span(
        "runner.run_schemes",
        n_seeds=len(seeds),
        n_jobs=n_jobs,
        schemes=names,
        resilient=resilient,
    ):
        if not resilient:
            # Legacy fail-fast path: bitwise-identical to the original
            # runner, exceptions propagate to the caller.
            if n_jobs == 1 or len(seeds) == 1:
                per_seed = [
                    _run_one_seed(config, schedulers, seed) for seed in seeds
                ]
            else:
                from concurrent.futures import ProcessPoolExecutor

                # Same trace propagation as the pool executor backend:
                # without a context, worker telemetry is lost to fork
                # safety, which schema v2 surfaces as worker_detached.
                ctx = propagated_context()
                if rec.enabled and ctx is None:
                    emit_worker_detached("pool", len(seeds))
                payload = ctx.to_payload() if ctx is not None else None
                with ProcessPoolExecutor(
                    max_workers=min(n_jobs, len(seeds))
                ) as pool:
                    per_seed = list(
                        pool.map(
                            _run_one_seed_remote,
                            [payload] * len(seeds),
                            [config] * len(seeds),
                            [schedulers] * len(seeds),
                            seeds,
                        )
                    )
            for metrics in per_seed:
                for name, entry in zip(names, metrics):
                    result.metrics[name].append(entry)
            if rec.enabled:
                result.telemetry = rec.snapshot()
            return result

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

        policy = retry if retry is not None else RetryPolicy()
        if pending:
            computed, failures = _run_resilient(
                config, schedulers, pending, n_jobs, policy, journal, executor
            )
            by_position.update(computed)
            result.failures = failures
            if not by_position:
                details = "; ".join(
                    f"seed {f.seed}: {f.error}" for f in failures[:5]
                )
                raise SolverError(
                    f"all {len(seeds)} seeds failed after "
                    f"{policy.max_attempts} attempt(s): {details}"
                )

        for position in sorted(by_position):
            for name, entry in zip(names, by_position[position]):
                result.metrics[name].append(entry)
        if rec.enabled:
            result.telemetry = rec.snapshot()
        return result


@dataclass(frozen=True)
class ExperimentRunner:
    """Reusable multi-seed runner bound to one config and scheme set.

    A thin object wrapper around :func:`run_schemes` for callers that run
    the same experiment point repeatedly (seed batches, notebooks, the
    determinism tests).  ``n_workers=None`` defers to ``config.n_workers``;
    any value keeps the deterministic seed-ordered merge, so
    ``ExperimentRunner(..., n_workers=4).run(seeds)`` returns exactly the
    same metrics as the serial run.  ``retry`` / ``journal`` /
    ``executor`` opt in to the resilient path exactly as in
    :func:`run_schemes`.
    """

    config: SimulationConfig
    schedulers: Sequence[Scheduler]
    n_workers: Optional[int] = None
    retry: Optional[RetryPolicy] = None
    journal: Optional[SeedJournal] = None
    executor: Optional[SweepExecutor] = None

    def run(self, seeds: Sequence[int]) -> ExperimentResult:
        """Run every scheduler on every seed (see :func:`run_schemes`)."""
        return run_schemes(
            self.config,
            self.schedulers,
            seeds,
            n_jobs=self.n_workers,
            retry=self.retry,
            journal=self.journal,
            executor=self.executor,
        )
