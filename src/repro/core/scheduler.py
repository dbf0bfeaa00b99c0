"""TSAJS — the joint task-scheduling scheme (Algorithm 1 + the KKT Lemma).

The scheduler composes the three pieces of the paper's method:

1. a random feasible initial decision (Alg. 1 line 5),
2. the threshold-triggered annealer searching over offloading decisions
   with Algorithm 2's neighbourhood, scoring each candidate with the
   closed-form optimal-value function ``J*(X)`` of Eq. (24) (which embeds
   the optimal resource allocation via Eq. 23),
3. the explicit KKT allocation ``F*`` (Eq. 22) recovered for the best
   decision found.

The output matches Algorithm 1's: the offloading decision ``X``, the
computing-resource allocation ``F`` and the achieved utility ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.allocation import kkt_allocation
from repro.core.annealing import AnnealingSchedule, ThresholdTriggeredAnnealer
from repro.core.batch import BatchEvaluator
from repro.core.decision import OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler, score_move
from repro.core.objective import ObjectiveEvaluator
from repro.errors import ConfigurationError
from repro.obs.clock import Stopwatch
from repro.obs.recorder import get_recorder
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


@dataclass(frozen=True)
class ScheduleResult:
    """The ``(X, F, J)`` triple produced by any scheduler, plus metadata.

    Attributes
    ----------
    decision:
        The offloading decision ``X``.
    allocation:
        The ``(U, S)`` computing-resource allocation ``F`` (KKT optimum for
        the returned decision).
    utility:
        The achieved system utility ``J*(X)`` (Eq. 24).
    evaluations:
        Objective evaluations spent (algorithm-cost metric for Fig. 8).
    wall_time_s:
        Wall-clock scheduling time in seconds.
    trace:
        Optional per-temperature best-utility trace (TSAJS only).
    """

    decision: OffloadingDecision
    allocation: np.ndarray
    utility: float
    evaluations: int
    wall_time_s: float
    trace: List[float] = field(default_factory=list)
    #: Accepted annealer moves (improving + worse); 0 for non-annealing
    #: schedulers.
    accepted_moves: int = 0
    #: Algorithm-2 phase switches (fast cooling steps); 0 for
    #: non-annealing schedulers.
    fast_coolings: int = 0


#: Density of Alg. 1 line 5's random feasible initial decision.
INITIAL_OFFLOAD_PROBABILITY = 0.5

#: Default number of moves per vectorized round on the batch path.
DEFAULT_BATCH_SIZE = 64


def resolve_use_delta(use_delta: Optional[bool], use_batch: bool) -> bool:
    """The effective ``use_delta`` setting: ``None`` means "delta unless batch".

    An explicit ``True``/``False`` keeps its meaning; ``True`` together
    with ``use_batch`` is a :class:`ConfigurationError`.
    """
    if use_delta and use_batch:
        raise ConfigurationError(
            "use_delta and use_batch are mutually exclusive evaluation "
            "modes (both are bitwise equal to the scalar path)"
        )
    return not use_batch if use_delta is None else use_delta


def check_batch_size(batch_size: int) -> None:
    """Reject a batch width below one (``ConfigurationError``)."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")


@runtime_checkable
class Scheduler(Protocol):
    """Common interface implemented by TSAJS and every baseline."""

    name: str

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Solve the JTORA problem for one scenario instance."""
        ...  # pragma: no cover - protocol definition


class TsajsScheduler:
    """The paper's TSAJS heuristic (threshold-triggered SA + KKT).

    Parameters
    ----------
    schedule:
        Annealing schedule; defaults to Algorithm 1's constants, with the
        initial temperature resolving to the sub-channel count ``N``.
    neighborhood:
        Move generator; defaults to Algorithm 2's probabilities.
    record_trace:
        Keep a per-temperature best-utility trace in the result.
    use_delta:
        Score candidates with the incremental
        :class:`~repro.core.delta.DeltaEvaluator` instead of re-running
        the full ``O(U·S·N)`` evaluation per move.  ``None`` (the
        default) means "delta unless ``use_batch``"; ``False`` selects the
        scalar :class:`~repro.core.objective.ObjectiveEvaluator`, the
        oracle.  The delta path is bit-for-bit equal to the full path, so
        with a fixed RNG every setting produces the exact same decision,
        allocation and utility — this is purely a wall-clock choice.
    use_batch, batch_size:
        Score whole speculative neighbourhoods with the vectorized
        :class:`~repro.core.batch.BatchEvaluator` (one NumPy shot per
        up-to-``batch_size`` candidate moves).  Like the delta path this
        is bitwise equal to the scalar path — identical accepted-move
        chain, trajectory and RNG stream — and purely a wall-clock
        optimisation; mutually exclusive with ``use_delta=True``.
    evaluator_factory:
        Builds the objective evaluator for a scenario; override to plug in
        extended objectives (e.g. the downlink-aware evaluator).  Outside
        batch mode the annealer scores moves through the evaluator's
        ``evaluate_move``, which every
        :class:`~repro.core.objective.ObjectiveEvaluator` provides.
    """

    name = "TSAJS"

    def __init__(
        self,
        schedule: Optional[AnnealingSchedule] = None,
        neighborhood: Optional[NeighborhoodSampler] = None,
        record_trace: bool = False,
        use_delta: Optional[bool] = None,
        use_batch: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
        evaluator_factory: Optional[
            Callable[["Scenario"], ObjectiveEvaluator]
        ] = None,
    ) -> None:
        use_delta = resolve_use_delta(use_delta, use_batch)
        check_batch_size(batch_size)
        self.schedule_params = schedule if schedule is not None else AnnealingSchedule()
        self.neighborhood = (
            neighborhood if neighborhood is not None else NeighborhoodSampler()
        )
        self.record_trace = record_trace
        self.use_delta = use_delta
        self.use_batch = use_batch
        self.batch_size = batch_size
        if evaluator_factory is None:
            if use_batch:
                evaluator_factory = BatchEvaluator
            elif use_delta:
                evaluator_factory = DeltaEvaluator
            else:
                evaluator_factory = ObjectiveEvaluator
        self.evaluator_factory = evaluator_factory

    def schedule(
        self,
        scenario: "Scenario",
        rng: Optional[np.random.Generator] = None,
        *,
        initial: Optional[OffloadingDecision] = None,
    ) -> ScheduleResult:
        """Run Algorithm 1 on ``scenario`` and return ``(X, F, J)``.

        ``initial`` warm-starts the anneal from a given feasible decision
        instead of Alg. 1 line 5's random draw (used by the graceful
        degradation policy to repair an existing plan); the annealer's
        best-tracking starts at the initial state, so the result is never
        worse than the warm start itself.
        """
        # Imported here: repro.sim imports this module at package-init
        # time, so a top-level import would be circular.
        from repro.sim.rng import make_rng

        rng = rng if rng is not None else make_rng()
        rec = get_recorder()
        watch = Stopwatch()
        with rec.span(
            "scheduler.schedule",
            scheme=self.name,
            n_users=scenario.n_users,
            n_servers=scenario.n_servers,
            n_subbands=scenario.n_subbands,
            use_delta=self.use_delta,
            use_batch=self.use_batch,
            batch_size=self.batch_size if self.use_batch else 0,
            warm_start=initial is not None,
        ):
            evaluator = self.evaluator_factory(scenario)

            if scenario.n_users == 0:
                # Degenerate instance: the only decision is the empty one.
                empty = OffloadingDecision.all_local(
                    0, scenario.n_servers, scenario.n_subbands
                )
                return ScheduleResult(
                    decision=empty,
                    allocation=kkt_allocation(scenario, empty),
                    utility=evaluator.evaluate(empty),
                    evaluations=evaluator.evaluations,
                    wall_time_s=watch.elapsed(),
                )

            if initial is None:
                initial = OffloadingDecision.random_feasible(
                    scenario.n_users,
                    scenario.n_servers,
                    scenario.n_subbands,
                    rng,
                    offload_probability=INITIAL_OFFLOAD_PROBABILITY,
                )
            else:
                initial = initial.copy()
            annealer = ThresholdTriggeredAnnealer(self.schedule_params)
            # Outside batch mode every evaluator scores moves in place
            # through ``evaluate_move``; ``use_delta`` only picks the
            # evaluator class.
            scoring: Dict[str, Any]
            if self.use_batch:
                if not hasattr(evaluator, "evaluate_batch"):
                    raise ConfigurationError(
                        "use_batch=True needs an evaluator with evaluate_batch "
                        f"(got {type(evaluator).__name__}); use BatchEvaluator "
                        "or a subclass as the evaluator_factory"
                    )
                scoring = dict(
                    propose_move=self.neighborhood.propose_move,
                    batch_objective=evaluator.evaluate_batch,
                    batch_commit=evaluator.commit,
                    batch_size=self.batch_size,
                )
            else:
                scoring = dict(
                    draw_move=self.neighborhood.move,
                    move_objective=partial(score_move, evaluator),
                    apply_move=OffloadingDecision.with_move,
                )
            outcome = annealer.run(
                initial_state=initial,
                objective=evaluator.evaluate,
                propose=self.neighborhood.propose,
                rng=rng,
                default_initial_temperature=float(scenario.n_subbands),
                record_trace=self.record_trace,
                recorder=rec,
                **scoring,
            )

            best = outcome.best_state
            # An empty offload set scores 0; never return a negative-utility
            # plan when staying local is available (users only offload when
            # the benefit is positive, Sec. III-A-4).
            if outcome.best_value < 0.0:
                best = OffloadingDecision.all_local(
                    scenario.n_users, scenario.n_servers, scenario.n_subbands
                )
            utility = evaluator.evaluate(best)
            allocation = kkt_allocation(scenario, best)
            if rec.enabled:
                fast_evals = int(getattr(evaluator, "fast_evals", 0))
                batch_evals = int(getattr(evaluator, "batch_evals", 0))
                rec.event(
                    "scheduler.result",
                    scheme=self.name,
                    utility=float(utility),
                    evaluations=evaluator.evaluations,
                    fast_evals=fast_evals,
                    batch_evals=batch_evals,
                    batch_rounds=int(getattr(evaluator, "batch_rounds", 0)),
                    batch_commits=int(getattr(evaluator, "batch_commits", 0)),
                    full_evals=evaluator.evaluations - fast_evals - batch_evals,
                    accepted_moves=outcome.accepted_moves,
                    fast_coolings=outcome.fast_coolings,
                    n_offloaded=int(best.n_offloaded()),
                )
            return ScheduleResult(
                decision=best,
                allocation=allocation,
                utility=utility,
                evaluations=evaluator.evaluations,
                wall_time_s=watch.elapsed(),
                trace=list(outcome.best_trace),
                accepted_moves=outcome.accepted_moves,
                fast_coolings=outcome.fast_coolings,
            )
