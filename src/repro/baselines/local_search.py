"""LocalSearch — first-improvement hill climbing.

The paper's LocalSearch baseline: "Continuously search for neighboring
states of the current state when users offload tasks, and accept better
neighboring states to gradually improve the quality of the solution.  The
search stops when the algorithm converges or reaches the maximum number of
iterations."

It reuses Algorithm 2's neighbourhood but, unlike TSAJS, never accepts a
worsening move — so it converges quickly to the nearest local optimum and
its runtime stays flat as the search space grows (Fig. 8), at the price of
a lower utility (Fig. 3).

Like the annealer it draws each proposal as a move from the incumbent,
scores it in place on the default :class:`~repro.core.delta.DeltaEvaluator`
from the move's touched set plus the last rejected move's, and builds a
new decision only for an improving move; ``evaluator_factory=
ObjectiveEvaluator`` is the bit-for-bit equal oracle and draws the same
RNG stream.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.obs.clock import Stopwatch
from repro.core.allocation import kkt_allocation
from repro.core.decision import Move, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler, score_move
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult
from repro.errors import ConfigurationError
from repro.sim.rng import DirectDraws, make_rng
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario

#: Density of the random feasible initial solution: all-local.  A
#: first-improvement climber cannot escape the deeply negative region a
#: dense random start lands in on large sub-channel grids, whereas
#: growing the offload set move by move matches the baseline's intended
#: "gradually improve" behaviour.
INITIAL_OFFLOAD_PROBABILITY = 0.0


class LocalSearchScheduler:
    """Hill climbing over Algorithm 2's neighbourhood.

    Parameters
    ----------
    max_iterations:
        Hard iteration budget.
    patience:
        Stop after this many consecutive non-improving proposals (the
        "converged" criterion).
    """

    name = "LocalSearch"

    def __init__(
        self,
        max_iterations: int = 5000,
        patience: int = 300,
        neighborhood: Optional[NeighborhoodSampler] = None,
        evaluator_factory: Callable[["Scenario"], ObjectiveEvaluator] = DeltaEvaluator,
    ) -> None:
        if max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.max_iterations = max_iterations
        self.patience = patience
        self.neighborhood = (
            neighborhood if neighborhood is not None else NeighborhoodSampler()
        )
        self.evaluator_factory = evaluator_factory

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """First-improvement hill climbing from a random feasible start."""
        rng = rng if rng is not None else make_rng()
        watch = Stopwatch()
        evaluator = self.evaluator_factory(scenario)

        if scenario.n_users == 0:
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

        current = OffloadingDecision.random_feasible(
            scenario.n_users,
            scenario.n_servers,
            scenario.n_subbands,
            rng,
            offload_probability=INITIAL_OFFLOAD_PROBABILITY,
        )
        current_value = evaluator.evaluate(current)
        stale = 0
        # The annealer's carry protocol: a rejected candidate stays in the
        # evaluator's cache, so the next move also touches its users.
        rejected: Move = []
        with DirectDraws(rng) as draws:
            for _ in range(self.max_iterations):
                move = self.neighborhood.move(current, draws)
                candidate_value = score_move(evaluator, current, move, rejected)
                if candidate_value > current_value:
                    current, current_value = current.with_move(move), candidate_value
                    stale = 0
                    rejected = []
                else:
                    rejected = move
                    stale += 1
                    if stale >= self.patience:
                        break

        # Prefer all-local over a negative-utility plan (Sec. III-A-4).
        if current_value < 0.0:
            current = OffloadingDecision.all_local(
                scenario.n_users, scenario.n_servers, scenario.n_subbands
            )
            current_value = evaluator.evaluate(current)

        allocation = kkt_allocation(scenario, current)
        return ScheduleResult(
            decision=current,
            allocation=allocation,
            utility=current_value,
            evaluations=evaluator.evaluations,
            wall_time_s=watch.elapsed(),
        )
