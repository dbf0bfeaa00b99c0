"""hJTORA — the heuristic of Tran & Pompili (ref. [37] of the paper).

The paper uses hJTORA as its strongest polynomial-time baseline: "a novel
meta-heuristic approach ... capable of identifying a more favorable task
offloading strategy with reduced complexity", which nevertheless "cannot
guarantee the optimal solution, and its execution may still be
time-consuming" as the instance grows.

The published algorithm performs iterative *steepest-ascent* improvement
over single-user adjustments: starting from all-local, every round scores
every possible reassignment of every user — to each (server, sub-band)
slot that is free, or back to local — under the closed-form optimal-value
function ``J*(X)``, applies the single best utility-improving move, and
stops when no move improves.  Each round costs ``O(U * S * N)`` objective
evaluations, which is why its measured runtime climbs much faster with the
sub-channel count than Greedy/LocalSearch (Fig. 8).

Every candidate differs from the incumbent in one user, so the default
:class:`~repro.core.delta.DeltaEvaluator` scores it from exact touched
sets: it recomputes only the users sharing the touched sub-bands (plus
its final ``O(U)`` reductions) instead of the full link statistics;
``evaluator_factory=ObjectiveEvaluator`` is the bit-for-bit equal oracle.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.obs.clock import Stopwatch
from repro.core.allocation import kkt_allocation
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult
from repro.errors import ConfigurationError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


class HJtoraScheduler:
    """Steepest-ascent single-user improvement (hJTORA).

    Parameters
    ----------
    max_rounds:
        Upper bound on improvement rounds (each applies one move).  The
        search converges naturally well before this on paper-scale inputs;
        the bound guards against pathological cycling under floating-point
        ties.
    """

    name = "hJTORA"

    def __init__(
        self,
        max_rounds: int = 10_000,
        evaluator_factory: Callable[["Scenario"], ObjectiveEvaluator] = DeltaEvaluator,
    ) -> None:
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.max_rounds = max_rounds
        self.evaluator_factory = evaluator_factory

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Run hJTORA on ``scenario``; deterministic, ``rng`` ignored."""
        del rng
        watch = Stopwatch()
        evaluator = self.evaluator_factory(scenario)
        n_users = scenario.n_users
        n_servers = scenario.n_servers
        n_channels = scenario.n_subbands

        decision = OffloadingDecision.all_local(n_users, n_servers, n_channels)
        current_value = evaluator.evaluate(decision)

        server = decision.server
        channel = decision.channel

        # Candidates are scored in place: ``server``/``channel`` are the
        # decision's own vectors.  ``last`` holds the users whose
        # assignment may differ between the decision and the last scored
        # candidate: the previous user's slot is restored before the next
        # user is tried, and a round's move changes one more.  Each user's
        # first candidate passes them along with its own index; its later
        # candidates touch only itself.
        last: Tuple[int, ...] = ()
        for _ in range(self.max_rounds):
            best_delta = 0.0
            best_move = None  # (user, server, channel) with LOCAL for revoke
            for u in range(n_users):
                old_s, old_j = int(server[u]), int(channel[u])
                touched = (u,) + last
                # Candidate: revoke the offload.
                if old_s != LOCAL:
                    server[u], channel[u] = LOCAL, LOCAL
                    delta = evaluator.evaluate_move(decision, touched) - current_value
                    server[u], channel[u] = old_s, old_j
                    touched = last = (u,)
                    if delta > best_delta:
                        best_delta, best_move = delta, (u, LOCAL, LOCAL)
                # Candidates: move to every free slot.
                for s in range(n_servers):
                    for j in range(n_channels):
                        if (s, j) == (old_s, old_j):
                            continue
                        if decision.occupant_of(s, j) != LOCAL:
                            continue
                        server[u], channel[u] = s, j
                        delta = evaluator.evaluate_move(decision, touched) - current_value
                        server[u], channel[u] = old_s, old_j
                        touched = last = (u,)
                        if delta > best_delta:
                            best_delta, best_move = delta, (u, s, j)
            if best_move is None:
                break
            u, s, j = best_move
            if s == LOCAL:
                decision.set_local(u)
            else:
                decision.assign(u, s, j)
            last += (u,)
            current_value += best_delta

        utility = evaluator.evaluate(decision)
        allocation = kkt_allocation(scenario, decision)
        return ScheduleResult(
            decision=decision,
            allocation=allocation,
            utility=utility,
            evaluations=evaluator.evaluations,
            wall_time_s=watch.elapsed(),
        )
