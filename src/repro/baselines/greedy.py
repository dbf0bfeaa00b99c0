"""Greedy offloading — strongest-signal-first slot assignment.

The paper's Greedy baseline: "All permissible tasks, up to the limit set
by the base stations, are offloaded.  Users are assigned to sub-bands in a
prioritized manner, favoring those with the strongest signal strength."

Users are ranked by their best channel gain; each in turn takes the free
(server, sub-band) slot where its gain is strongest.  An offload is
"permissible" only when it benefits the system (Sec. III-A-4 requires a
positive offloading gain), so a placement that lowers the utility is
reverted and the user stays local.  Because the slot choice is fixed by
signal strength alone — never revisited, never rebalanced across servers —
the scheme trails TSAJS by a few percent everywhere (Fig. 3) and falls
behind further once users contend for slots (Fig. 4).

Decisions are scored on the default
:class:`~repro.core.delta.DeltaEvaluator` through its vector-diff path;
``evaluator_factory=ObjectiveEvaluator`` is the bit-for-bit equal oracle.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.obs.clock import Stopwatch
from repro.core.allocation import kkt_allocation
from repro.core.decision import OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


class GreedyScheduler:
    """Offload-everything, strongest-signal-first baseline."""

    name = "Greedy"

    def __init__(
        self,
        evaluator_factory: Callable[["Scenario"], ObjectiveEvaluator] = DeltaEvaluator,
    ) -> None:
        self.evaluator_factory = evaluator_factory

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Assign users to slots by descending signal strength."""
        del rng
        watch = Stopwatch()
        evaluator = self.evaluator_factory(scenario)
        decision = OffloadingDecision.all_local(
            scenario.n_users, scenario.n_servers, scenario.n_subbands
        )

        # Rank users by the strongest gain they see anywhere.
        best_gain = scenario.gains.reshape(scenario.n_users, -1).max(axis=1) if scenario.n_users else np.zeros(0)
        order = np.argsort(-best_gain)

        current_value = evaluator.evaluate(decision)
        for u in order:
            # Pick the strongest free slot for this user.  argmax returns
            # the first maximum in (server, sub-band) order, so ties go to
            # the lowest server, then the lowest sub-band.
            masked = np.where(decision.free_slot_mask(), scenario.gains[u], -np.inf)
            flat = int(np.argmax(masked))
            if not masked.flat[flat] > -np.inf:
                break  # every slot taken; remaining users stay local
            server, channel = divmod(flat, scenario.n_subbands)
            decision.assign(int(u), server, channel)
            # "Permissible" offloads only (Sec. III-A-4): an offload that
            # lowers the system utility is not beneficial — revert it and
            # keep this user local.
            candidate_value = evaluator.evaluate(decision)
            if candidate_value > current_value:
                current_value = candidate_value
            else:
                decision.set_local(int(u))

        utility = evaluator.evaluate(decision)
        allocation = kkt_allocation(scenario, decision)
        return ScheduleResult(
            decision=decision,
            allocation=allocation,
            utility=utility,
            evaluations=evaluator.evaluations,
            wall_time_s=watch.elapsed(),
        )
