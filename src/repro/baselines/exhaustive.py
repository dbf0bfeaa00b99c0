"""Exhaustive (brute-force) optimal search.

Enumerates every feasible offloading decision — each user is either local
or holds one of the free (server, sub-band) slots — by depth-first search
and returns the utility-maximising one.  The search space contains up to
``(S*N + 1)^U`` candidates before slot-conflict pruning, so the method is
"limited to a confined network setting" (Sec. V): the Fig. 3 configuration
of U = 6, S = 4, N = 2 enumerates roughly 9.3e4 feasible decisions.

The DFS mutates a single pair of assignment vectors in place, evaluating
the closed-form objective only at the leaves; feasibility is maintained by
a free-slot bookkeeping array, so no infeasible branch is ever expanded.
Each leaf hands the default :class:`~repro.core.delta.DeltaEvaluator` the
users set or reset since the previous leaf, so consecutive leaves cost
only their few changed users; ``evaluator_factory=ObjectiveEvaluator`` is
the bit-for-bit equal oracle.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.obs.clock import Stopwatch
from repro.core.allocation import kkt_allocation
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult
from repro.errors import ConfigurationError, SolverError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


class ExhaustiveScheduler:
    """Optimal JTORA solver by exhaustive enumeration.

    Parameters
    ----------
    max_leaves:
        Safety cap on the number of evaluated leaf decisions; exceeding it
        raises :class:`SolverError` rather than hanging for hours.
    """

    name = "Exhaustive"

    def __init__(
        self,
        max_leaves: int = 5_000_000,
        evaluator_factory: Callable[["Scenario"], ObjectiveEvaluator] = DeltaEvaluator,
    ) -> None:
        if max_leaves < 1:
            raise ConfigurationError(f"max_leaves must be >= 1, got {max_leaves}")
        self.max_leaves = max_leaves
        self.evaluator_factory = evaluator_factory

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Enumerate all feasible decisions; return the utility maximiser.

        ``rng`` is accepted for interface compatibility and ignored — the
        search is deterministic.
        """
        del rng
        watch = Stopwatch()
        evaluator = self.evaluator_factory(scenario)
        n_users = scenario.n_users
        n_servers = scenario.n_servers
        n_channels = scenario.n_subbands

        # The DFS mutates the leaf's own vectors in place.
        leaf = OffloadingDecision.all_local(n_users, n_servers, n_channels)
        server, channel = leaf.server, leaf.channel
        slot_free = np.ones((n_servers, n_channels), dtype=bool)

        best_value = -np.inf
        best_server = server.copy()
        best_channel = channel.copy()
        leaves = 0
        # Users set or reset since the last leaf: a superset of those whose
        # assignment differs from the previously evaluated leaf.
        dirty: List[int] = []

        def dfs(user: int) -> None:
            nonlocal best_value, best_server, best_channel, leaves
            if user == n_users:
                leaves += 1
                if leaves > self.max_leaves:
                    raise SolverError(
                        f"exhaustive search exceeded max_leaves={self.max_leaves}; "
                        "use a smaller network or a heuristic scheduler"
                    )
                value = evaluator.evaluate_move(leaf, dirty)
                dirty.clear()
                if value > best_value:
                    best_value = value
                    best_server = server.copy()
                    best_channel = channel.copy()
                return
            # Option 1: execute locally.
            dfs(user + 1)
            # Option 2: every currently-free slot.
            for s in range(n_servers):
                for j in range(n_channels):
                    if not slot_free[s, j]:
                        continue
                    slot_free[s, j] = False
                    server[user], channel[user] = s, j
                    dirty.append(user)
                    dfs(user + 1)
                    server[user], channel[user] = LOCAL, LOCAL
                    dirty.append(user)
                    slot_free[s, j] = True

        dfs(0)

        decision = OffloadingDecision(
            n_users, n_servers, n_channels, best_server, best_channel
        )
        allocation = kkt_allocation(scenario, decision)
        return ScheduleResult(
            decision=decision,
            allocation=allocation,
            utility=float(best_value),
            evaluations=evaluator.evaluations,
            wall_time_s=watch.elapsed(),
        )
