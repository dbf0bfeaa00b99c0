"""Graceful degradation of a scheduled plan under infrastructure faults.

The system model makes local execution always feasible, so a failed
``(server, sub-band)`` slot never strands a user: the worst case is
falling back to the local time/energy the utility is measured against.
This module turns that escape hatch into two explicit policies applied
*after* a plan was computed for the fault-free system:

* ``"local_fallback"`` — every user whose slot died (and every churned
  user) executes locally; the surviving assignments keep their slots and
  the KKT allocation (Eq. 22) is recomputed for the survivors.
* ``"reschedule"`` — start from the fallback plan and repair it with a
  warm-started TTSA (Alg. 1) whose neighbourhood is restricted to the
  surviving slots, so displaced users can re-enter service on healthy
  servers instead of staying local.

The module depends only on ``repro.core``; fault sets arrive duck-typed
from :mod:`repro.faults` (a type-only import), keeping the core package
free of simulation-layer imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.allocation import kkt_allocation
from repro.core.annealing import AnnealingSchedule
from repro.core.decision import LOCAL, Move, OffloadingDecision
from repro.core.neighborhood import (
    NeighborhoodSampler,
    displacing_move,
    swap_move,
)
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult, TsajsScheduler
from repro.errors import ConfigurationError
from repro.obs.clock import Stopwatch
from repro.obs.recorder import get_recorder

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.models import FaultSet
    from repro.sim.rng import DirectDraws
    from repro.sim.scenario import Scenario

#: The degradation policies :func:`degrade` understands.
DEGRADATION_POLICIES: Tuple[str, ...] = ("local_fallback", "reschedule")


@dataclass(frozen=True)
class DegradedPlan:
    """Outcome of applying a degradation policy to a faulted plan.

    Attributes
    ----------
    result:
        The repaired ``(X, F, J)`` triple, feasible on the faulted system.
    planned_utility:
        Utility of the original (fault-free) plan.
    degraded_utility:
        Utility actually achieved on the faulted system.
    utility_retention:
        ``degraded_utility / planned_utility`` (1.0 for non-positive
        plans, where local execution already matched the optimum).
    n_fallback:
        Users forced from a dead slot back to local execution.
    n_churned:
        Users whose task request was withdrawn before scheduling closed.
    reschedule_wall_time_s:
        Wall-clock seconds spent repairing the plan.
    """

    result: ScheduleResult
    planned_utility: float
    degraded_utility: float
    utility_retention: float
    n_fallback: int
    n_churned: int
    reschedule_wall_time_s: float


def fallback_decision(
    decision: OffloadingDecision, faults: "FaultSet"
) -> Tuple[OffloadingDecision, int, int]:
    """Force users off dead slots (and churned users) to local execution.

    Returns ``(repaired_decision, n_fallback, n_churned)``: the repaired
    copy, the number of users whose slot died, and the number of churned
    users present in the decision.  Churned users count as churned even
    when their slot also died (churn wins the tie; their request no
    longer exists, so they never compete for surviving slots).
    """
    repaired = decision.copy()
    n_fallback = 0
    n_churned = 0
    for user in range(repaired.n_users):
        churned = user in faults.churned_users
        if churned:
            n_churned += 1
        server = int(repaired.server[user])
        if server == LOCAL:
            continue
        band = int(repaired.channel[user])
        if churned:
            repaired.set_local(user)
        elif faults.slot_is_dead(server, band):
            repaired.set_local(user)
            n_fallback += 1
    return repaired, n_fallback, n_churned


@dataclass(frozen=True)
class SlotRestrictedSampler(NeighborhoodSampler):
    """Algorithm 2 restricted to the surviving ``(server, band)`` slots.

    ``alive_channels[s]`` lists the sub-bands of server ``s`` still able
    to carry traffic (empty for a failed server); ``pinned_users`` are
    users that must stay local (churned arrivals).  Every move keeps the
    chain inside the surviving slot set: dead slots are never proposed,
    pinned users are never offloaded nor swapped with, and moves with no
    surviving target degenerate to the no-op proposal (an empty touched
    set), exactly like the base sampler's own impossible moves.
    """

    alive_channels: Tuple[Tuple[int, ...], ...] = ()
    pinned_users: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        for server, channels in enumerate(self.alive_channels):
            for band in channels:
                if band < 0:
                    raise ConfigurationError(
                        f"alive channel {band} of server {server} must be >= 0"
                    )

    def _alive_servers(self) -> List[int]:
        return [
            server
            for server, channels in enumerate(self.alive_channels)
            if channels
        ]

    def _dispatch(
        self,
        decision: OffloadingDecision,
        user: int,
        rand: float,
        draws: "DirectDraws",
    ) -> Move:
        if user in self.pinned_users:
            return []
        return super()._dispatch(decision, user, rand, draws)

    def _random_slot_on(
        self, decision: OffloadingDecision, server: int, draws: "DirectDraws"
    ) -> int:
        alive = self.alive_channels[server]
        if not alive:
            raise ConfigurationError(
                f"server {server} has no surviving sub-bands; the move "
                "dispatch must not target it"
            )
        free = [
            band for band in decision.free_channels(server) if band in alive
        ]
        if free:
            return free[draws.integers(len(free))]
        return alive[draws.integers(len(alive))]

    def _move_server(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        current = decision.server.item(user)
        candidates = [s for s in self._alive_servers() if s != current]
        if not candidates:
            return []
        target = candidates[draws.integers(len(candidates))]
        channel = self._random_slot_on(decision, target, draws)
        return displacing_move(decision, user, target, channel)

    def _move_channel(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        current_server = decision.server.item(user)
        if current_server == LOCAL:
            candidates = self._alive_servers()
            if not candidates:
                return []
            server = candidates[draws.integers(len(candidates))]
            channel = self._random_slot_on(decision, server, draws)
            return displacing_move(decision, user, server, channel)
        current_channel = decision.channel.item(user)
        alive = self.alive_channels[current_server]
        free = [
            band
            for band in decision.free_channels(current_server)
            if band != current_channel and band in alive
        ]
        if free:
            channel = free[draws.integers(len(free))]
        else:
            others = [band for band in alive if band != current_channel]
            if not others:
                return []
            channel = others[draws.integers(len(others))]
        return displacing_move(decision, user, current_server, channel)

    def _swap(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        others = [
            other
            for other in range(decision.n_users)
            if other != user and other not in self.pinned_users
        ]
        if not others:
            return []
        other = others[draws.integers(len(others))]
        return swap_move(decision, user, other)

    def _toggle(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        if decision.is_offloaded(user):
            old = (decision.server.item(user), decision.channel.item(user))
            return [(user, LOCAL, LOCAL, *old)]
        candidates = self._alive_servers()
        if not candidates:
            return []
        server = candidates[draws.integers(len(candidates))]
        channel = self._random_slot_on(decision, server, draws)
        return displacing_move(decision, user, server, channel)


def restricted_sampler_for(
    faults: "FaultSet",
    base: Optional[NeighborhoodSampler] = None,
) -> SlotRestrictedSampler:
    """Build a :class:`SlotRestrictedSampler` matching a fault set."""
    base = base if base is not None else NeighborhoodSampler()
    return SlotRestrictedSampler(
        toggle_below=base.toggle_below,
        swap_below=base.swap_below,
        server_move_below=base.server_move_below,
        alive_channels=faults.alive_channels(),
        pinned_users=tuple(sorted(faults.churned_users)),
    )


def _enforce_feasibility(
    decision: OffloadingDecision, faults: "FaultSet"
) -> Tuple[OffloadingDecision, bool]:
    """Force any user still on a dead slot (or churned) local (post-check)."""
    repaired = decision
    changed = False
    for user, server, band in list(decision.iter_assignments()):
        if user in faults.churned_users or faults.slot_is_dead(server, band):
            if not changed:
                repaired = decision.copy()
                changed = True
            repaired.set_local(user)
    return repaired, changed


def degrade(
    scenario: "Scenario",
    planned: ScheduleResult,
    faults: "FaultSet",
    policy: str = "local_fallback",
    *,
    rng: Optional[np.random.Generator] = None,
    schedule: Optional[AnnealingSchedule] = None,
) -> DegradedPlan:
    """Repair a fault-free plan for the faulted system and score it.

    Parameters
    ----------
    scenario:
        The **faulted** scenario (after
        :func:`repro.faults.inject.apply_faults`); its evaluator prices
        the degraded capacities and dead links.
    planned:
        The schedule computed for the fault-free system.
    faults:
        The realised fault set (dead slots, degraded servers, churn).
    policy:
        One of :data:`DEGRADATION_POLICIES`.
    rng:
        Chain for the repair anneal (``"reschedule"`` only); keep it on
        its own seed stream for reproducibility.
    schedule:
        Annealing schedule for the repair (defaults to Alg. 1 constants).
        Repair moves are scored on the default delta path.

    The repair never returns a worse utility than the pure fallback
    plan: the annealer's best-tracking starts at its warm-start state.
    """
    if policy not in DEGRADATION_POLICIES:
        raise ConfigurationError(
            f"unknown degradation policy {policy!r}; choose one of "
            f"{', '.join(DEGRADATION_POLICIES)}"
        )
    rec = get_recorder()
    watch = Stopwatch()
    with rec.span("degrade.run", policy=policy):
        repaired, n_fallback, n_churned = fallback_decision(
            planned.decision, faults
        )
        if rec.enabled:
            rec.event(
                "degrade.fallback",
                policy=policy,
                n_fallback=n_fallback,
                n_churned=n_churned,
            )
        evaluator = ObjectiveEvaluator(scenario)

        if policy == "reschedule":
            sampler = restricted_sampler_for(faults)
            scheduler = TsajsScheduler(schedule=schedule, neighborhood=sampler)
            outcome = scheduler.schedule(scenario, rng, initial=repaired)
            final, changed = _enforce_feasibility(outcome.decision, faults)
            if changed:
                outcome = ScheduleResult(
                    decision=final,
                    allocation=kkt_allocation(scenario, final),
                    utility=evaluator.evaluate(final),
                    evaluations=outcome.evaluations + evaluator.evaluations,
                    wall_time_s=outcome.wall_time_s,
                    trace=outcome.trace,
                    accepted_moves=outcome.accepted_moves,
                )
            degraded_utility = outcome.utility
            evaluations = outcome.evaluations
            accepted = outcome.accepted_moves
            final_decision = outcome.decision
            allocation = outcome.allocation
        else:
            degraded_utility = evaluator.evaluate(repaired)
            if degraded_utility < 0.0:
                # A negative plan is dominated by full local execution,
                # which is always available (Sec. III-A); take the
                # zero-utility plan.
                repaired = OffloadingDecision.all_local(
                    scenario.n_users, scenario.n_servers, scenario.n_subbands
                )
                degraded_utility = evaluator.evaluate(repaired)
            evaluations = evaluator.evaluations
            accepted = 0
            final_decision = repaired
            allocation = kkt_allocation(scenario, final_decision)

        elapsed = watch.elapsed()
        if planned.utility > 0.0:
            retention = degraded_utility / planned.utility
        else:
            retention = 1.0
        if rec.enabled:
            rec.event(
                "degrade.result",
                policy=policy,
                degraded_utility=float(degraded_utility),
                utility_retention=float(retention),
                n_fallback=n_fallback,
                n_churned=n_churned,
                evaluations=evaluations,
            )
    result = ScheduleResult(
        decision=final_decision,
        allocation=allocation,
        utility=degraded_utility,
        evaluations=evaluations,
        wall_time_s=elapsed,
        accepted_moves=accepted,
    )
    return DegradedPlan(
        result=result,
        planned_utility=planned.utility,
        degraded_utility=degraded_utility,
        utility_retention=retention,
        n_fallback=n_fallback,
        n_churned=n_churned,
        reschedule_wall_time_s=elapsed,
    )
