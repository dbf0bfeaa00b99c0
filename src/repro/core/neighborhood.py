"""Neighborhood move generator — Algorithm 2 (GetNeighborhood).

Given the incumbent decision ``X_old``, a random target user ``u`` is
picked and one of four moves is applied, selected by a uniform draw
``rand`` exactly as in the paper's pseudocode:

* ``rand > 0.2`` and ``rand < 0.75`` — **server move**: reassign ``u`` to a
  different server, preferring one of its free sub-channels and otherwise
  taking a random (occupied) one.
* ``rand >= 0.75`` (and more than one sub-channel exists) — **channel
  move**: reassign ``u`` to a different sub-channel of its current server.
* ``0.05 < rand <= 0.2`` — **swap**: exchange the (server, sub-band)
  assignments of ``u`` and another random user.
* ``rand <= 0.05`` — **toggle**: flip ``u`` between offloaded and local.

When a random occupied sub-channel is taken, the previous occupant is
displaced to local execution so the proposal stays feasible (one user per
slot, constraint 12d).  A target user that is currently local is handled
by assigning it a slot in the move cases; the pseudocode's line 4 assumes
an offloaded target, but the initial solution may leave users local, so
this extension keeps the chain irreducible over the whole feasible set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.decision import LOCAL, OffloadingDecision
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NeighborhoodSampler:
    """Algorithm 2 with configurable branch thresholds.

    The defaults (0.05 / 0.20 / 0.75) are the paper's constants; the
    ablation experiments sweep them.
    """

    toggle_below: float = 0.05
    swap_below: float = 0.20
    server_move_below: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 <= self.toggle_below <= self.swap_below <= 1.0:
            raise ConfigurationError(
                "need 0 <= toggle_below <= swap_below <= 1, got "
                f"{self.toggle_below}, {self.swap_below}"
            )
        if not self.swap_below <= self.server_move_below <= 1.0:
            raise ConfigurationError(
                "need swap_below <= server_move_below <= 1, got "
                f"{self.swap_below}, {self.server_move_below}"
            )

    def propose(
        self, decision: OffloadingDecision, rng: np.random.Generator
    ) -> OffloadingDecision:
        """One neighbour ``X_new`` of ``X_old`` per Algorithm 2 (input not mutated)."""
        return self.propose_move(decision, rng)[0]

    def propose_move(
        self, decision: OffloadingDecision, rng: np.random.Generator
    ) -> Tuple[OffloadingDecision, Tuple[int, ...]]:
        """One neighbour (Algorithm 2) plus the *touched set* describing the move.

        The touched set covers every user whose assignment may differ
        between ``X_old`` and ``X_new`` (the target user and, for moves
        landing on an occupied slot, the displaced occupant) — exactly
        what :meth:`~repro.core.objective.ObjectiveEvaluator.evaluate_move`
        needs to update incrementally.  ``propose`` draws from the same
        RNG stream, so the two entry points produce identical chains.
        """
        new = decision.copy()
        user = int(rng.integers(new.n_users))
        rand = float(rng.random())
        return new, self._apply_move(new, user, rand, rng)

    def _apply_move(
        self,
        new: OffloadingDecision,
        user: int,
        rand: float,
        rng: np.random.Generator,
    ) -> Tuple[int, ...]:
        """Dispatch ``rand`` to one of the four moves (Algorithm 2 lines 3-12).

        Split out from :meth:`propose_move` so restricted samplers (e.g.
        the fault-aware :class:`~repro.core.degradation.SlotRestrictedSampler`)
        can veto or redirect moves without perturbing the user/branch draws.
        """
        if rand > self.swap_below:
            if rand < self.server_move_below:
                return self._move_server(new, user, rng)
            if new.n_channels > 1:
                return self._move_channel(new, user, rng)
            return ()
        if rand > self.toggle_below:
            return self._swap(new, user, rng)
        return self._toggle(new, user, rng)

    # --- Moves ---------------------------------------------------------------

    def _random_slot_on(
        self, decision: OffloadingDecision, server: int, rng: np.random.Generator
    ) -> int:
        """A free sub-channel of ``server`` if any, else a random one."""
        free = decision.free_channels(server)
        if free:
            return int(free[int(rng.integers(len(free)))])
        return int(rng.integers(decision.n_channels))

    def _with_displaced(self, user: int, displaced: Optional[int]) -> Tuple[int, ...]:
        return (user,) if displaced is None else (user, displaced)

    def _move_server(
        self, decision: OffloadingDecision, user: int, rng: np.random.Generator
    ) -> Tuple[int, ...]:
        current = int(decision.server[user])
        if decision.n_servers == 1 and current != LOCAL:
            return ()  # no "other" server exists
        while True:
            target = int(rng.integers(decision.n_servers))
            if target != current:
                break
        channel = self._random_slot_on(decision, target, rng)
        displaced = decision.displace_and_assign(user, target, channel)
        return self._with_displaced(user, displaced)

    def _move_channel(
        self, decision: OffloadingDecision, user: int, rng: np.random.Generator
    ) -> Tuple[int, ...]:
        current_server = int(decision.server[user])
        current_channel = int(decision.channel[user])
        if current_server == LOCAL:
            # Local target user: give it a slot on a random server instead.
            server = int(rng.integers(decision.n_servers))
            channel = self._random_slot_on(decision, server, rng)
            displaced = decision.displace_and_assign(user, server, channel)
            return self._with_displaced(user, displaced)
        free = [j for j in decision.free_channels(current_server) if j != current_channel]
        if free:
            channel = int(free[int(rng.integers(len(free)))])
        else:
            while True:
                channel = int(rng.integers(decision.n_channels))
                if channel != current_channel:
                    break
        displaced = decision.displace_and_assign(user, current_server, channel)
        return self._with_displaced(user, displaced)

    def _swap(
        self, decision: OffloadingDecision, user: int, rng: np.random.Generator
    ) -> Tuple[int, ...]:
        if decision.n_users < 2:
            return ()
        while True:
            other = int(rng.integers(decision.n_users))
            if other != user:
                break
        decision.swap(user, other)
        return (user, other)

    def _toggle(
        self, decision: OffloadingDecision, user: int, rng: np.random.Generator
    ) -> Tuple[int, ...]:
        if decision.is_offloaded(user):
            decision.set_local(user)
            return (user,)
        server = int(rng.integers(decision.n_servers))
        channel = self._random_slot_on(decision, server, rng)
        displaced = decision.displace_and_assign(user, server, channel)
        return self._with_displaced(user, displaced)
