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

Moves
-----
:meth:`NeighborhoodSampler.move` is the one implementation of the four
cases.  It reads the incumbent without modifying it and returns a
*move*: one ``(user, new_server, new_channel, old_server, old_channel)``
entry per user it reassigns (the target, and a displaced occupant or the
swap partner), or an empty list for the no-op proposal.  Every read of
the incumbent happens before the one mutation the paper's pseudocode
makes, so the moves draw the RNG stream exactly as a copy-and-mutate
proposal would.  The annealer and LocalSearch score a move in place with
:func:`score_move` and materialise a new decision
(:meth:`~repro.core.decision.OffloadingDecision.with_move`) only for the
moves they accept; about 85 % of a TSAJS solve's proposals are rejected.
:meth:`NeighborhoodSampler.propose_move` and
:meth:`NeighborhoodSampler.propose` build the neighbour from the move for
callers that want a decision object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.core.decision import LOCAL, Move, MoveEntry, OffloadingDecision
from repro.core.objective import ObjectiveEvaluator
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.rng import DirectDraws

def touched_users(move: Sequence[MoveEntry]) -> Tuple[int, ...]:
    """The users a move reassigns, in entry order (its *touched set*)."""
    return tuple(entry[0] for entry in move)


def score_move(
    evaluator: ObjectiveEvaluator,
    decision: OffloadingDecision,
    move: Sequence[MoveEntry],
    rejected: Sequence[MoveEntry] = (),
) -> float:
    """``J*(X)`` of ``decision`` with ``move`` applied, scored in place.

    Writes the move's new assignments into ``decision.server`` and
    ``decision.channel``, scores them with
    :meth:`~repro.core.objective.ObjectiveEvaluator.evaluate_move`, and
    writes the old ones back, so ``decision`` is unchanged on return (its
    slot map is never touched).  The touched set is the move's users
    followed by those of ``rejected``, the last move scored and not
    accepted: a delta evaluator's cache still holds that candidate
    (:mod:`repro.core.delta`).
    """
    server, channel = decision.server, decision.channel
    touched = []
    for user, new_server, new_channel, _, _ in move:
        server[user] = new_server
        channel[user] = new_channel
        touched.append(user)
    try:
        return evaluator.evaluate_move(
            decision, touched + [entry[0] for entry in rejected]
        )
    finally:
        for user, _, _, old_server, old_channel in move:
            server[user] = old_server
            channel[user] = old_channel


def displacing_move(
    decision: OffloadingDecision, user: int, server: int, channel: int
) -> Move:
    """The move putting ``user`` on slot ``(server, channel)``.

    Any other occupant of the slot is displaced to local execution, which
    realises Algorithm 2's "allocate one randomly if none are free" while
    keeping constraint (12d).
    """
    move = [
        (user, server, channel, decision.server.item(user), decision.channel.item(user))
    ]
    occupant = decision.occupant_of(server, channel)
    if occupant != LOCAL and occupant != user:
        move.append((occupant, LOCAL, LOCAL, server, channel))
    return move


def swap_move(decision: OffloadingDecision, user: int, other: int) -> Move:
    """The move exchanging two users' (server, sub-band) assignments.

    Either user may be local; then one assignment moves across and the
    other user becomes local.
    """
    server, channel = decision.server, decision.channel
    sa, ja = server.item(user), channel.item(user)
    sb, jb = server.item(other), channel.item(other)
    return [(user, sb, jb, sa, ja), (other, sa, ja, sb, jb)]


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
        needs to update incrementally.  It draws the stream exactly as
        :meth:`move` does.
        """
        # Imported here: repro.sim imports this module at package-init
        # time, so a top-level import would be circular.
        from repro.sim.rng import DirectDraws

        with DirectDraws(rng) as draws:
            move = self.move(decision, draws)
        return decision.with_move(move), touched_users(move)

    def move(self, decision: OffloadingDecision, draws: "DirectDraws") -> Move:
        """Algorithm 2's move from ``decision``, which is only read.

        Draws the target user and the branch uniform, then the branch's
        own draws, all from ``draws`` (open one
        :class:`~repro.sim.rng.DirectDraws` scope per run).
        """
        user = draws.integers(decision.n_users)
        return self._dispatch(decision, user, draws.random(), draws)

    def _dispatch(
        self,
        decision: OffloadingDecision,
        user: int,
        rand: float,
        draws: "DirectDraws",
    ) -> Move:
        """Dispatch ``rand`` to one of the four moves (Algorithm 2 lines 3-12).

        Split out from :meth:`move` so restricted samplers (e.g. the
        fault-aware :class:`~repro.core.degradation.SlotRestrictedSampler`)
        can veto or redirect moves without perturbing the user/branch draws.
        """
        if rand > self.swap_below:
            if rand < self.server_move_below:
                return self._move_server(decision, user, draws)
            if decision.n_channels > 1:
                return self._move_channel(decision, user, draws)
            return []
        if rand > self.toggle_below:
            return self._swap(decision, user, draws)
        return self._toggle(decision, user, draws)

    # --- Moves ---------------------------------------------------------------

    def _random_slot_on(
        self, decision: OffloadingDecision, server: int, draws: "DirectDraws"
    ) -> int:
        """A free sub-channel of ``server`` if any, else a random one."""
        free = decision.free_channels(server)
        if free:
            return free[draws.integers(len(free))]
        return draws.integers(decision.n_channels)

    def _move_server(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        current = decision.server.item(user)
        if decision.n_servers == 1 and current != LOCAL:
            return []  # no "other" server exists
        while True:
            target = draws.integers(decision.n_servers)
            if target != current:
                break
        channel = self._random_slot_on(decision, target, draws)
        return displacing_move(decision, user, target, channel)

    def _move_channel(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        current_server = decision.server.item(user)
        if current_server == LOCAL:
            # Local target user: give it a slot on a random server instead.
            server = draws.integers(decision.n_servers)
            channel = self._random_slot_on(decision, server, draws)
            return displacing_move(decision, user, server, channel)
        current_channel = decision.channel.item(user)
        # The user holds its own channel, so that one is never free.
        free = decision.free_channels(current_server)
        if free:
            channel = free[draws.integers(len(free))]
        else:
            while True:
                channel = draws.integers(decision.n_channels)
                if channel != current_channel:
                    break
        return displacing_move(decision, user, current_server, channel)

    def _swap(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        if decision.n_users < 2:
            return []
        while True:
            other = draws.integers(decision.n_users)
            if other != user:
                break
        return swap_move(decision, user, other)

    def _toggle(
        self, decision: OffloadingDecision, user: int, draws: "DirectDraws"
    ) -> Move:
        if decision.is_offloaded(user):
            old = (decision.server.item(user), decision.channel.item(user))
            return [(user, LOCAL, LOCAL, *old)]
        server = draws.integers(decision.n_servers)
        channel = self._random_slot_on(decision, server, draws)
        return displacing_move(decision, user, server, channel)
