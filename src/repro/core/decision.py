"""The offloading decision ``X`` and its feasibility constraints.

The paper encodes a decision as a binary tensor ``x[u, s, j]`` subject to

* (12b) binary entries,
* (12c) each user offloads to at most one (server, sub-band) slot,
* (12d) each (server, sub-band) slot serves at most one user.

Because (12c) makes the rows one-hot-or-zero, the library uses the compact
equivalent encoding of two integer vectors — ``server_of_user`` and
``channel_of_user`` with ``-1`` meaning local execution — plus a slot
occupancy map kept in sync by the mutation helpers.  (12c) is structural in
this encoding; (12d) is enforced by :meth:`OffloadingDecision.assign`,
kept by Algorithm 2's moves (:meth:`OffloadingDecision.with_move`) and
checked by :meth:`OffloadingDecision.is_feasible`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, InfeasibleDecisionError

#: Marker for "execute locally" (re-exported from the SINR module).
LOCAL = -1

#: One entry of a move: ``(user, new_server, new_channel, old_server,
#: old_channel)``, with :data:`LOCAL` for both halves of a local slot.
MoveEntry = Tuple[int, int, int, int, int]
#: Algorithm 2's move (:meth:`~repro.core.neighborhood.NeighborhoodSampler.move`):
#: one entry per user it reassigns; empty for the no-op proposal.
Move = List[MoveEntry]


class OffloadingDecision:
    """A feasible-by-construction offloading decision.

    Parameters
    ----------
    n_users, n_servers, n_channels:
        Problem dimensions ``U``, ``S``, ``N``.
    server_of_user, channel_of_user:
        Optional initial assignment vectors; default all-local.
    """

    __slots__ = (
        "n_users", "n_servers", "n_channels", "server", "channel", "_slots", "_free"
    )

    def __init__(
        self,
        n_users: int,
        n_servers: int,
        n_channels: int,
        server_of_user: Optional[np.ndarray] = None,
        channel_of_user: Optional[np.ndarray] = None,
    ) -> None:
        if n_users < 0 or n_servers < 1 or n_channels < 1:
            raise ConfigurationError(
                f"invalid dimensions U={n_users}, S={n_servers}, N={n_channels}"
            )
        self.n_users = n_users
        self.n_servers = n_servers
        self.n_channels = n_channels
        if server_of_user is None:
            self.server = np.full(n_users, LOCAL, dtype=np.int64)
            self.channel = np.full(n_users, LOCAL, dtype=np.int64)
        else:
            if channel_of_user is None:
                raise ConfigurationError(
                    "channel_of_user must accompany server_of_user"
                )
            self.server = np.array(server_of_user, dtype=np.int64)
            self.channel = np.array(channel_of_user, dtype=np.int64)
            if self.server.shape != (n_users,) or self.channel.shape != (n_users,):
                raise ConfigurationError(
                    "assignment vectors must have shape "
                    f"({n_users},), got {self.server.shape} / {self.channel.shape}"
                )
        self._slots = np.full((n_servers, n_channels), LOCAL, dtype=np.int64)
        self._rebuild_slots()

    # --- Construction helpers ---------------------------------------------

    @classmethod
    def all_local(
        cls, n_users: int, n_servers: int, n_channels: int
    ) -> "OffloadingDecision":
        """The trivial decision: every user executes locally."""
        return cls(n_users, n_servers, n_channels)

    @classmethod
    def random_feasible(
        cls,
        n_users: int,
        n_servers: int,
        n_channels: int,
        rng: np.random.Generator,
        offload_probability: float = 0.5,
    ) -> "OffloadingDecision":
        """A uniformly random feasible decision.

        Each user independently attempts to offload with the given
        probability; attempted offloaders are assigned random free slots
        until the slot pool is exhausted (then they stay local).
        """
        if not 0.0 <= offload_probability <= 1.0:
            raise ConfigurationError(
                f"offload_probability must lie in [0, 1], got {offload_probability}"
            )
        decision = cls.all_local(n_users, n_servers, n_channels)
        slots = [(s, j) for s in range(n_servers) for j in range(n_channels)]
        rng.shuffle(slots)
        users = rng.permutation(n_users)
        slot_iter = iter(slots)
        for u in users:
            if rng.random() >= offload_probability:
                continue
            slot = next(slot_iter, None)
            if slot is None:
                break
            decision.assign(int(u), slot[0], slot[1])
        return decision

    # --- Internal invariants ----------------------------------------------

    def _rebuild_slots(self) -> None:
        #: Per-server cache of :meth:`free_channels`; ``None`` means stale.
        self._free: List[Optional[List[int]]] = [None] * self.n_servers
        self._slots.fill(LOCAL)
        for u in range(self.n_users):
            s, j = int(self.server[u]), int(self.channel[u])
            if s == LOCAL and j == LOCAL:
                continue
            if s == LOCAL or j == LOCAL:
                raise InfeasibleDecisionError(
                    f"user {u}: server and channel must both be LOCAL or both set"
                )
            if not (0 <= s < self.n_servers and 0 <= j < self.n_channels):
                raise InfeasibleDecisionError(
                    f"user {u}: slot ({s}, {j}) out of range"
                )
            if self._slots[s, j] != LOCAL:
                raise InfeasibleDecisionError(
                    f"slot ({s}, {j}) assigned to users {self._slots[s, j]} and {u} "
                    "(violates constraint 12d)"
                )
            self._slots[s, j] = u

    # --- Queries ------------------------------------------------------------

    def is_offloaded(self, user: int) -> bool:
        server: int = self.server.item(user)
        return server != LOCAL

    def occupant_of(self, server: int, channel: int) -> int:
        """User occupying slot ``(server, channel)``, or ``LOCAL`` if free."""
        occupant: int = self._slots.item(server, channel)
        return occupant

    def offloaded_users(self) -> np.ndarray:
        """Indices of users currently offloading."""
        return np.flatnonzero(self.server >= 0)

    def users_on_server(self, server: int) -> np.ndarray:
        """Indices of users attached to ``server`` (the set U_s)."""
        return np.flatnonzero(self.server == server)

    def free_channels(self, server: int) -> List[int]:
        """Sub-bands of ``server`` with no occupant, ascending.

        The list is cached until one of the server's slots changes, so
        callers must not mutate it.
        """
        free = self._free[server]
        if free is None:
            row = self._slots[server].tolist()
            free = [j for j, occupant in enumerate(row) if occupant == LOCAL]
            self._free[server] = free
        return free

    def free_slot_mask(self) -> np.ndarray:
        """``(S, N)`` boolean array, true where the slot has no occupant."""
        return self._slots == LOCAL

    def n_offloaded(self) -> int:
        return int(np.count_nonzero(self.server >= 0))

    def iter_assignments(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(user, server, channel)`` for every offloaded user."""
        for u in self.offloaded_users():
            yield int(u), int(self.server[u]), int(self.channel[u])

    def changed_users(self, other: "OffloadingDecision") -> np.ndarray:
        """Indices of users assigned differently in ``other``.

        The exact set the delta evaluator must refresh when moving between
        two decisions; used by the equivalence tests to validate the
        touched sets :class:`~repro.core.neighborhood.NeighborhoodSampler`
        reports for its moves.
        """
        if self.n_users != other.n_users:
            raise ConfigurationError(
                f"user-count mismatch: {self.n_users} vs {other.n_users}"
            )
        return np.flatnonzero(
            (self.server != other.server) | (self.channel != other.channel)
        )

    def is_feasible(self) -> bool:
        """Check constraints (12b)-(12d) from scratch."""
        try:
            self._rebuild_slots()
        except InfeasibleDecisionError:
            return False
        return True

    # --- Mutations (keep the slot map in sync) -------------------------------

    def set_local(self, user: int) -> None:
        """Revoke ``user``'s offload, freeing its slot."""
        s, j = int(self.server[user]), int(self.channel[user])
        if s != LOCAL:
            self._slots[s, j] = LOCAL
            self._free[s] = None
        self.server[user] = LOCAL
        self.channel[user] = LOCAL

    def assign(self, user: int, server: int, channel: int) -> None:
        """Assign ``user`` to slot ``(server, channel)``.

        The slot must be free (or already held by ``user``); otherwise
        :class:`InfeasibleDecisionError` is raised.  Any previous slot of
        ``user`` is released.
        """
        if not (0 <= server < self.n_servers and 0 <= channel < self.n_channels):
            raise InfeasibleDecisionError(
                f"slot ({server}, {channel}) out of range"
            )
        occupant = int(self._slots[server, channel])
        if occupant not in (LOCAL, user):
            raise InfeasibleDecisionError(
                f"slot ({server}, {channel}) already held by user {occupant}"
            )
        self.set_local(user)
        self.server[user] = server
        self.channel[user] = channel
        self._slots[server, channel] = user
        self._free[server] = None

    def with_move(self, move: Sequence[MoveEntry]) -> "OffloadingDecision":
        """A copy with every entry of ``move`` applied (``self`` unchanged).

        ``move`` lists the complete new assignment of each user it
        reassigns, as Algorithm 2's samplers build it
        (:meth:`~repro.core.neighborhood.NeighborhoodSampler.move`): every
        old slot is released before any new one is taken, so a swap or a
        displacement lands on a consistent slot map.  The entries are not
        validated; a move must keep constraint (12d).
        """
        new = self.copy()
        slots, free = new._slots, new._free
        for _, _, _, old_server, old_channel in move:
            if old_server != LOCAL:
                slots[old_server, old_channel] = LOCAL
                free[old_server] = None
        for user, server, channel, _, _ in move:
            new.server[user] = server
            new.channel[user] = channel
            if server != LOCAL:
                slots[server, channel] = user
                free[server] = None
        return new

    # --- Conversions / dunder ------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """The paper's binary tensor ``x[u, s, j]`` (shape ``(U, S, N)``)."""
        dense = np.zeros((self.n_users, self.n_servers, self.n_channels), dtype=np.int8)
        for u, s, j in self.iter_assignments():
            dense[u, s, j] = 1
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "OffloadingDecision":
        """Build a decision from the paper's binary tensor.

        Raises :class:`InfeasibleDecisionError` if the tensor violates
        constraints (12b)-(12d).
        """
        dense = np.asarray(dense)
        if dense.ndim != 3:
            raise ConfigurationError(
                f"dense decision must have shape (U, S, N), got {dense.shape}"
            )
        if not np.isin(dense, (0, 1)).all():
            raise InfeasibleDecisionError("decision entries must be binary (12b)")
        n_users, n_servers, n_channels = dense.shape
        per_user = dense.reshape(n_users, -1).sum(axis=1)
        if np.any(per_user > 1):
            raise InfeasibleDecisionError(
                "a user offloads to multiple slots (violates 12c)"
            )
        server = np.full(n_users, LOCAL, dtype=np.int64)
        channel = np.full(n_users, LOCAL, dtype=np.int64)
        for u in range(n_users):
            hits = np.argwhere(dense[u] == 1)
            if hits.size:
                server[u], channel[u] = int(hits[0][0]), int(hits[0][1])
        return cls(n_users, n_servers, n_channels, server, channel)

    def copy(self) -> "OffloadingDecision":
        clone = OffloadingDecision.__new__(OffloadingDecision)
        clone.n_users = self.n_users
        clone.n_servers = self.n_servers
        clone.n_channels = self.n_channels
        clone.server = self.server.copy()
        clone.channel = self.channel.copy()
        clone._slots = self._slots.copy()
        clone._free = list(self._free)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OffloadingDecision):
            return NotImplemented
        return (
            self.n_users == other.n_users
            and self.n_servers == other.n_servers
            and self.n_channels == other.n_channels
            and np.array_equal(self.server, other.server)
            and np.array_equal(self.channel, other.channel)
        )

    def __hash__(self) -> int:
        return hash(
            (self.n_users, self.n_servers, self.n_channels,
             self.server.tobytes(), self.channel.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"OffloadingDecision(U={self.n_users}, S={self.n_servers}, "
            f"N={self.n_channels}, offloaded={self.n_offloaded()})"
        )
