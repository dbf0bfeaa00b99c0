"""Incremental (delta) evaluation of ``J*(X)`` — the annealer's fast lane.

Every TTSA proposal differs from the incumbent in at most a handful of
users (Algorithm 2 touches one or two, plus a possibly displaced slot
occupant), yet :meth:`ObjectiveEvaluator.evaluate_assignment` rebuilds the
whole ``O(U·S·N)`` link-stats computation from scratch.
:class:`DeltaEvaluator` instead caches, for the last evaluated assignment,

* the per-user received-power rows ``rx[u][s] = p_u · h[u, s, j_u]``,
  drawn from a per-evaluator table of every user's row on every band,
* the per-``(sub-band, server)`` total received power (Eq. 3's
  interference bookkeeping), with the occupant set of every sub-band,
* the per-user spectral efficiency, net benefit (gain minus
  communication cost) and the masked ``Σ√η`` KKT inputs,
* the offloaders of each server and that server's ``Σ√η`` root sum,
  with a memo of ``Λ(X, F*)`` keyed on the root-sum vector,

and on the next call recomputes only what a move can change: the SINR of
users sharing a touched sub-band, the occupancy buckets of those bands,
and the affected users' objective terms.

Bitwise contract
----------------
The delta path returns values **bit-for-bit equal** to the full path, so
it reproduces the exact annealing trajectory of the scalar oracle
(``use_delta=False``): the accept/reject comparisons and the RNG stream
never diverge.  That is why it is the default evaluator of every TSAJS
solve and of the hJTORA, LocalSearch, Exhaustive, Greedy and GA
baselines.  Three invariants make this work; keep them in lockstep with
:mod:`repro.core.objective` and :mod:`repro.net.sinr` when editing:

1. every ``total_rx[j][s]`` bucket always equals the *sequential,
   ascending-user-order* sum of its current occupants' ``rx`` rows —
   the accumulation order ``np.add.at`` uses in
   :func:`~repro.net.sinr.compute_link_stats` — plus, when the
   evaluator carries a frozen ``external_rx`` (the sharded scheduler's
   boundary re-anneals), that band's external row added elementwise
   *after* the sum, the order of ``compute_link_stats``'
   ``total_rx + external_rx``;
2. per-user terms (signal, SINR, net benefit) are elementwise IEEE
   formulas, so recomputing them with scalar Python floats (which *are*
   IEEE doubles) yields the same bits as the full vectorised
   computation.  The one exception is ``log2``, whose numpy SIMD kernel
   differs from libm's — it therefore stays a (small, batched) numpy
   call;
3. the ``net`` reduction runs over the same fixed-length masked array
   with the same pairwise kernel as the full path (``np.add.reduce``).
   Each server's root sum ``Σ√η`` is a *sequential, ascending-user*
   sum of Python floats over that server's offloaders, starting at
   ``0.0`` — the per-bin order of the full path's ``np.bincount``,
   whose ``+0.0`` entries for local users change no bits.  ``Λ``
   itself stays numpy's ``np.add.reduce(rs * rs / cpu_hz)`` over those
   sums (Python adds do not reproduce numpy's reduce on short arrays),
   memoised per evaluator on the exact tuple of root sums: the same
   input bits always give the same numpy output, so a memo hit is
   exact by construction.  The memo stops growing at
   ``LAMBDA_MEMO_CAP`` entries.

Most cache state is kept in plain Python lists rather than numpy arrays:
the per-move working set is a handful of scalars, where list indexing
beats numpy scalar indexing by an order of magnitude.  The price is a
Python-native table of every user's received-power row on every band
(``U·N·S`` floats, ``p_u · h[u, s, j]``: one IEEE product each, the
full path's own), paid once per scenario.

Touched-set protocol
--------------------
The inherited counted entry point
``evaluate_assignment(server, channel, touched=...)`` (and
``evaluate_move(decision, touched)``, which forwards to it) takes an iterable
of user indices that is a **superset** of the users whose assignment may
differ from the *previously evaluated* one (not the incumbent: a
rejected proposal still updates the cache, so the annealer passes the
union of the new move's touched set and the rejected move's).  Passing
``touched=None`` falls back to an ``O(U)`` vector diff, which makes the
evaluator a safe drop-in for any caller.

The baselines use both: hJTORA passes the user it is trying plus the
previously tried and the last applied user, LocalSearch the annealer's
carry protocol above, and the exhaustive DFS every user it set or reset
since the last leaf; Greedy and GA score whole decisions and take the
vector diff.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.decision import LOCAL
from repro.core.objective import ObjectiveEvaluator

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario

#: Entries after which an evaluator's ``Λ`` memo stops inserting.  A
#: paper-scale solve sees well under a thousand distinct root-sum vectors.
LAMBDA_MEMO_CAP = 4096


class DeltaEvaluator(ObjectiveEvaluator):
    """Cache-backed evaluator producing bitwise-identical ``J*(X)``.

    Construction costs ``O(U·S·N)`` time and memory (the Python-native
    gain copy); :meth:`rebuild` resets the cache to the all-local
    assignment, after which the evaluator is indistinguishable from a
    fresh one.  ``external_rx`` is the same frozen ``(N, S)`` boundary
    term :class:`~repro.core.objective.ObjectiveEvaluator` accepts.
    """

    def __init__(
        self,
        scenario: "Scenario",
        external_rx: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(scenario, external_rx=external_rx)
        #: ``_external_rows[j][s]``: the frozen out-of-instance power, one
        #: Python row per sub-band.
        self._external_rows: Optional[List[List[float]]] = (
            None if self.external_rx is None else self.external_rx.tolist()
        )
        #: Incremental (touched-set) evaluations vs O(U) vector-diff ones;
        #: plain int telemetry read by the scheduler's observability event
        #: (``fast_evals + full_evals == evaluations`` at all times).
        #: Kept as direct attribute increments — not recorder calls — so
        #: the annealer's inner loop pays nothing for the bookkeeping.
        self.fast_evals = 0
        self.full_evals = 0
        # Python-native copies of the constants read per move: list
        # indexing returns ready-made floats, numpy scalar indexing
        # allocates a wrapper object each time.  float() is exact, so
        # scalar arithmetic on these matches numpy's kernels bitwise.
        self._sqrt_eta_list = scenario.sqrt_eta.tolist()
        self._comm_list = scenario.comm_weight.tolist()
        self._gain_list = scenario.offload_gain.tolist()
        self._noise = float(scenario.noise_watts)
        self._n_servers = scenario.n_servers
        self._cpu_hz = scenario.server_cpu_hz
        #: ``_rx_table[u][j][s]`` = ``p_u · h[u, s, j]``, band-major: user
        #: ``u``'s received-power row when it transmits on sub-band ``j``.
        #: Rows are shared, never mutated.
        self._rx_table: List[List[List[float]]] = (
            scenario.gains.transpose(0, 2, 1)
            * scenario.tx_power_watts[:, None, None]
        ).tolist()
        #: ``Λ(X, F*)`` by the exact tuple of per-server root sums.
        self._lambda_memo: Dict[Tuple[float, ...], float] = {}
        self.rebuild()

    # --- Cache lifecycle ---------------------------------------------------

    def rebuild(self) -> None:
        """Reset the cache to the all-local assignment."""
        sc = self.scenario
        n_users, n_subbands = sc.n_users, sc.n_subbands
        self._server_list: List[int] = [LOCAL] * n_users
        self._channel_list: List[int] = [LOCAL] * n_users
        #: Occupants of each sub-band, kept sorted ascending (invariant 1).
        self._band_users: List[List[int]] = [[] for _ in range(n_subbands)]
        #: Current received-power row of each offloaded user.
        self._rx_rows: List[Optional[List[float]]] = [None] * n_users
        self._total_rx = [self._empty_bucket(band) for band in range(n_subbands)]
        self._signal = [0.0] * n_users
        self._se = [0.0] * n_users
        self._net = np.zeros(n_users)
        #: The full path's masked ``√η`` weights and server indices; only
        #: the batch evaluator's per-candidate ``np.bincount`` reads them.
        self._w = np.zeros(n_users)
        self._idx = np.zeros(n_users, dtype=np.int64)
        #: Offloaders of each server, kept sorted ascending (invariant 3).
        self._server_users: List[List[int]] = [[] for _ in range(sc.n_servers)]
        self._root_sums = [0.0] * sc.n_servers
        self._dead = [False] * n_users
        self._n_dead = 0
        self._n_offloaded = 0
        self._lambda_cost = 0.0
        self._kkt_dirty = False

    # --- Evaluation --------------------------------------------------------

    def _score_assignment(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        touched: Optional[Iterable[int]],
    ) -> float:
        """``J*(X)`` (Eq. 24), recomputing only what changed since the last call.

        ``touched`` must cover every user whose assignment may differ
        from the previously evaluated one (see the module docstring);
        ``None`` diffs the full vectors instead.
        """
        if touched is None:
            self.full_evals += 1
            server_list, channel_list = self._server_list, self._channel_list
            server = np.asarray(server_of_user)
            channel = np.asarray(channel_of_user)
            diff = np.flatnonzero(
                (server != np.asarray(server_list, dtype=server.dtype))
                | (channel != np.asarray(channel_list, dtype=channel.dtype))
            )
            changed = [
                (int(u), int(server[u]), int(channel[u])) for u in diff
            ]
        else:
            self.fast_evals += 1
            changed = self._touched_changes(server_of_user, channel_of_user, touched)
        if changed:
            self._apply(changed)
        return self._value()

    def _touched_changes(
        self, server: np.ndarray, channel: np.ndarray, touched: Iterable[int]
    ) -> List[Tuple[int, int, int]]:
        """``(user, server, channel)`` for touched users that differ from the cache."""
        server_list, channel_list = self._server_list, self._channel_list
        changed: List[Tuple[int, int, int]] = []
        seen: List[int] = []
        for u in touched:
            if u in seen:  # touched sets are tiny; a set() costs more
                continue
            seen.append(u)
            new_server = server.item(u)
            new_channel = channel.item(u)
            if server_list[u] != new_server or channel_list[u] != new_channel:
                changed.append((u, new_server, new_channel))
        return changed

    # --- Internals ---------------------------------------------------------

    def _apply(self, changed: List[Tuple[int, int, int]]) -> None:
        server_list, channel_list = self._server_list, self._channel_list
        rx_rows = self._rx_rows
        server_users = self._server_users
        bands: List[int] = []
        servers: List[int] = []
        # Detach every changed user from its old slot first, so the band
        # occupant lists never hold a stale entry while new ones insert.
        for u, _, _ in changed:
            if server_list[u] != LOCAL:
                old_band = channel_list[u]
                if old_band not in bands:
                    bands.append(old_band)
                self._band_users[old_band].remove(u)
                self._n_offloaded -= 1
                if self._dead[u]:
                    self._dead[u] = False
                    self._n_dead -= 1
        for u, new_server, new_band in changed:
            old_server = server_list[u]
            server_list[u] = new_server
            channel_list[u] = new_band
            if new_server != old_server:
                # The masked KKT inputs change only on offload-state or
                # server changes; pure channel moves keep Lambda intact.
                self._kkt_dirty = True
                if old_server != LOCAL:
                    server_users[old_server].remove(u)
                    if old_server not in servers:
                        servers.append(old_server)
                if new_server == LOCAL:
                    self._w[u] = 0.0
                    self._idx[u] = 0
                else:
                    self._w[u] = self._sqrt_eta_list[u]
                    self._idx[u] = new_server
                    insort(server_users[new_server], u)
                    if new_server not in servers:
                        servers.append(new_server)
            if new_server == LOCAL:
                self._signal[u] = 0.0
                self._se[u] = 0.0
                self._net[u] = 0.0
            else:
                if new_band not in bands:
                    bands.append(new_band)
                insort(self._band_users[new_band], u)
                self._n_offloaded += 1
                row = self._rx_table[u][new_band]
                rx_rows[u] = row
                self._signal[u] = row[new_server]
        if servers:
            # Sequential ascending-user sums from 0.0: np.bincount's
            # per-bin order on the full path (invariant 3).
            root_sums = self._root_sums
            sqrt_eta = self._sqrt_eta_list
            for srv in servers:
                total = 0.0
                for u in server_users[srv]:
                    total += sqrt_eta[u]
                root_sums[srv] = total
        # Rebuild the received-power buckets of every touched band by
        # summing occupant rows in ascending-user order — the order
        # np.add.at accumulates in on the full path (invariant 1).  Bands
        # are visited in first-touched order: each bucket is rebuilt
        # independently, so the order cannot change values.
        total_rx = self._total_rx
        external = self._external_rows
        affected: List[int] = []
        for band in bands:
            occupants = self._band_users[band]
            if occupants:
                first = iter(occupants)
                # Buckets, like rx rows, are replaced and never mutated,
                # so a lone occupant's row can serve as its band's bucket.
                bucket = rx_rows[next(first)]
                for u in first:
                    bucket = [b + r for b, r in zip(bucket, rx_rows[u])]
                if external is not None:
                    # After the occupant sum, as compute_link_stats adds
                    # external_rx to the summed buckets (invariant 1).
                    bucket = [b + e for b, e in zip(bucket, external[band])]
                total_rx[band] = bucket
                affected.extend(occupants)
            else:
                total_rx[band] = self._empty_bucket(band)
        if affected:
            self._refresh(affected)

    def _empty_bucket(self, band: int) -> List[float]:
        """Received power on an unoccupied sub-band (external power only)."""
        if self._external_rows is None:
            return [0.0] * self._n_servers
        return list(self._external_rows[band])

    def _refresh(self, affected: List[int]) -> None:
        """Recompute SINR-dependent terms for users on touched bands.

        All scalar arithmetic below reproduces compute_link_stats'
        elementwise kernels bit-for-bit (invariant 2); only log2 stays a
        batched numpy call.
        """
        server_list, channel_list = self._server_list, self._channel_list
        signal_list = self._signal
        total_rx = self._total_rx
        noise = self._noise
        one_plus_sinr: List[float] = []
        for u in affected:
            sig = signal_list[u]
            interference = total_rx[channel_list[u]][server_list[u]] - sig
            if interference <= 0.0:  # matches np.maximum(x, 0.0)
                interference = 0.0
            # 1 + SINR is one IEEE add, the same in Python as in numpy.
            one_plus_sinr.append(1.0 + sig / (interference + noise))
        se = np.log2(one_plus_sinr).tolist()
        se_list = self._se
        net = self._net
        dead = self._dead
        gain_list, comm_list = self._gain_list, self._comm_list
        for u, se_u in zip(affected, se):
            se_list[u] = se_u
            if se_u > 0.0:
                if dead[u]:
                    dead[u] = False
                    self._n_dead -= 1
                net[u] = gain_list[u] - comm_list[u] / se_u
            else:
                # Zero spectral efficiency makes J* -inf regardless of the
                # net terms; park the entry at 0.0 (it is refreshed before
                # it can matter) and avoid the division by zero.
                if not dead[u]:
                    dead[u] = True
                    self._n_dead += 1
                net[u] = 0.0

    def _settle_kkt(self) -> None:
        """Recompute the cached ``Lambda(X, F*)`` cost if it is stale.

        The root sums are kept current by :meth:`_apply`, so settling at
        any time is exact (invariant 3); the batch evaluator calls this
        before staging so clean candidates can reuse ``_lambda_cost``
        even when ``_value`` early-returned (all-local or dead-user
        incumbents skip the lazy settle below).
        """
        if self._kkt_dirty:
            key = tuple(self._root_sums)
            memo = self._lambda_memo
            cost = memo.get(key)
            if cost is None:
                root_sums = np.array(key)
                cost = float(np.add.reduce(root_sums * root_sums / self._cpu_hz))
                if len(memo) < LAMBDA_MEMO_CAP:
                    memo[key] = cost
            self._lambda_cost = cost
            self._kkt_dirty = False

    def _value(self) -> float:
        if self._n_offloaded == 0:
            return 0.0
        if self._n_dead:
            return float("-inf")
        # Identical reductions to the full path (invariant 3):
        # np.add.reduce is exactly ndarray.sum's pairwise kernel.  The
        # KKT cost is re-settled from the root sums whenever they
        # changed, so caching it across channel-only moves is exact.
        self._settle_kkt()
        return float(np.add.reduce(self._net)) - self._lambda_cost
