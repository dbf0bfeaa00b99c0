"""Vectorized batch evaluation of Algorithm-2 neighborhoods.

:class:`BatchEvaluator` scores a whole batch of candidate moves — all
proposed from the *same* incumbent decision — in one NumPy shot, instead
of the :class:`~repro.core.delta.DeltaEvaluator`'s one-candidate-at-a-time
loop.  The annealer's batch mode (``ThresholdTriggeredAnnealer.run(...,
batch_size=B)``) proposes ``B`` speculative moves per round, calls
:meth:`BatchEvaluator.evaluate_batch` once, and applies the Metropolis
rule over the returned value vector with exact scalar semantics (see
:mod:`repro.core.annealing` for the RNG-rewind protocol that keeps the
two modes bitwise identical).

Evaluation strategy
-------------------
Each candidate differs from the incumbent in at most a handful of users
(Algorithm 2 touches one or two, plus a possibly displaced occupant), so
the evaluator reuses the delta cache of the incumbent and splits work
into two phases:

1. **Staging** (per candidate, cheap scalar Python): diff the candidate
   against the cache, rebuild the per-sub-band received-power buckets its
   move touches (a bucket holds at most ``S`` occupants — one per
   station, constraint 12d), and collect the SINRs of every user whose
   interference changed, plus the candidate's KKT-input fixes.

2. **Finalize** (one NumPy shot across the whole batch): a single
   ``log2`` over all collected SINRs, a ``(B, U)`` net-benefit matrix
   reduced along the user axis, and an ``np.add.at`` scatter replacing
   per-candidate ``np.bincount`` calls for the ``Lambda(X, F*)`` cost.

Bitwise contract
----------------
``evaluate_batch`` returns, for every candidate, the exact bits
:meth:`ObjectiveEvaluator.evaluate_assignment` would return.  On top of
the delta invariants (see :mod:`repro.core.delta`) this relies on three
row-batching identities of NumPy, pinned by tests/test_batch_equivalence:

* ``np.add.reduce(M, axis=1)`` of a C-contiguous ``(B, U)`` matrix
  equals the per-row 1-D pairwise reduction, row by row;
* ``np.add.at`` over per-row ascending indices accumulates each row in
  the same sequential order as ``np.bincount``;
* ``np.log2`` is value-deterministic — the same input bits give the same
  output bits regardless of array shape or element position.

The cache must mirror the **incumbent** (not the last evaluated
candidate, as in delta mode): ``evaluate_batch`` never mutates it, and
the annealer calls :meth:`commit` exactly when a move is accepted.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.errors import ConfigurationError
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario

#: One candidate move: the proposed decision plus its touched-user set.
Candidate = Tuple[OffloadingDecision, Tuple[int, ...]]


@dataclass
class StagedBatch:
    """Scalar-phase output of :meth:`BatchEvaluator.stage`, ready to fuse.

    All index lists are parallel per collection; ``finalize_staged``
    consumes one or more of these (possibly from different evaluators
    over the same scenario) in a single vectorized pass.
    """

    evaluator: "BatchEvaluator"
    n_candidates: int
    base_value: float
    #: Flat (candidate, user) pairs whose SINR changed, plus the new SINR
    #: and whether the user was dead (zero spectral efficiency) in the base.
    rows: List[int] = field(default_factory=list)
    cols: List[int] = field(default_factory=list)
    sinr: List[float] = field(default_factory=list)
    was_dead: List[bool] = field(default_factory=list)
    #: Flat (candidate, user) pairs whose net term becomes exactly 0.0
    #: (users the move sends back to local execution).
    zero_rows: List[int] = field(default_factory=list)
    zero_cols: List[int] = field(default_factory=list)
    #: Per-candidate bookkeeping.
    n_offloaded: List[int] = field(default_factory=list)
    n_dead_base: List[int] = field(default_factory=list)
    unchanged: List[bool] = field(default_factory=list)
    #: Candidates whose KKT inputs changed, with their (user, idx, w) fixes.
    dirty_index: List[int] = field(default_factory=list)
    dirty_fixes: List[List[Tuple[int, int, float]]] = field(default_factory=list)


class BatchEvaluator(DeltaEvaluator):
    """Array-at-once scorer for Algorithm-2 neighborhoods.

    Construction cost matches :class:`DeltaEvaluator`.  The inherited
    ``evaluate`` / ``evaluate_assignment`` entry points still work and
    keep the cache in sync, so the annealer's initial and final full
    evaluations need no special casing.
    """

    def __init__(
        self,
        scenario: "Scenario",
        external_rx: Optional[np.ndarray] = None,
    ) -> None:
        if external_rx is not None:
            # stage() rebuilds candidate buckets from occupant rows alone;
            # scoring them without the frozen term would be silently wrong.
            raise ConfigurationError(
                "BatchEvaluator does not model external_rx; use "
                "DeltaEvaluator or ObjectiveEvaluator for boundary re-anneals"
            )
        super().__init__(scenario)
        #: Candidates scored through the vectorized path (telemetry;
        #: direct attribute increments for the same reason as
        #: ``fast_evals`` — the hot loop must not pay for bookkeeping).
        self.batch_evals = 0
        #: Number of ``evaluate_batch`` rounds (vectorized-path hits).
        self.batch_rounds = 0
        #: Candidates committed into the cache (accepted moves).
        self.batch_commits = 0

    # --- Cache sync ---------------------------------------------------------

    def commit(self, decision: OffloadingDecision, touched: Tuple[int, ...]) -> None:
        """Fold an *accepted* candidate into the cache (no evaluation count).

        ``touched`` follows the delta protocol: a superset of the users
        whose assignment differs from the cached incumbent.
        """
        changed = self._touched_changes(decision.server, decision.channel, touched)
        if changed:
            self._apply(changed)
        self.batch_commits += 1

    # --- Staging (scalar phase) ----------------------------------------------

    def stage(self, candidates: Sequence[Candidate]) -> StagedBatch:
        """Diff each candidate against the incumbent cache (no mutation)."""
        # Settle the KKT cache first: kkt-clean candidates reuse
        # _lambda_cost directly in the finalize phase.
        self._settle_kkt()
        staged = StagedBatch(
            evaluator=self,
            n_candidates=len(candidates),
            base_value=self._value(),
        )
        server_list, channel_list = self._server_list, self._channel_list
        band_users, rx_rows = self._band_users, self._rx_rows
        signal_list = self._signal
        dead = self._dead
        rx_table = self._rx_table
        sqrt_eta_list = self._sqrt_eta_list
        noise = self._noise

        for index, (decision, touched) in enumerate(candidates):
            changed = self._touched_changes(decision.server, decision.channel, touched)
            if not changed:
                staged.unchanged.append(True)
                staged.n_offloaded.append(self._n_offloaded)
                staged.n_dead_base.append(self._n_dead)
                continue
            staged.unchanged.append(False)

            # Candidate-local occupancy of the touched bands, mirroring
            # DeltaEvaluator._apply: detach every changed user first, then
            # insert arrivals in ascending-user order.
            bands: Set[int] = set()
            leaving: List[int] = []
            n_offloaded = self._n_offloaded
            n_dead = self._n_dead
            kkt_dirty = False
            fixes: List[Tuple[int, int, float]] = []
            for u, new_server, new_band in changed:
                old_server = server_list[u]
                if old_server != LOCAL:
                    bands.add(channel_list[u])
                    leaving.append(u)
                    n_offloaded -= 1
                    if dead[u]:
                        n_dead -= 1
                if new_server != old_server:
                    kkt_dirty = True
                    if new_server == LOCAL:
                        fixes.append((u, 0, 0.0))
                    else:
                        fixes.append((u, new_server, sqrt_eta_list[u]))
                if new_server == LOCAL:
                    staged.zero_rows.append(index)
                    staged.zero_cols.append(u)
                else:
                    bands.add(new_band)
                    n_offloaded += 1

            occupants_of: Dict[int, List[int]] = {}
            for band in sorted(bands):
                occ = [u for u in band_users[band] if u not in leaving]
                occupants_of[band] = occ
            #: Candidate-local received-power rows for users that moved
            #: onto a (new) band; everyone else keeps the cached row.
            local_rows: Dict[int, List[float]] = {}
            cand_server: Dict[int, int] = {}
            for u, new_server, new_band in changed:
                cand_server[u] = new_server
                if new_server != LOCAL:
                    insort(occupants_of[new_band], u)
                    local_rows[u] = rx_table[u][new_band]

            # Rebuild each touched bucket as the ascending-user sequential
            # sum of its occupants' rows (invariant 1 of the delta
            # contract), then collect the occupants' new SINRs.
            for band in sorted(bands):
                occ = occupants_of[band]
                if not occ:
                    continue
                bucket: Optional[List[float]] = None
                for u in occ:
                    row = local_rows.get(u)
                    if row is None:
                        cached = rx_rows[u]
                        assert cached is not None  # offloaded => has a row
                        row = cached
                    if bucket is None:
                        bucket = list(row)
                    else:
                        for s, value in enumerate(row):
                            bucket[s] += value
                assert bucket is not None
                for u in occ:
                    srv = cand_server.get(u)
                    if srv is None:
                        srv = server_list[u]
                        sig = signal_list[u]
                        # Detaching clears the dead flag in _apply, so a
                        # *changed* user re-enters refresh as not-dead;
                        # only unchanged occupants carry their base flag.
                        was_dead = dead[u]
                    else:
                        sig = local_rows[u][srv]
                        was_dead = False
                    interference = bucket[srv] - sig
                    if interference <= 0.0:  # matches np.maximum(x, 0.0)
                        interference = 0.0
                    staged.rows.append(index)
                    staged.cols.append(u)
                    staged.sinr.append(sig / (interference + noise))
                    staged.was_dead.append(was_dead)

            staged.n_offloaded.append(n_offloaded)
            staged.n_dead_base.append(n_dead)
            if kkt_dirty:
                staged.dirty_index.append(index)
                staged.dirty_fixes.append(fixes)
        return staged

    # --- Public batch entry ---------------------------------------------------

    def evaluate_batch(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """``J*(X)`` (Eq. 24) for every candidate, in one vectorized pass.

        Every value is bit-for-bit what the scalar paths would return for
        the same assignment.  The cache is not modified; call
        :meth:`commit` for the (at most one) candidate the annealer
        accepts.
        """
        n = len(candidates)
        self.evaluations += n
        self.batch_evals += n
        self.batch_rounds += 1
        return finalize_staged([self.stage(candidates)])[0]


def finalize_staged(staged_batches: Sequence[StagedBatch]) -> List[np.ndarray]:
    """Fuse the NumPy phase of one or more staged batches.

    All batches must come from evaluators over scenarios with the same
    user count.  Returns one value vector per staged batch, in order.
    """
    if not staged_batches:
        return []
    # One log2 over every (candidate, user) SINR across all batches —
    # log2 is value-deterministic, so fusing cannot change bits.
    offsets: List[int] = []
    total = 0
    for staged in staged_batches:
        offsets.append(total)
        total += len(staged.sinr)
    all_sinr = np.empty(total)
    position = 0
    for staged in staged_batches:
        count = len(staged.sinr)
        all_sinr[position : position + count] = staged.sinr
        position += count
    all_se = np.log2(1.0 + all_sinr)

    results: List[np.ndarray] = []
    for staged, offset in zip(staged_batches, offsets):
        results.append(_finalize_one(staged, all_se[offset : offset + len(staged.sinr)]))
    return results


def _finalize_one(staged: StagedBatch, se: np.ndarray) -> np.ndarray:
    """Vectorized value computation for one staged batch."""
    evaluator = staged.evaluator
    n_candidates = staged.n_candidates
    if n_candidates == 0:
        return np.empty(0)
    n_users = evaluator.scenario.n_users

    # (B, U) net-benefit matrix: every row starts as the incumbent's
    # masked array, then the affected entries are scattered in.  The
    # arithmetic (gain - comm / se) is the same elementwise IEEE kernel
    # the scalar paths use (delta invariant 2).  Broadcast-assign rather
    # than np.repeat: same bits, one memcpy-speed fill.
    net = np.empty((n_candidates, n_users))
    net[:] = evaluator._net[None, :]
    rows = np.asarray(staged.rows, dtype=np.intp)
    cols = np.asarray(staged.cols, dtype=np.intp)
    dead_delta = np.zeros(n_candidates)
    if rows.size:
        alive = se > 0.0
        gain = np.asarray(evaluator.scenario.offload_gain)[cols]
        comm = np.asarray(evaluator.scenario.comm_weight)[cols]
        values = np.zeros(rows.size)
        values[alive] = gain[alive] - comm[alive] / se[alive]
        net[rows, cols] = values
        was_dead = np.asarray(staged.was_dead)
        # A user's dead flag flips when its aliveness changed.
        np.add.at(dead_delta, rows[~alive & ~was_dead], 1.0)
        np.add.at(dead_delta, rows[alive & was_dead], -1.0)
    if staged.zero_rows:
        net[np.asarray(staged.zero_rows, dtype=np.intp),
            np.asarray(staged.zero_cols, dtype=np.intp)] = 0.0
    net_sums = np.add.reduce(net, axis=1)

    # Lambda(X, F*) per candidate: clean candidates reuse the cached
    # cost; dirty ones rerun the scalar path's own masked-bincount
    # kernel against the shared cache with the candidate's fixes applied
    # in place (then reverted).  np.bincount accumulates each bucket
    # sequentially in ascending user order — the pinned contract — so
    # this is bit-for-bit the np.add.at row scatter it replaces, without
    # materializing (B, U) index/weight copies.
    lambda_cost = np.full(n_candidates, evaluator._lambda_cost)
    if staged.dirty_index:
        idx = evaluator._idx
        weights = evaluator._w
        n_servers = evaluator._n_servers
        cpu_hz = evaluator._cpu_hz
        for index, fixes in zip(staged.dirty_index, staged.dirty_fixes):
            saved = [(u, idx[u], weights[u]) for u, _, _ in fixes]
            for u, new_idx, new_w in fixes:
                idx[u] = new_idx
                weights[u] = new_w
            root_sums = np.bincount(idx, weights=weights, minlength=n_servers)
            lambda_cost[index] = np.add.reduce(root_sums * root_sums / cpu_hz)
            for u, old_idx, old_w in saved:
                idx[u] = old_idx
                weights[u] = old_w

    out = net_sums - lambda_cost
    n_offloaded = np.asarray(staged.n_offloaded)
    out[n_offloaded == 0] = 0.0
    n_dead = np.asarray(staged.n_dead_base) + dead_delta
    out[n_dead > 0] = float("-inf")
    if staged.unchanged:
        out[np.asarray(staged.unchanged, dtype=bool)] = staged.base_value
    return out


__all__ = [
    "BatchEvaluator",
    "Candidate",
    "StagedBatch",
    "finalize_staged",
]
