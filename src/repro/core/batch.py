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

:class:`ParallelTemperingScheduler` amortizes one finalize across
multiple annealing chains at staggered temperatures: every chain stages
its own batch against its own cache, and :func:`finalize_staged` fuses
the NumPy phase.  Parallel tempering is a different search algorithm —
it makes no bitwise-equivalence claim against the scalar path, only a
seeded-determinism one.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.allocation import kkt_allocation
from repro.core.annealing import AnnealingSchedule, ThresholdTriggeredAnnealer
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler
from repro.errors import ConfigurationError
from repro.obs.clock import Stopwatch
from repro.obs.recorder import get_recorder
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.scheduler import ScheduleResult
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

    Construction cost matches :class:`DeltaEvaluator` (pass
    ``share_constants_from`` to alias another instance's per-scenario
    constants).  The inherited ``evaluate`` / ``evaluate_assignment``
    entry points still work and keep the cache in sync, so the annealer's
    initial and final full evaluations need no special casing.
    """

    def __init__(
        self,
        scenario: "Scenario",
        external_rx: Optional[np.ndarray] = None,
        *,
        share_constants_from: Optional[DeltaEvaluator] = None,
    ) -> None:
        if external_rx is not None:
            # stage() rebuilds candidate buckets from occupant rows alone;
            # scoring them without the frozen term would be silently wrong.
            raise ConfigurationError(
                "BatchEvaluator does not model external_rx; use "
                "DeltaEvaluator or ObjectiveEvaluator for boundary re-anneals"
            )
        super().__init__(scenario, share_constants_from=share_constants_from)
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
        p_list, gain_rows = self._p_list, self._gain_rows
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
                    p = p_list[u]
                    local_rows[u] = [g * p for g in gain_rows[u][new_band]]

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
    user count (parallel-tempering chains share one scenario).  Returns
    one value vector per staged batch, in order.
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


class ParallelTemperingScheduler:
    """TSAJS with parallel-tempering chains sharing one vectorized batch.

    Runs ``n_chains`` threshold-triggered annealing chains at staggered
    temperatures (chain ``c`` starts at ``T0 * temperature_spacing**c``),
    each scoring speculative candidate batches against its own
    :class:`BatchEvaluator` cache; every round fuses all chains' staging
    output through one :func:`finalize_staged` call, which is the
    amortization this mode exists for.  Every ``swap_every`` temperature
    levels, adjacent chains attempt a replica-exchange (Metropolis
    criterion on the inverse-temperature gap), letting hot-chain
    discoveries migrate to the cold chain.

    The result is deterministic for a fixed RNG (chains draw from
    ``rng.spawn`` streams) but *not* bitwise-equal to the single-chain
    path — it is a different search algorithm.
    """

    name = "TSAJS-PT"

    def __init__(
        self,
        schedule: Optional[AnnealingSchedule] = None,
        neighborhood: Optional[NeighborhoodSampler] = None,
        n_chains: int = 4,
        temperature_spacing: float = 1.6,
        batch_size: int = 16,
        swap_every: int = 4,
        initial_offload_probability: float = 0.5,
    ) -> None:
        if n_chains < 1:
            raise ConfigurationError(f"n_chains must be >= 1, got {n_chains}")
        if temperature_spacing <= 1.0:
            raise ConfigurationError(
                f"temperature_spacing must exceed 1, got {temperature_spacing}"
            )
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if swap_every < 1:
            raise ConfigurationError(f"swap_every must be >= 1, got {swap_every}")
        self.schedule_params = schedule if schedule is not None else AnnealingSchedule()
        self.neighborhood = (
            neighborhood if neighborhood is not None else NeighborhoodSampler()
        )
        self.n_chains = n_chains
        self.temperature_spacing = temperature_spacing
        self.batch_size = batch_size
        self.swap_every = swap_every
        self.initial_offload_probability = initial_offload_probability

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Solve one scenario with ``n_chains`` tempered chains."""
        # Imported lazily: scheduler imports this module at package-init
        # time (and sim imports scheduler), so top-level imports of
        # either would be circular.
        from repro.core.scheduler import ScheduleResult
        from repro.sim.rng import make_rng

        rng = rng if rng is not None else make_rng()
        rec = get_recorder()
        watch = Stopwatch()
        sched = self.schedule_params
        with rec.span(
            "scheduler.schedule",
            scheme=self.name,
            n_users=scenario.n_users,
            n_servers=scenario.n_servers,
            n_subbands=scenario.n_subbands,
            n_chains=self.n_chains,
            batch_size=self.batch_size,
        ):
            if scenario.n_users == 0:
                empty = OffloadingDecision.all_local(
                    0, scenario.n_servers, scenario.n_subbands
                )
                evaluator = BatchEvaluator(scenario)
                return ScheduleResult(
                    decision=empty,
                    allocation=kkt_allocation(scenario, empty),
                    utility=evaluator.evaluate(empty),
                    evaluations=evaluator.evaluations,
                    wall_time_s=watch.elapsed(),
                )

            streams = rng.spawn(self.n_chains + 1)
            swap_rng = streams[-1]
            chains: List[_Chain] = []
            for c in range(self.n_chains):
                chains.append(
                    _Chain(
                        scenario=scenario,
                        neighborhood=self.neighborhood,
                        schedule=sched,
                        temperature=self._initial_temperature(scenario)
                        * self.temperature_spacing**c,
                        rng=streams[c],
                        share_from=chains[0].evaluator if chains else None,
                    )
                )
            for chain in chains:
                chain.start(self.initial_offload_probability)

            level = 0
            swaps_accepted = 0
            # The coldest chain (index 0) owns the stopping criterion.
            while chains[0].temperature > sched.min_temperature:
                for chain in chains:
                    chain.begin_level()
                while any(chain.steps_left > 0 for chain in chains):
                    active = [chain for chain in chains if chain.steps_left > 0]
                    staged = [
                        chain.propose_batch(self.batch_size) for chain in active
                    ]
                    for chain, values in zip(active, finalize_staged(staged)):
                        chain.scan(values)
                for chain in chains:
                    chain.cool()
                level += 1
                if level % self.swap_every == 0:
                    swaps_accepted += self._attempt_swaps(chains, swap_rng)

            best_chain = max(chains, key=lambda chain: chain.best_value)
            best = best_chain.best
            if best_chain.best_value < 0.0:
                best = OffloadingDecision.all_local(
                    scenario.n_users, scenario.n_servers, scenario.n_subbands
                )
            evaluator = chains[0].evaluator
            utility = evaluator.evaluate(best)
            evaluations = 0
            batch_evals = 0
            accepted_moves = 0
            for chain in chains:
                evaluations += chain.evaluator.evaluations
                batch_evals += chain.evaluator.batch_evals
                accepted_moves += chain.accepted_moves
            if rec.enabled:
                rec.event(
                    "scheduler.result",
                    scheme=self.name,
                    utility=float(utility),
                    evaluations=evaluations,
                    batch_evals=batch_evals,
                    n_chains=self.n_chains,
                    swaps_accepted=swaps_accepted,
                    levels=level,
                    n_offloaded=int(best.n_offloaded()),
                )
            return ScheduleResult(
                decision=best,
                allocation=kkt_allocation(scenario, best),
                utility=utility,
                evaluations=evaluations,
                wall_time_s=watch.elapsed(),
                accepted_moves=accepted_moves,
            )

    def _initial_temperature(self, scenario: "Scenario") -> float:
        if self.schedule_params.initial_temperature is not None:
            return self.schedule_params.initial_temperature
        return float(scenario.n_subbands)

    def _attempt_swaps(
        self, chains: List["_Chain"], swap_rng: np.random.Generator
    ) -> int:
        """Replica exchange between adjacent chains (cold-to-hot order)."""
        accepted = 0
        for cold, hot in zip(chains, chains[1:]):
            # Maximization form of the PT criterion: swapping helps when
            # the hot chain found a better value than the cold one.
            gap = (1.0 / cold.temperature - 1.0 / hot.temperature) * (
                hot.current_value - cold.current_value
            )
            if gap >= 0.0 or np.exp(gap) > swap_rng.random():
                cold.exchange_with(hot)
                accepted += 1
        return accepted


class _Chain:
    """One tempered annealing chain: state, cache and trigger counters."""

    def __init__(
        self,
        scenario: "Scenario",
        neighborhood: NeighborhoodSampler,
        schedule: AnnealingSchedule,
        temperature: float,
        rng: np.random.Generator,
        share_from: Optional[BatchEvaluator],
    ) -> None:
        self.scenario = scenario
        self.neighborhood = neighborhood
        self.schedule = schedule
        self.temperature = temperature
        self.rng = rng
        self.evaluator = BatchEvaluator(scenario, share_constants_from=share_from)
        self.current: OffloadingDecision
        self.current_value = 0.0
        self.best: OffloadingDecision
        self.best_value = 0.0
        self.accepted_moves = 0
        self.accepted_worse = 0
        self.steps_left = 0
        self._pending: List[Candidate] = []

    def start(self, initial_offload_probability: float) -> None:
        self.current = OffloadingDecision.random_feasible(
            self.scenario.n_users,
            self.scenario.n_servers,
            self.scenario.n_subbands,
            self.rng,
            offload_probability=initial_offload_probability,
        )
        self.current_value = self.evaluator.evaluate(self.current)
        self.best = self.current
        self.best_value = self.current_value

    def begin_level(self) -> None:
        self.steps_left = self.schedule.chain_length

    def propose_batch(self, batch_size: int) -> StagedBatch:
        """Speculative candidates from the incumbent, staged for fusion."""
        count = min(batch_size, self.steps_left)
        self._pending = [
            self.neighborhood.propose_move(self.current, self.rng)
            for _ in range(count)
        ]
        evaluator = self.evaluator
        evaluator.evaluations += count
        evaluator.batch_evals += count
        evaluator.batch_rounds += 1
        return evaluator.stage(self._pending)

    def scan(self, values: np.ndarray) -> None:
        """Metropolis over the batch; stop at the first acceptance.

        Unlike the bitwise single-chain batch mode, rejected-then-stale
        candidates are simply dropped (no RNG replay): parallel tempering
        defines its own chain semantics.
        """
        consumed = len(self._pending)
        for i, (candidate, touched) in enumerate(self._pending):
            value = float(values[i])
            delta = value - self.current_value
            accept = delta > 0
            if not accept and delta > float("-inf"):
                accept = bool(np.exp(delta / self.temperature) > self.rng.random())
                if accept:
                    self.accepted_worse += 1
            if accept:
                self.current, self.current_value = candidate, value
                self.accepted_moves += 1
                self.evaluator.commit(candidate, touched)
                if value > self.best_value:
                    self.best, self.best_value = candidate, value
                consumed = i + 1
                break
        self.steps_left -= consumed
        self._pending = []

    def cool(self) -> None:
        if self.accepted_worse < self.schedule.max_count:
            self.temperature *= self.schedule.alpha_slow
        else:
            self.temperature *= self.schedule.alpha_fast
            self.accepted_worse = 0

    def exchange_with(self, other: "_Chain") -> None:
        """Swap incumbents with ``other`` and resync both caches."""
        self.current, other.current = other.current, self.current
        self.current_value, other.current_value = (
            other.current_value,
            self.current_value,
        )
        # Full-vector resync (touched=None diffs the whole assignment).
        self.evaluator.evaluate_assignment(
            self.current.server, self.current.channel
        )
        other.evaluator.evaluate_assignment(
            other.current.server, other.current.channel
        )


__all__ = [
    "BatchEvaluator",
    "Candidate",
    "ParallelTemperingScheduler",
    "StagedBatch",
    "finalize_staged",
]
