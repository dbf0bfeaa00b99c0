"""Utility and cost evaluation for the JTORA problem.

Three evaluation paths are provided and kept consistent (property-tested):

* the **fast path** :meth:`ObjectiveEvaluator.evaluate` computes the
  optimal-value function ``J*(X)`` of Eq. (24) directly from the closed
  forms — ``sum lam_u (beta_t + beta_e)`` over offloaders minus the
  communication cost ``Gamma(X)`` (first term of Eq. 19) minus the optimal
  computation cost ``Lambda(X, F*)`` (Eq. 23).  This is the annealer's
  inner-loop objective.

* the **explicit path** :meth:`ObjectiveEvaluator.breakdown` materialises
  the per-user delays, energies and utilities of Eq. (8)-(10) for a given
  allocation and sums them per Eq. (11).  With the KKT allocation the two
  paths agree exactly.

* the **delta path** :class:`~repro.core.delta.DeltaEvaluator` computes
  the same ``J*(X)`` incrementally from a cache of the previous
  assignment, recomputing only the terms a single-user move can change.
  It is bit-for-bit equal to the fast path; to make that possible the
  fast path below reduces over *fixed-length* masked arrays (zeros for
  local users) in a fixed order, which the delta path maintains
  incrementally and reduces identically.  Keep the two in lockstep when
  editing either.  The delta path is what every TSAJS solve and every
  search baseline (hJTORA, LocalSearch, Exhaustive, Greedy, GA) runs by
  default; this class is its oracle (``use_delta=False`` for TSAJS,
  ``evaluator_factory=ObjectiveEvaluator`` for a baseline).

Every evaluator shares one counted entry point,
:meth:`ObjectiveEvaluator.evaluate_assignment`: it increments
``evaluations`` and delegates to the overridable
:meth:`~ObjectiveEvaluator._score_assignment`.  Subclasses (the delta
cache, the downlink-aware objective) override only the scoring method,
so the Fig. 8 evaluation counts see every call on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.allocation import kkt_allocation
from repro.core.decision import OffloadingDecision
from repro.errors import ConfigurationError
from repro.net.sinr import compute_link_stats
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


@dataclass(frozen=True)
class UtilityBreakdown:
    """Per-user quantities realised by one (decision, allocation) pair.

    All arrays have length ``U``.  For a *local* user the experienced time
    and energy are the local-execution values and its offloading utility
    ``J_u`` is zero (it does not participate in Eq. 11's sum because
    ``sum_s x_us = 0``).

    Attributes
    ----------
    system_utility:
        ``J(X, F) = sum_u lam_u J_u`` (Eq. 11).
    utility:
        Per-user offloading benefit ``J_u`` (Eq. 10); zero for local users.
    rate_bps, sinr:
        Uplink statistics (zero for local users).
    upload_time_s, execute_time_s:
        Offload latency components (Eq. 5 and 7); zero for local users.
    time_s, energy_j:
        The completion time / energy each user actually experiences
        (offload values if offloaded, local values otherwise).
    offloaded:
        Boolean mask of offloading users.
    allocation:
        The ``(U, S)`` CPU-share matrix used.
    """

    system_utility: float
    utility: np.ndarray
    rate_bps: np.ndarray
    sinr: np.ndarray
    upload_time_s: np.ndarray
    execute_time_s: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray
    offloaded: np.ndarray
    allocation: np.ndarray

    @property
    def n_offloaded(self) -> int:
        return int(np.count_nonzero(self.offloaded))


class ObjectiveEvaluator:
    """Evaluates offloading decisions against one scenario.

    The evaluator precomputes nothing beyond what :class:`Scenario` already
    holds; it exists to give the schedulers a single, well-tested objective
    implementation and to count evaluations (used by the runtime figures).
    """

    def __init__(
        self, scenario: "Scenario", external_rx: Optional[np.ndarray] = None
    ) -> None:
        self.scenario = scenario
        #: Optional ``(N, S)`` frozen out-of-instance received power
        #: (the sharded scheduler's boundary coupling); ``None`` leaves
        #: the evaluation path bitwise identical to the global one.
        self.external_rx = (
            None if external_rx is None else np.asarray(external_rx, dtype=float)
        )
        expected = (scenario.n_subbands, scenario.n_servers)
        if self.external_rx is not None and self.external_rx.shape != expected:
            raise ConfigurationError(
                f"external_rx must have shape {expected}, got "
                f"{self.external_rx.shape}"
            )
        #: Number of fast-path objective evaluations performed, for the
        #: algorithm-complexity experiments (Fig. 8).
        self.evaluations = 0
        #: Touched set of the move :meth:`evaluate_move` is scoring, read
        #: by :meth:`evaluate_assignment` when no ``touched`` is passed.
        self._move_touched: Optional[Iterable[int]] = None

    # --- Fast path (Eq. 24) -------------------------------------------------

    def evaluate_assignment(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        touched: Optional[Iterable[int]] = None,
    ) -> float:
        """``J*(X)`` (Eq. 24) for raw assignment vectors (hot path, no validation).

        The one counted entry point: increments :attr:`evaluations` and
        delegates to :meth:`_score_assignment`.  ``touched`` optionally
        lists a superset of the users whose assignment may differ from
        the previously evaluated one (the delta path's hint, see
        :mod:`repro.core.delta`); the full path ignores it.  Left out, it
        is the touched set of the move :meth:`evaluate_move` is scoring,
        if any.

        Returns ``-inf`` when an offloaded user has zero achievable rate
        (the upload would never finish, so the decision has unbounded
        cost) — the annealer then steers away from it.
        """
        self.evaluations += 1
        if touched is None:
            touched = self._move_touched
        return self._score_assignment(server_of_user, channel_of_user, touched)

    def evaluate_move(
        self, decision: OffloadingDecision, touched: Iterable[int] = ()
    ) -> float:
        """``J*(X)`` (Eq. 24) for an annealer proposal whose changed users lie in ``touched``.

        Calls :meth:`evaluate_assignment` with the two assignment vectors
        only and hands ``touched`` over through the instance, so
        overrides and wrappers written against the two-argument
        signature still see, and count, every move.
        """
        self._move_touched = touched
        try:
            return self.evaluate_assignment(decision.server, decision.channel)
        finally:
            self._move_touched = None

    def _score_assignment(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        touched: Optional[Iterable[int]],
    ) -> float:
        """``J*(X)`` (Eq. 24) recomputed from scratch; ``touched`` is unused."""
        sc = self.scenario
        stats = compute_link_stats(
            sc.gains,
            sc.tx_power_watts,
            sc.noise_watts,
            sc.subband_width_hz,
            server_of_user,
            channel_of_user,
            validate=False,
            external_rx=self.external_rx,
        )
        mask = server_of_user >= 0
        offloaded = np.flatnonzero(mask)
        if offloaded.size == 0:
            return 0.0
        se = stats.spectral_efficiency[offloaded]
        if np.any(se <= 0.0):
            return float("-inf")

        # Net per-user benefit: the constant gain term of Eq. (16)/(24)
        # minus the communication cost Gamma(X) (first term of Eq. 19),
        # held in a full-length masked array (zeros for local users).
        # The delta path maintains this exact array incrementally and
        # reduces it the same way, so the two paths agree bitwise.
        net = np.zeros(sc.n_users)
        net[offloaded] = sc.offload_gain[offloaded] - sc.comm_weight[offloaded] / se

        # Lambda(X, F*): optimal computation cost (Eq. 23), grouped by
        # server.  Local users contribute an exact-identity 0.0 to bucket
        # 0 so the reduction shape stays fixed across assignments.
        root_sums = np.bincount(
            np.where(mask, server_of_user, 0),
            weights=np.where(mask, sc.sqrt_eta, 0.0),
            minlength=sc.n_servers,
        )
        lambda_cost = float((root_sums * root_sums / sc.server_cpu_hz).sum())
        return float(net.sum()) - lambda_cost

    def evaluate(self, decision: OffloadingDecision) -> float:
        """``J*(X)`` (Eq. 24) for a decision object."""
        return self.evaluate_assignment(decision.server, decision.channel)

    # --- Explicit path (Eq. 8-11) --------------------------------------------

    def breakdown(
        self,
        decision: OffloadingDecision,
        allocation: Optional[np.ndarray] = None,
    ) -> UtilityBreakdown:
        """Materialise per-user delays, energies and utilities (Eq. 8-11).

        Parameters
        ----------
        decision:
            The offloading decision ``X``.
        allocation:
            CPU-share matrix ``F``; defaults to the KKT optimum (Eq. 22).
        """
        sc = self.scenario
        if allocation is None:
            allocation = kkt_allocation(sc, decision)
        else:
            allocation = np.asarray(allocation, dtype=float)
            if allocation.shape != (sc.n_users, sc.n_servers):
                raise ConfigurationError(
                    "allocation must have shape "
                    f"({sc.n_users}, {sc.n_servers}), got {allocation.shape}"
                )

        stats = compute_link_stats(
            sc.gains,
            sc.tx_power_watts,
            sc.noise_watts,
            sc.subband_width_hz,
            decision.server,
            decision.channel,
            external_rx=self.external_rx,
        )
        n = sc.n_users
        upload = np.zeros(n)
        execute = np.zeros(n)
        time_s = sc.local_time_s.copy()
        energy = sc.local_energy_j.copy()
        utility = np.zeros(n)
        offloaded_mask = decision.server >= 0

        for u in np.flatnonzero(offloaded_mask):
            s = int(decision.server[u])
            rate = stats.rate_bps[u]
            share = allocation[u, s]
            if rate <= 0.0:
                upload[u] = np.inf
            else:
                upload[u] = sc.input_bits[u] / rate
            if share <= 0.0:
                execute[u] = np.inf
            else:
                execute[u] = sc.cycles[u] / share
            time_s[u] = upload[u] + execute[u]
            energy[u] = sc.tx_power_watts[u] * upload[u]
            time_saving = (sc.local_time_s[u] - time_s[u]) / sc.local_time_s[u]
            energy_saving = (sc.local_energy_j[u] - energy[u]) / sc.local_energy_j[u]
            utility[u] = (
                sc.beta_time[u] * time_saving + sc.beta_energy[u] * energy_saving
            )

        system_utility = float(np.sum(sc.operator_weight * utility))
        return UtilityBreakdown(
            system_utility=system_utility,
            utility=utility,
            rate_bps=stats.rate_bps,
            sinr=stats.sinr,
            upload_time_s=upload,
            execute_time_s=execute,
            time_s=time_s,
            energy_j=energy,
            offloaded=offloaded_mask,
            allocation=allocation,
        )
