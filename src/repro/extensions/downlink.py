"""Downlink-aware offloading evaluation.

The core model ignores the result-return delay "due to the small amount
of output data and the fast data transmission rate in the downlink"
(Sec. III-A-2), but the paper notes the algorithm "can still adapt by
taking into account the actual downlink rate and the output data size".

This module implements that adaptation:

* :class:`DownlinkModel` computes per-link downlink rates.  Base stations
  transmit at macro-cell power on the full band; downlink transmissions
  from different stations are coordinated (C-RAN, Sec. I), so the rate is
  SNR-limited: ``R_dl[u, s] = B * log2(1 + P_bs * h[u, s] / sigma^2)``.
* :class:`DownlinkAwareEvaluator` extends the objective with the return
  delay ``t_dl = o_u / R_dl[u, s]`` of shipping ``o_u`` output bits back.
  The extra term is constant per (user, server) pair once ``X`` is fixed,
  so the problem decomposition — and the KKT allocation — are unchanged;
  only the communication cost ``Gamma(X)`` gains a term.  TSAJS and every
  baseline can therefore run unmodified against this evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.decision import OffloadingDecision
from repro.core.objective import ObjectiveEvaluator, UtilityBreakdown
from repro.errors import ConfigurationError
from repro.sim.scenario import Scenario
from repro.units import dbm_to_watts


@dataclass(frozen=True)
class DownlinkModel:
    """Downlink rate model: coordinated full-band SNR-limited links.

    Parameters
    ----------
    bs_tx_power_dbm:
        Base-station transmit power (46 dBm is a standard macro cell).
    output_fraction:
        Task output size as a fraction of the input size ``d_u`` (the
        result of a computation is typically much smaller than its input;
        0.1 means 10 % of the input volume travels back).
    """

    bs_tx_power_dbm: float = 46.0
    output_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.output_fraction <= 0:
            raise ConfigurationError(
                f"output_fraction must be positive, got {self.output_fraction}"
            )

    @property
    def bs_tx_power_watts(self) -> float:
        return dbm_to_watts(self.bs_tx_power_dbm)

    def rates_bps(self, scenario: Scenario) -> np.ndarray:
        """Downlink rate matrix ``R_dl[u, s]`` over the full band.

        Uses the frequency-flat link gain (band 0 of the uplink tensor —
        the channel is reciprocal on the association timescale).
        """
        link_gains = scenario.gains[:, :, 0]
        snr = self.bs_tx_power_watts * link_gains / scenario.noise_watts
        return scenario.ofdma.total_bandwidth_hz * np.log2(1.0 + snr)

    def output_bits(self, scenario: Scenario) -> np.ndarray:
        """Per-user output size ``o_u = output_fraction * d_u``."""
        return self.output_fraction * scenario.input_bits


class DownlinkAwareEvaluator(ObjectiveEvaluator):
    """Objective evaluator with the result-return delay included.

    The offload latency of Eq. (8) becomes
    ``t_u = t_upload + t_execute + t_download`` with
    ``t_download = o_u / R_dl[u, s]``.  Only the time-preference term of
    ``J_u`` is affected (receiving costs the handset no transmit energy),
    adding the constant penalty
    ``lam_u * beta_t_u * t_download / t_local_u`` per offloaded user.
    """

    def __init__(
        self, scenario: Scenario, downlink: Optional[DownlinkModel] = None
    ) -> None:
        super().__init__(scenario)
        self.downlink = downlink if downlink is not None else DownlinkModel()
        rates = self.downlink.rates_bps(scenario)
        if np.any(rates <= 0.0):
            raise ConfigurationError("downlink rates must be positive")
        output_bits = self.downlink.output_bits(scenario)
        #: ``t_dl[u, s]``: result-return delay if user u offloads to s.
        self.download_time_s = output_bits[:, None] / rates
        if scenario.n_users:
            #: Fixed per-(u, s) utility penalty for the return trip.
            self._penalty = (
                scenario.operator_weight[:, None]
                * scenario.beta_time[:, None]
                * self.download_time_s
                / scenario.local_time_s[:, None]
            )
        else:
            self._penalty = np.zeros((0, scenario.n_servers))

    def _score_assignment(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        touched: Optional[Iterable[int]],
    ) -> float:
        # A full evaluation is exact for any move, so ``touched`` only
        # passes through to the base scoring (which ignores it).
        base = super()._score_assignment(server_of_user, channel_of_user, touched)
        offloaded = np.flatnonzero(np.asarray(server_of_user) >= 0)
        if offloaded.size == 0 or not np.isfinite(base):
            return base
        servers = np.asarray(server_of_user)[offloaded]
        return base - float(self._penalty[offloaded, servers].sum())

    def breakdown(
        self,
        decision: OffloadingDecision,
        allocation: Optional[np.ndarray] = None,
    ) -> UtilityBreakdown:
        base = super().breakdown(decision, allocation)
        sc = self.scenario
        time_s = base.time_s.copy()
        utility = base.utility.copy()
        download = np.zeros(sc.n_users)
        for u in np.flatnonzero(base.offloaded):
            s = int(decision.server[u])
            download[u] = self.download_time_s[u, s]
            time_s[u] += download[u]
            utility[u] -= sc.beta_time[u] * download[u] / sc.local_time_s[u]
        system_utility = float(np.sum(sc.operator_weight * utility))
        return UtilityBreakdown(
            system_utility=system_utility,
            utility=utility,
            rate_bps=base.rate_bps,
            sinr=base.sinr,
            upload_time_s=base.upload_time_s,
            execute_time_s=base.execute_time_s,
            time_s=time_s,
            energy_j=base.energy_j,
            offloaded=base.offloaded,
            allocation=base.allocation,
        )
