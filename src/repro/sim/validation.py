"""End-to-end feasibility validation of a scheduling outcome.

Checks every constraint of problem (12) against a concrete
``(scenario, decision, allocation)`` triple.  Schedulers maintain these
invariants by construction; this module re-derives them from scratch so
tests (and paranoid callers) can verify any result independently.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from repro.core.decision import OffloadingDecision
from repro.core.partition import validate_radii
from repro.core.scheduler import ScheduleResult
from repro.errors import InfeasibleAllocationError, InfeasibleDecisionError
from repro.net.pathloss import UrbanMacroPathLoss
from repro.net.topology import Topology
from repro.sim.scenario import Scenario

#: Relative tolerance for the capacity constraint (12f).
_CAPACITY_RTOL = 1e-9

#: Margin (linear power ratio) by which the mean received power at the
#: far-field cutoff radius must sit *below* the noise floor for the
#: cutoff assumption to hold — 10 dB, i.e. neglected interferers each
#: contribute at most a tenth of the thermal noise.
_FARFIELD_MARGIN = 0.1


def validate_decision(scenario: Scenario, decision: OffloadingDecision) -> None:
    """Raise unless ``decision`` satisfies constraints (12b)-(12d)."""
    if (
        decision.n_users != scenario.n_users
        or decision.n_servers != scenario.n_servers
        or decision.n_channels != scenario.n_subbands
    ):
        raise InfeasibleDecisionError(
            "decision dimensions do not match the scenario: "
            f"({decision.n_users}, {decision.n_servers}, {decision.n_channels}) vs "
            f"({scenario.n_users}, {scenario.n_servers}, {scenario.n_subbands})"
        )
    dense = decision.to_dense()
    # (12b) binary is structural in to_dense; (12c) one slot per user:
    if np.any(dense.reshape(scenario.n_users, -1).sum(axis=1) > 1):
        raise InfeasibleDecisionError("a user holds multiple slots (12c)")
    # (12d) one user per slot:
    if np.any(dense.sum(axis=0) > 1):
        raise InfeasibleDecisionError("a slot holds multiple users (12d)")


def validate_allocation(
    scenario: Scenario, decision: OffloadingDecision, allocation: np.ndarray
) -> None:
    """Raise unless ``allocation`` satisfies constraints (12e)-(12f)."""
    allocation = np.asarray(allocation, dtype=float)
    if allocation.shape != (scenario.n_users, scenario.n_servers):
        raise InfeasibleAllocationError(
            "allocation must have shape "
            f"({scenario.n_users}, {scenario.n_servers}), got {allocation.shape}"
        )
    if np.any(allocation < 0.0):
        raise InfeasibleAllocationError("negative CPU share")
    for s in range(scenario.n_servers):
        capacity = scenario.server_cpu_hz[s]
        used = float(allocation[:, s].sum())
        if used > capacity * (1.0 + _CAPACITY_RTOL):
            raise InfeasibleAllocationError(
                f"server {s} over-allocated: {used} > {capacity} (12f)"
            )
        for u in range(scenario.n_users):
            attached = decision.server[u] == s
            share = allocation[u, s]
            if attached and share <= 0.0:
                raise InfeasibleAllocationError(
                    f"user {u} attached to server {s} has no CPU share (12e)"
                )
            if not attached and share != 0.0:
                raise InfeasibleAllocationError(
                    f"user {u} not attached to server {s} but has share {share}"
                )


def validate_result(scenario: Scenario, result: ScheduleResult) -> None:
    """Validate a full scheduler outcome (decision + allocation)."""
    validate_decision(scenario, result.decision)
    validate_allocation(scenario, result.decision, result.allocation)


def is_feasible_result(scenario: Scenario, result: ScheduleResult) -> bool:
    """Boolean convenience wrapper around :func:`validate_result`."""
    try:
        validate_result(scenario, result)
    except (InfeasibleDecisionError, InfeasibleAllocationError):
        return False
    return True


def validate_sharding_geometry(
    cluster_radius_km: float,
    interference_radius_km: float,
    *,
    tx_power_watts: float,
    noise_watts: float,
    pathloss: UrbanMacroPathLoss,
    topology: Optional[Topology] = None,
) -> List[str]:
    """Check the sharding radii against the path-loss model's validity.

    Raises :class:`ConfigurationError` for non-positive radii.  Two
    soft hazards are *warned* about (via :mod:`warnings`) and returned
    as messages so callers and tests can inspect them:

    * **far-field cutoff invalid** — the mean received power at the
      interference radius is within 10 dB of the noise floor, so
      interferers the partition neglects are not actually negligible
      (log-normal shadowing widens the tail further);
    * **cluster diameter below the cutoff** — with
      ``interference_radius_km > cluster_radius_km`` a boundary halo
      spans whole neighbouring tiles, i.e. the clusters are too small
      for the locality assumption and the decomposition degenerates to
      "everything is boundary".

    ``topology`` additionally enables a sanity note when the whole
    deployment fits inside one interference radius (sharding then buys
    nothing: every pair of cells couples).
    """
    validate_radii(cluster_radius_km, interference_radius_km)
    messages: List[str] = []
    cutoff_rx = tx_power_watts * pathloss.gain_linear(interference_radius_km)
    if cutoff_rx > noise_watts * _FARFIELD_MARGIN:
        messages.append(
            "far-field cutoff assumption invalid: mean received power at "
            f"{interference_radius_km} km is {cutoff_rx:.3e} W, above "
            f"{_FARFIELD_MARGIN:g}x the noise floor ({noise_watts:.3e} W); "
            "increase interference_radius_km so neglected interferers are "
            "actually negligible"
        )
    if interference_radius_km > cluster_radius_km:
        messages.append(
            "cluster diameter below the far-field cutoff: "
            f"interference_radius_km={interference_radius_km} exceeds "
            f"cluster_radius_km={cluster_radius_km}, so boundary halos span "
            "whole neighbouring clusters; enlarge cluster_radius_km for an "
            "effective decomposition"
        )
    if topology is not None and topology.extent_km() <= interference_radius_km:
        messages.append(
            "deployment extent "
            f"({topology.extent_km():.3g} km) does not exceed the "
            f"interference radius ({interference_radius_km} km): every cell "
            "pair couples, so sharding degenerates to a single cluster's "
            "cost with extra bookkeeping"
        )
    for message in messages:
        warnings.warn(message, stacklevel=2)
    return messages
