"""Spatial partitioning of a metro-scale topology into cell clusters.

The paper's interference model is local: with the urban-macro path loss
``L[dB] = 140.7 + 36.7 log10(d_km)`` (Eq. 2), a transmitter one
inter-site distance away is received tens of dB below the noise floor,
so co-channel coupling between far cells is negligible.  This module
exploits that locality.  It partitions the base stations of a
:class:`~repro.net.topology.Topology` into **clusters** of nearby cells
and assigns every user to the cluster of its nearest station, so each
cluster forms an almost-independent TTSA instance.  The residual
coupling is captured by the **boundary set**: users within a
configurable interference radius of a foreign cluster's station, which
the sharded scheduler reconciles explicitly
(:mod:`repro.core.sharding`).

The partition is deterministic and relabeling-invariant by
construction:

* stations are binned into square grid tiles of side
  ``cluster_radius_km`` anchored at the elementwise minimum of the
  station coordinates (a permutation-invariant origin);
* clusters are ordered lexicographically by tile coordinate, and the
  member index arrays are sorted ascending — so permuting user or
  server labels permutes the membership arrays but never the geometry
  of the partition (pinned by ``tests/test_partition.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.decision import LOCAL, OffloadingDecision
from repro.errors import ConfigurationError
from repro.net.sinr import total_received_power
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario

#: Users processed per chunk when scanning user-to-station distances;
#: bounds peak memory to ``O(chunk * S)`` at metro scale.
DISTANCE_CHUNK = 4096


@dataclass(frozen=True)
class Cluster:
    """One cell cluster: a tile of stations plus the users they serve.

    Attributes
    ----------
    index:
        Position of this cluster in :attr:`Partition.clusters` (the
        deterministic lexicographic tile order).
    tile:
        Grid-tile coordinate ``(tx, ty)`` the cluster occupies.
    servers:
        Sorted global indices of the member base stations.
    users:
        Sorted global indices of the users whose nearest station is a
        member (every user belongs to exactly one cluster).
    boundary_users:
        Sorted subset of :attr:`users` lying within the interference
        radius of at least one foreign-cluster station.
    """

    index: int
    tile: Tuple[int, int]
    servers: np.ndarray
    users: np.ndarray
    boundary_users: np.ndarray

    @property
    def n_servers(self) -> int:
        return int(self.servers.size)

    @property
    def n_users(self) -> int:
        return int(self.users.size)


@dataclass(frozen=True)
class Partition:
    """A complete clustering of one scenario's users and stations.

    ``neighbor_pairs`` is the symmetric boundary relation on clusters:
    ``(a, b)`` (with ``a < b``) appears when any user of one cluster
    lies within the interference radius of a station of the other.
    """

    clusters: Tuple[Cluster, ...]
    cluster_of_server: np.ndarray
    cluster_of_user: np.ndarray
    nearest_server: np.ndarray
    cluster_radius_km: float
    interference_radius_km: float
    neighbor_pairs: Tuple[Tuple[int, int], ...]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def neighbors_of(self, index: int) -> Tuple[int, ...]:
        """Cluster indices sharing a boundary with cluster ``index``."""
        out: List[int] = []
        for a, b in self.neighbor_pairs:
            if a == index:
                out.append(b)
            elif b == index:
                out.append(a)
        return tuple(sorted(out))


def validate_radii(
    cluster_radius_km: float, interference_radius_km: Optional[float] = None
) -> None:
    """Raise :class:`ConfigurationError` unless both radii are positive.

    ``interference_radius_km=None`` (resolved later to the inter-site
    distance) passes.  The one home of the sharding radius checks.
    """
    if not cluster_radius_km > 0.0:
        raise ConfigurationError(
            f"cluster_radius_km must be positive, got {cluster_radius_km}"
        )
    if interference_radius_km is not None and not interference_radius_km > 0.0:
        raise ConfigurationError(
            "interference_radius_km must be positive, got "
            f"{interference_radius_km}"
        )


def partition_stations(
    bs_positions: np.ndarray, cluster_radius_km: float
) -> np.ndarray:
    """Cluster index of every station under grid-tile binning.

    Tiles are squares of side ``cluster_radius_km`` anchored at the
    elementwise minimum of the station coordinates; cluster indices
    follow the lexicographic order of the occupied tile coordinates.
    Both choices are invariant under permutations of the station
    labels, which is what makes the whole partition
    relabeling-deterministic.
    """
    positions = np.asarray(bs_positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError(
            f"bs_positions must have shape (S, 2), got {positions.shape}"
        )
    validate_radii(cluster_radius_km)
    origin = positions.min(axis=0)
    tiles = np.floor((positions - origin[None, :]) / cluster_radius_km).astype(
        np.int64
    )
    order: Dict[Tuple[int, int], int] = {}
    for tx, ty in sorted({(int(t[0]), int(t[1])) for t in tiles}):
        order[(tx, ty)] = len(order)
    cluster_of_server = np.array(
        [order[(int(t[0]), int(t[1]))] for t in tiles], dtype=np.int64
    )
    return cluster_of_server


def partition_topology(
    bs_positions: np.ndarray,
    user_positions: np.ndarray,
    cluster_radius_km: float,
    interference_radius_km: float,
) -> Partition:
    """Partition stations and users into clusters with a boundary set.

    Users join the cluster of their nearest station (ties broken toward
    the lowest station index, matching ``np.argmin``).  A user is a
    **boundary user** when some station of a *different* cluster lies
    within ``interference_radius_km`` — beyond that radius the path
    loss makes its uplink interference negligible, which is the far-
    field cutoff assumption ``repro.sim.validation`` checks against the
    radio parameters.
    """
    validate_radii(cluster_radius_km, interference_radius_km)
    stations = np.asarray(bs_positions, dtype=float)
    users = np.asarray(user_positions, dtype=float)
    if users.ndim != 2 or users.shape[1] != 2:
        raise ConfigurationError(
            f"user_positions must have shape (U, 2), got {users.shape}"
        )
    cluster_of_server = partition_stations(stations, cluster_radius_km)
    n_clusters = int(cluster_of_server.max()) + 1 if cluster_of_server.size else 0
    n_users = users.shape[0]

    nearest_server = np.zeros(n_users, dtype=np.int64)
    cluster_of_user = np.zeros(n_users, dtype=np.int64)
    is_boundary = np.zeros(n_users, dtype=bool)
    adjacency = np.zeros((n_clusters, n_clusters), dtype=bool)
    # Chunked scan: peak memory O(chunk * S) instead of O(U * S), so the
    # partitioner stays usable at metro scale (1e5 users, 1e4 stations).
    for start in range(0, n_users, DISTANCE_CHUNK):
        stop = min(start + DISTANCE_CHUNK, n_users)
        deltas = users[start:stop, None, :] - stations[None, :, :]
        dists = np.sqrt(np.add.reduce(deltas * deltas, axis=2))
        chunk_nearest = np.argmin(dists, axis=1)
        nearest_server[start:stop] = chunk_nearest
        chunk_cluster = cluster_of_server[chunk_nearest]
        cluster_of_user[start:stop] = chunk_cluster
        foreign = cluster_of_server[None, :] != chunk_cluster[:, None]
        close_foreign = foreign & (dists <= interference_radius_km)
        is_boundary[start:stop] = np.any(close_foreign, axis=1)
        rows, cols = np.nonzero(close_foreign)
        if rows.size:
            adjacency[chunk_cluster[rows], cluster_of_server[cols]] = True

    # The boundary relation is symmetric by definition: if a user of a
    # couples into b, re-annealing either side can change the other's
    # interference, so both must treat the pair as a shared boundary.
    adjacency = adjacency | adjacency.T
    np.fill_diagonal(adjacency, False)
    pairs = [
        (int(a), int(b))
        for a, b in zip(*np.nonzero(adjacency))
        if int(a) < int(b)
    ]

    origin = stations.min(axis=0)
    tiles = np.floor((stations - origin[None, :]) / cluster_radius_km).astype(
        np.int64
    )
    clusters: List[Cluster] = []
    for index in range(n_clusters):
        members = np.flatnonzero(cluster_of_server == index)
        member_users = np.flatnonzero(cluster_of_user == index)
        tile = tiles[members[0]]
        clusters.append(
            Cluster(
                index=index,
                tile=(int(tile[0]), int(tile[1])),
                servers=members,
                users=member_users,
                boundary_users=member_users[is_boundary[member_users]],
            )
        )
    return Partition(
        clusters=tuple(clusters),
        cluster_of_server=cluster_of_server,
        cluster_of_user=cluster_of_user,
        nearest_server=nearest_server,
        cluster_radius_km=float(cluster_radius_km),
        interference_radius_km=float(interference_radius_km),
        neighbor_pairs=tuple(sorted(pairs)),
    )


def partition_scenario(
    scenario: "Scenario",
    cluster_radius_km: float,
    interference_radius_km: float,
) -> Partition:
    """Partition a scenario built with topology/user-position metadata.

    Raises :class:`ConfigurationError` when the scenario was assembled
    without geometry (e.g. via ``Scenario.from_parts``) — the sharded
    scheduler needs positions to know which cells are near each other.
    """
    if scenario.topology is None or scenario.user_positions is None:
        raise ConfigurationError(
            "spatial sharding needs scenario.topology and "
            "scenario.user_positions; build the scenario with "
            "Scenario.build (from_parts scenarios carry no geometry)"
        )
    return partition_topology(
        scenario.topology.bs_positions,
        scenario.user_positions,
        cluster_radius_km,
        interference_radius_km,
    )


def extract_cluster_scenario(scenario: "Scenario", cluster: Cluster) -> "Scenario":
    """The sub-scenario a cluster solves as an independent TTSA instance.

    Selecting users/servers/gains by the sorted member indices and
    reassembling through ``Scenario.from_parts`` re-derives every
    constant array from the same per-user objects, so when the cluster
    is the whole scenario (identity indices) the sub-scenario's arrays
    are bitwise equal to the original's — the property the
    single-cluster equivalence tests pin.
    """
    from repro.sim.scenario import Scenario

    users = [scenario.users[int(u)] for u in cluster.users]
    servers = [scenario.servers[int(s)] for s in cluster.servers]
    gains = scenario.gains[cluster.users][:, cluster.servers, :]
    return Scenario.from_parts(
        users=users,
        servers=servers,
        gains=gains,
        total_bandwidth_hz=scenario.ofdma.total_bandwidth_hz,
        noise_watts=scenario.noise_watts,
    )


def restrict_decision(
    decision: OffloadingDecision, cluster: Cluster, n_servers: int
) -> OffloadingDecision:
    """Project a global decision onto one cluster's index space.

    Assignments pointing at foreign-cluster servers are dropped to
    local (a warm start can only seed slots the cluster owns).
    """
    server_map = np.full(n_servers, LOCAL, dtype=np.int64)
    server_map[cluster.servers] = np.arange(cluster.servers.size, dtype=np.int64)
    sub_server = decision.server[cluster.users]
    sub_channel = decision.channel[cluster.users]
    mapped = np.where(
        sub_server >= 0, server_map[np.clip(sub_server, 0, None)], LOCAL
    )
    sub_channel = np.where(mapped >= 0, sub_channel, LOCAL)
    return OffloadingDecision(
        n_users=int(cluster.users.size),
        n_servers=int(cluster.servers.size),
        n_channels=decision.n_channels,
        server_of_user=mapped,
        channel_of_user=sub_channel,
    )


def scatter_decision(
    target: OffloadingDecision, cluster: Cluster, sub: OffloadingDecision
) -> None:
    """Write a cluster's sub-decision back into the global decision.

    Frees every slot the cluster's users previously held, then replays
    the sub-decision's assignments with server indices mapped back to
    the global space.  Feasibility is preserved because a cluster's
    users only ever occupy slots of the cluster's own servers.
    """
    for u in cluster.users:
        target.set_local(int(u))
    for local_u, local_s, channel in sub.iter_assignments():
        target.assign(
            int(cluster.users[local_u]),
            int(cluster.servers[local_s]),
            int(channel),
        )


def external_interference(
    scenario: "Scenario", cluster: Cluster, decision: OffloadingDecision
) -> np.ndarray:
    """Frozen out-of-cluster received power at the cluster's stations.

    Returns the ``(N, S_c)`` per-(sub-band, member-station) power that
    users *outside* the cluster deposit under the current global
    decision — the boundary-coupling term the reconciliation pass adds
    to Eq. (3)'s interference sum while re-annealing the cluster.  The
    accumulation reuses :func:`repro.net.sinr.total_received_power`
    (which buckets by sub-band only), so the bits match what a global
    evaluation would accumulate for the same external users.
    """
    in_cluster = np.zeros(decision.n_users, dtype=bool)
    in_cluster[cluster.users] = True
    external = np.flatnonzero((decision.server >= 0) & ~in_cluster)
    n_channels = decision.n_channels
    if external.size == 0:
        return np.zeros((n_channels, cluster.servers.size))
    gains = scenario.gains[external][:, cluster.servers, :]
    # total_received_power only uses the server vector as an "is
    # offloaded" mask, so external users — whose serving stations lie
    # outside the cluster's index space — are marked with station 0.
    placeholder = np.zeros(external.size, dtype=np.int64)
    return total_received_power(
        gains,
        scenario.tx_power_watts[external],
        placeholder,
        decision.channel[external],
    )
