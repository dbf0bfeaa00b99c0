"""Hexagonal multi-cell network topology and user placement.

The paper evaluates TSAJS on "a multi-cellular network comprising several
hexagonal cells, each centered around a base station", with an inter-BS
distance of 1 km and users "randomly and uniformly distributed across the
network's coverage area" (Sec. V).

Base stations sit on a triangular lattice; each covers a pointy-top hexagon
with circumradius ``inter_site_distance / sqrt(3)`` so the hexagons tile the
plane exactly.  Users are placed by picking a cell uniformly at random (all
cells have equal area) and sampling a uniform point inside its hexagon,
subject to a minimum BS distance guard (the log-distance path-loss model
diverges as d -> 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Default minimum user-to-BS distance, in km (10 m).  Below this the
#: path-loss model is not physically meaningful.
DEFAULT_MIN_BS_DISTANCE_KM = 0.01


def _axial_to_cartesian(q: int, r: int, spacing: float) -> np.ndarray:
    """Map axial hex-lattice coordinates to Cartesian positions (km)."""
    x = spacing * (q + r / 2.0)
    y = spacing * (math.sqrt(3.0) / 2.0) * r
    return np.array([x, y], dtype=float)


def _spiral_axial_coords(count: int) -> List[Tuple[int, int]]:
    """Return ``count`` axial coordinates spiralling out from the origin.

    The spiral enumerates the center cell, then ring 1 (6 cells), ring 2
    (12 cells), and so on — the standard layout for an S-cell hexagonal
    deployment (S = 9 in the paper uses the center plus part of ring 1/2).
    """
    if count < 1:
        raise ConfigurationError(f"need at least one cell, got {count}")
    coords = [(0, 0)]
    # Axial direction vectors, in ring-walk order (Red Blob Games' standard
    # hex-ring enumeration: start at direction-4 * ring, walk each edge).
    directions = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
    ring = 1
    while len(coords) < count:
        q, r = -ring, ring  # direction 4 scaled by the ring index
        for dq, dr in directions:
            for _ in range(ring):
                if len(coords) == count:
                    return coords
                coords.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    return coords


def hex_grid_positions(n_cells: int, inter_site_distance_km: float) -> np.ndarray:
    """Base-station positions for an ``n_cells`` hexagonal deployment.

    Returns an ``(n_cells, 2)`` array of positions in km, spiralling out
    from the origin with the given inter-site distance.
    """
    if inter_site_distance_km <= 0:
        raise ConfigurationError(
            f"inter-site distance must be positive, got {inter_site_distance_km}"
        )
    coords = _spiral_axial_coords(n_cells)
    return np.array(
        [_axial_to_cartesian(q, r, inter_site_distance_km) for q, r in coords]
    )


@dataclass(frozen=True)
class HexCell:
    """A pointy-top hexagonal cell centred on a base station.

    ``circumradius`` is the centre-to-vertex distance; for a tiling with
    inter-site distance D it equals ``D / sqrt(3)``.
    """

    center: np.ndarray
    circumradius: float

    def __post_init__(self) -> None:
        if self.circumradius <= 0:
            raise ConfigurationError(
                f"circumradius must be positive, got {self.circumradius}"
            )

    @property
    def inradius(self) -> float:
        """Centre-to-edge distance (apothem)."""
        return self.circumradius * math.sqrt(3.0) / 2.0

    @property
    def area(self) -> float:
        """Hexagon area in km^2."""
        return 3.0 * math.sqrt(3.0) / 2.0 * self.circumradius**2

    def contains(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the cell.

        Uses the standard three-axis hexagon test for a pointy-top hexagon:
        the point is inside iff its projections onto the three edge normals
        are all within the inradius.
        """
        dx = float(point[0]) - float(self.center[0])
        dy = float(point[1]) - float(self.center[1])
        inr = self.inradius + 1e-12
        # Pointy-top hexagon edge normals are at 0, 60 and 120 degrees.
        for angle in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
            proj = dx * math.cos(angle) + dy * math.sin(angle)
            if abs(proj) > inr:
                return False
        return True

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample inside the hexagon via rejection from its bbox."""
        half_w = self.inradius
        half_h = self.circumradius
        while True:
            dx = rng.uniform(-half_w, half_w)
            dy = rng.uniform(-half_h, half_h)
            candidate = np.array(
                [self.center[0] + dx, self.center[1] + dy], dtype=float
            )
            if self.contains(candidate):
                return candidate


@dataclass(frozen=True)
class Topology:
    """A hexagonal multi-cell deployment with helper geometry.

    Parameters
    ----------
    bs_positions:
        ``(S, 2)`` base-station positions in km.
    inter_site_distance_km:
        Distance between adjacent base stations (1 km in the paper).
    """

    bs_positions: np.ndarray
    inter_site_distance_km: float
    cells: List[HexCell] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        positions = np.asarray(self.bs_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ConfigurationError(
                f"bs_positions must have shape (S, 2), got {positions.shape}"
            )
        if self.inter_site_distance_km <= 0:
            raise ConfigurationError(
                "inter-site distance must be positive, got "
                f"{self.inter_site_distance_km}"
            )
        object.__setattr__(self, "bs_positions", positions)
        circumradius = self.inter_site_distance_km / math.sqrt(3.0)
        cells = [HexCell(center=pos, circumradius=circumradius) for pos in positions]
        object.__setattr__(self, "cells", cells)

    @classmethod
    def hexagonal(
        cls, n_cells: int, inter_site_distance_km: float = 1.0
    ) -> "Topology":
        """Standard spiral hexagonal deployment (the paper's layout)."""
        return cls(
            bs_positions=hex_grid_positions(n_cells, inter_site_distance_km),
            inter_site_distance_km=inter_site_distance_km,
        )

    @property
    def n_cells(self) -> int:
        return int(self.bs_positions.shape[0])

    def place_users(
        self,
        n_users: int,
        rng: np.random.Generator,
        min_bs_distance_km: float = DEFAULT_MIN_BS_DISTANCE_KM,
    ) -> np.ndarray:
        """Place ``n_users`` uniformly over the union of the cells.

        Each user is assigned to a uniformly-chosen cell and placed
        uniformly inside its hexagon, re-sampled until it is at least
        ``min_bs_distance_km`` from every base station.
        """
        if n_users < 0:
            raise ConfigurationError(f"n_users must be non-negative, got {n_users}")
        if min_bs_distance_km < 0:
            raise ConfigurationError(
                f"min_bs_distance_km must be non-negative, got {min_bs_distance_km}"
            )
        positions = np.empty((n_users, 2), dtype=float)
        for i in range(n_users):
            cell = self.cells[int(rng.integers(self.n_cells))]
            while True:
                candidate = cell.sample(rng)
                dists = np.linalg.norm(self.bs_positions - candidate, axis=1)
                if dists.min() >= min_bs_distance_km:
                    positions[i] = candidate
                    break
        return positions

    def distances_km(self, user_positions: np.ndarray) -> np.ndarray:
        """Pairwise user-to-BS distances, shape ``(U, S)``, in km."""
        users = np.asarray(user_positions, dtype=float)
        if users.ndim != 2 or users.shape[1] != 2:
            raise ConfigurationError(
                f"user_positions must have shape (U, 2), got {users.shape}"
            )
        deltas = users[:, None, :] - self.bs_positions[None, :, :]
        return np.linalg.norm(deltas, axis=2)

    def extent_km(self) -> float:
        """Diagonal of the station bounding box (deployment diameter).

        The scale :mod:`repro.sim.validation` compares against the
        far-field interference cutoff: once the deployment is much
        larger than the cutoff radius, spatial sharding can split it
        into near-independent clusters.
        """
        spans = self.bs_positions.max(axis=0) - self.bs_positions.min(axis=0)
        return float(np.sqrt(np.add.reduce(spans * spans)))
