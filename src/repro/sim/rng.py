"""Deterministic random-number-generator helpers.

Every stochastic component of the library (user drops, shadowing, the
annealer's proposal chain) takes an explicit ``numpy.random.Generator``.
These helpers derive independent child generators from a root seed so that
e.g. the scenario draw and the scheduler's chain are decorrelated but both
reproducible.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """A fresh generator; with ``seed=None`` entropy comes from the OS."""
    return np.random.default_rng(seed)


def child_rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator for sub-stream ``stream`` of ``seed``.

    Uses ``SeedSequence.spawn`` semantics: different ``stream`` values give
    statistically independent streams, and the mapping is stable across
    processes and runs.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    )


def seed_stream(root_seed: int) -> Iterator[int]:
    """An infinite stream of distinct derived 32-bit seeds."""
    rng = np.random.default_rng(root_seed)
    while True:
        yield int(rng.integers(0, 2**32 - 1))
