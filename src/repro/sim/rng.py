"""Deterministic random-number-generator helpers.

Every stochastic component of the library (user drops, shadowing, the
annealer's proposal chain) takes an explicit ``numpy.random.Generator``.
These helpers derive independent child generators from a root seed so that
e.g. the scenario draw and the scheduler's chain are decorrelated but both
reproducible.  :class:`DirectDraws` makes the annealer's two per-move
draws without ``Generator`` call overhead, bit for bit.
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


#: ``2**32``: :meth:`DirectDraws.integers` draws below this bound directly.
_TWO_32 = 1 << 32
_LOW_32 = _TWO_32 - 1


class DirectDraws:
    """``Generator.integers(n)`` and ``Generator.random()``, called directly.

    Both calls cost a few microseconds of argument handling around a
    sub-microsecond draw, and the annealer makes about five of them per
    move.  This wrapper calls the bit generator's C entry points through
    its ``ctypes`` interface instead and returns exactly the values the
    generator methods return, leaving ``bit_generator.state`` exactly
    where they leave it, so the two can be interleaved on one stream:

    * :meth:`integers` runs numpy's own 32-bit Lemire rejection
      (``random_bounded_uint64_fill`` for a bound below ``2**32``) on
      ``next_uint32``; ``n == 1`` draws nothing, and bounds of ``2**32``
      and above (or invalid ones) go to ``generator.integers``;
    * :meth:`random` is ``next_double``, which ``Generator.random()``
      calls for one value.

    Bind one per run and hand it down: building it costs more than a
    draw.  The wrapper holds the generator, which keeps alive the state
    the C entry points are called on.
    """

    __slots__ = ("generator", "_next_uint32", "_next_double", "_state")

    def __init__(self, generator: np.random.Generator) -> None:
        interface = generator.bit_generator.ctypes
        self.generator = generator
        self._next_uint32 = interface.next_uint32
        self._next_double = interface.next_double
        self._state = interface.state

    def integers(self, n: int) -> int:
        """What ``int(generator.integers(n))`` returns, drawn the same way."""
        if 1 < n < _TWO_32:
            next_uint32, state = self._next_uint32, self._state
            scaled = next_uint32(state) * n
            if (scaled & _LOW_32) < n:
                threshold = (_TWO_32 - n) % n
                while (scaled & _LOW_32) < threshold:
                    scaled = next_uint32(state) * n
            return scaled >> 32
        if n == 1:
            return 0
        return int(self.generator.integers(n))

    def random(self) -> float:
        """What ``generator.random()`` returns, drawn the same way."""
        return self._next_double(self._state)


def seed_stream(root_seed: int) -> Iterator[int]:
    """An infinite stream of distinct derived 32-bit seeds."""
    rng = np.random.default_rng(root_seed)
    while True:
        yield int(rng.integers(0, 2**32 - 1))
