"""Deterministic random-number-generator helpers.

Every stochastic component of the library (user drops, shadowing, the
annealer's proposal chain) takes an explicit ``numpy.random.Generator``.
These helpers derive independent child generators from a root seed so that
e.g. the scenario draw and the scheduler's chain are decorrelated but both
reproducible.  :class:`DirectDraws` makes the annealer's two per-move
draws without ``Generator`` call overhead, bit for bit.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator, Optional

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
#: ``advance(_TWO_128 - k)`` steps a PCG64 stream back by ``k`` words.
_TWO_128 = 1 << 128
#: ``next_double``'s scale: a word's top 53 bits times ``2**-53``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
#: Words in a scope's first prefetch; each later refill doubles it, up to
#: :data:`_MAX_BLOCK`.  A proposal takes about four words, so a one-move
#: scope (``NeighborhoodSampler.propose_move``) fetches little it must
#: hand back, and an annealing run soon fetches full blocks.
_FIRST_BLOCK = 8
_MAX_BLOCK = 256


class DirectDraws:
    """``Generator.integers(n)`` and ``Generator.random()`` without call overhead.

    Both generator methods cost about a microsecond of argument handling
    around a sub-microsecond draw, and the annealer makes about five
    draws per move.  On a PCG64 generator this wrapper serves them from
    a block of raw 64-bit words fetched with ``random_raw`` and returns
    exactly what the generator methods return:

    * :meth:`integers` replays numpy's ``next_uint32`` (a word's low half
      first, its high half buffered as ``has_uint32``/``uinteger``) under
      numpy's 32-bit Lemire rejection (``random_bounded_uint64_fill`` for
      a bound below ``2**32``); ``n == 1`` draws nothing;
    * :meth:`random` is ``next_double``, ``(word >> 11) * 2**-53``.

    The wrapper is a *scope* over the stream.  Its first draw takes the
    stream over: from then on ``bit_generator.state`` runs ahead of the
    draws served, so nothing else may draw from the generator until
    :meth:`close` (or the end of a ``with`` block, also on an exception)
    rewinds the unused words with ``advance`` and writes the buffered
    half back.  The state is then exactly where per-call draws would
    have left it, and the next draw through the wrapper takes the stream
    over again.  A scope that drew nothing leaves the state untouched.
    A bound of ``2**32`` or more, or an invalid one, closes the scope
    and calls ``generator.integers``.  Other bit generators are served
    by the generator methods.

    Open one scope per run and hand it down: taking the stream over and
    handing it back costs about 8 microseconds of state handling.
    """

    __slots__ = (
        "generator", "_pcg", "_words", "_next_word", "_block", "_has_half", "_half"
    )
    #: The current block's unused words; ``None`` while the scope is
    #: closed (the generator's own state is current).
    _words: Optional[Iterator[int]]
    _next_word: Callable[[], int]

    def __init__(self, generator: np.random.Generator) -> None:
        self.generator = generator
        self._pcg = type(generator.bit_generator) is np.random.PCG64
        self._block = _FIRST_BLOCK
        self._release()

    def __enter__(self) -> "DirectDraws":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Hand the stream back to the generator (see the class docstring)."""
        if self._words is None:
            return  # nothing drawn since the last close
        bit_generator = self.generator.bit_generator
        unused = operator.length_hint(self._words)
        if unused:
            bit_generator.advance(_TWO_128 - unused)
        # ``advance`` clears the buffered half; put back the one the draws left.
        state = bit_generator.state
        state["has_uint32"] = self._has_half
        state["uinteger"] = self._half
        bit_generator.state = state
        self._release()

    def integers(self, n: int) -> int:
        """What ``int(generator.integers(n))`` returns, drawn the same way."""
        if 1 < n < _TWO_32 and self._pcg:
            scaled = self._next_uint32() * n
            if (scaled & _LOW_32) < n:
                threshold = (_TWO_32 - n) % n
                while (scaled & _LOW_32) < threshold:
                    scaled = self._next_uint32() * n
            return scaled >> 32
        if n == 1:
            return 0
        self.close()
        return int(self.generator.integers(n))

    def random(self) -> float:
        """What ``generator.random()`` returns, drawn the same way."""
        if self._pcg:
            try:
                word = self._next_word()
            except StopIteration:
                word = self._refill()
            return (word >> 11) * _DOUBLE_SCALE
        return self.generator.random()

    def _next_uint32(self) -> int:
        """numpy's ``next_uint32`` on the prefetched words."""
        if self._words is None:
            self._open()
        if self._has_half:
            self._has_half = 0
            return self._half
        try:
            word = self._next_word()
        except StopIteration:
            word = self._refill()
        self._half = word >> 32
        self._has_half = 1
        return word & _LOW_32

    def _refill(self) -> int:
        """The first word of a new block (the scope holds no unused words)."""
        if self._words is None:
            self._open()
        block = self._block
        words = iter(self.generator.bit_generator.random_raw(block).tolist())
        self._block = min(2 * block, _MAX_BLOCK)
        self._words = words
        self._next_word = words.__next__
        return self._next_word()

    def _open(self) -> None:
        """Take the stream over from the generator, with its buffered half."""
        state = self.generator.bit_generator.state
        self._has_half = state["has_uint32"]
        self._half = state["uinteger"]
        self._words = iter(())

    def _release(self) -> None:
        """The closed scope: no words, and no half until :meth:`_open`."""
        self._words = None
        self._next_word = iter(()).__next__
        self._has_half = 0
        self._half = 0


def seed_stream(root_seed: int) -> Iterator[int]:
    """An infinite stream of distinct derived 32-bit seeds."""
    rng = np.random.default_rng(root_seed)
    while True:
        yield int(rng.integers(0, 2**32 - 1))
