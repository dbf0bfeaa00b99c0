"""Record the RNG streams a run creates and where each one ends.

Every stream in the library comes from :func:`repro.sim.rng.make_rng` or
:func:`repro.sim.rng.child_rng`, and both build it with
``numpy.random.default_rng``.  :func:`recorded_streams` patches that one
constructor for the length of a ``with`` block and keeps every generator
it hands out under a stable label: ``"root:<seed>"`` for
``make_rng(seed)``, ``"child:<seed>:<stream>"`` for
``child_rng(seed, stream)``.  The generators themselves are untouched,
so recording never changes a draw.

:meth:`StreamRecord.snapshot` maps each label to the final bit-generator
states of its generators, in creation order.  Two runs with equal
snapshots created the same streams and drew the same amount from each;
a run that draws nothing leaves an empty snapshot.

Recording is in-process only: streams created in pool workers are not
seen, so use it with the serial backend.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List

import numpy as np


def _label(seed: Any) -> str:
    if isinstance(seed, np.random.SeedSequence) and seed.spawn_key:
        return f"child:{seed.entropy}:{':'.join(map(str, seed.spawn_key))}"
    return f"root:{seed}"


class StreamRecord:
    """The generators created inside one :func:`recorded_streams` block."""

    def __init__(self) -> None:
        self.streams: Dict[str, List[np.random.Generator]] = {}

    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        return {
            label: [generator.bit_generator.state for generator in generators]
            for label, generators in self.streams.items()
        }


@contextlib.contextmanager
def recorded_streams() -> Iterator[StreamRecord]:
    record = StreamRecord()
    original = np.random.default_rng

    def default_rng(seed=None):
        generator = original(seed)
        record.streams.setdefault(_label(seed), []).append(generator)
        return generator

    np.random.default_rng = default_rng
    try:
        yield record
    finally:
        np.random.default_rng = original
