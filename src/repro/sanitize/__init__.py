"""Runtime determinism sanitizer: per-stream draw/state ledgers.

The static flow rules (R009-R012) prove stream discipline at the source
level; this package checks it at runtime.  It installs an observer on
the :mod:`repro.sim.rng` factories so every labelled Generator the
library creates is wrapped in a counting proxy, then asserts that the
resulting per-stream ledgers — draw counts and ``BitGenerator`` state
digests — agree across replays the reproduction contract requires to be
bitwise identical:

* scalar vs delta vs batch evaluation (``tsajs solve --sanitize``);
* repeated serial runs of one experiment (``tsajs run --sanitize``);
* a cache-resumed sweep vs a fresh one (exercised in the test suite).

Draw *counts* are compared only where the contract pins them (scalar vs
delta, replay vs replay): the batch evaluator deliberately draws
speculative uniforms and rewinds ``bit_generator.state``, so its counts
differ while its state checkpoints match — which is exactly what the
default state-digest comparison verifies.

Typical test usage::

    from repro.sanitize import sanitized, assert_ledgers_match

    with sanitized() as first:
        run_once()
    with sanitized() as second:
        run_once()
    assert_ledgers_match(
        first.snapshot(), second.snapshot(), compare_draws=True
    )
"""

from __future__ import annotations

from repro.sanitize.ledger import (
    DeterminismSanitizer,
    SanitizedGenerator,
    StreamLedger,
    assert_ledgers_match,
    sanitized,
    state_digest,
)

__all__ = [
    "DeterminismSanitizer",
    "SanitizedGenerator",
    "StreamLedger",
    "assert_ledgers_match",
    "sanitized",
    "state_digest",
]
