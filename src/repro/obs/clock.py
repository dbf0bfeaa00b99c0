"""Clock abstraction — the only sanctioned timing source in the library.

All timing in ``repro.core`` / ``repro.sim`` / ``repro.experiments`` goes
through this module instead of calling ``time.*`` directly (enforced by
lint rule R008).  Centralising the call sites buys three things:

* **Determinism on demand.**  Production code uses the process-wide
  :class:`MonotonicClock`; tests and trace-determinism checks inject a
  :class:`TickClock`, which advances by a fixed step per read, so two
  identical runs emit byte-identical traces.
* **R002 hygiene.**  ``time.perf_counter`` never feeds algorithm state —
  only telemetry — and funnelling every read through one seam keeps that
  auditable (a single module to review instead of scattered call sites).
* **Monotonic-delta discipline.**  Clock readings are *relative* seconds
  with no epoch semantics; nothing derived from them can leak wall-clock
  timestamps into trace payloads.

``time`` itself is imported only here and in :mod:`repro.obs` siblings;
everything else uses :class:`Stopwatch` / :func:`monotonic`.
"""

from __future__ import annotations

import time
from typing import Optional, Protocol, runtime_checkable

from repro.errors import ConfigurationError


@runtime_checkable
class Clock(Protocol):
    """Anything with a monotonic ``now()`` in (fractional) seconds."""

    def now(self) -> float:
        """Current monotonic reading in seconds (arbitrary origin)."""
        ...  # pragma: no cover - protocol definition


class MonotonicClock:
    """The real monotonic clock (``time.perf_counter``)."""

    def now(self) -> float:
        return time.perf_counter()


class TickClock:
    """Deterministic clock advancing by a fixed ``step`` per read.

    Used by tests and by trace-determinism checks: with a ``TickClock``
    injected into a recorder, every ``t`` / ``dur`` field of the emitted
    trace is a pure function of the event sequence, so two identical
    runs produce byte-identical files.
    """

    def __init__(self, step: float = 1.0, start: float = 0.0) -> None:
        if step < 0:
            raise ConfigurationError(f"step must be >= 0, got {step}")
        self._next = start
        self._step = step

    def now(self) -> float:
        value = self._next
        self._next += self._step
        return value


#: Process-wide default clock; swap with :func:`set_default_clock` in tests.
_DEFAULT_CLOCK: Clock = MonotonicClock()


def default_clock() -> Clock:
    """The process-wide clock (a :class:`MonotonicClock` unless replaced)."""
    return _DEFAULT_CLOCK


def set_default_clock(clock: Optional[Clock]) -> Clock:
    """Install a process-wide clock (``None`` restores the monotonic one).

    Returns the previously installed clock so callers can restore it.
    """
    global _DEFAULT_CLOCK
    previous = _DEFAULT_CLOCK
    _DEFAULT_CLOCK = clock if clock is not None else MonotonicClock()
    return previous


def monotonic() -> float:
    """One reading of the default clock (monotonic seconds)."""
    return _DEFAULT_CLOCK.now()


class Stopwatch:
    """Measures an elapsed monotonic interval from its construction.

    The drop-in replacement for the ``start = time.perf_counter(); ...;
    elapsed = time.perf_counter() - start`` idiom — same two clock reads,
    but through the injectable seam.
    """

    __slots__ = ("_clock", "_start")

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock if clock is not None else _DEFAULT_CLOCK
        self._start = self._clock.now()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return self._clock.now() - self._start

    def restart(self) -> None:
        """Reset the origin to the current reading."""
        self._start = self._clock.now()
