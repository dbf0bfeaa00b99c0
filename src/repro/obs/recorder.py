"""Recorder interface, the no-op default, and the process-level state.

The instrumented call sites (annealer, scheduler, runner, fault paths)
talk to a :class:`Recorder`; which concrete recorder they reach is a
process-level decision:

* by default the shared :data:`NULL_RECORDER` is installed — every hook
  is an attribute check or an empty method, the hot paths guard their
  emission behind ``recorder.enabled``, and results are bitwise
  identical to an uninstrumented build (enforced by
  ``tests/test_obs_integration.py``; the cost of the null hooks shows
  in perfbench's untraced ``solve_p50_s``);
* ``tsajs solve --trace`` / ``tsajs run --telemetry`` (or any caller via
  :func:`set_recorder` / :func:`use_recorder`) install a
  :class:`~repro.obs.trace.TraceRecorder` for the duration of the run.

Recorders are process-local on purpose: a forked recorder refuses to
write from a foreign PID, since one file with several writers is how
interleaved trace files happen.  A pool worker records into its own
in-memory recorder built from the coordinator's :meth:`Recorder.worker_context`
and hands the records back with its results (:meth:`Recorder.take_in`).
"""

from __future__ import annotations

from contextlib import contextmanager
from types import TracebackType
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Type, Union

if TYPE_CHECKING:
    from repro.obs.trace import Capture, WorkerContext

#: Values an event attribute or metric label may carry (trace schema scalars).
Scalar = Union[str, int, float, bool, None]
AttrValue = Union[Scalar, Sequence[Scalar]]


class NullSpan:
    """The reusable no-op context manager returned by null ``span()``."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_SPAN = NullSpan()


class Recorder:
    """Base recorder: every hook is a no-op (this *is* the null recorder).

    Subclasses (:class:`~repro.obs.trace.TraceRecorder`) override the
    hooks; instrumented code checks :attr:`enabled` before doing any
    per-event work beyond the call itself, so the disabled path costs
    one attribute read per emission site.
    """

    #: Whether emissions reach a sink; hot loops gate work on this.
    enabled: bool = False
    #: Whether per-iteration ``anneal.step`` events are wanted (heavy).
    iteration_detail: bool = False

    def event(self, name: str, **attrs: AttrValue) -> None:
        """Emit one point event."""

    def span(self, name: str, **attrs: AttrValue) -> NullSpan:
        """Open a span; use as a context manager around the timed work."""
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0, **labels: AttrValue) -> None:
        """Add to a counter series."""

    def gauge_set(self, name: str, value: float, **labels: AttrValue) -> None:
        """Set a gauge series to its latest value."""

    def observe(self, name: str, value: float, **labels: AttrValue) -> None:
        """Record one histogram sample."""

    def snapshot(self) -> Optional[dict]:
        """JSON-ready metrics snapshot, or ``None`` for the null recorder."""
        return None

    def worker_context(self) -> Optional["WorkerContext"]:
        """What pool workers record under, or ``None`` to run them untraced."""
        return None

    def take_in(self, capture: "Capture", shard: str) -> None:
        """Adopt a pool worker's records and metrics (labelled ``shard``)."""

    def close(self) -> None:
        """Flush and release the sink (idempotent)."""


class NullRecorder(Recorder):
    """Explicit alias of the no-op base, for readable call sites."""


#: The shared default recorder (never closed, never replaced in place).
NULL_RECORDER = NullRecorder()

_CURRENT: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The process-level recorder (the null recorder unless installed)."""
    return _CURRENT


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install a process-level recorder (``None`` restores the null one).

    Returns the previously installed recorder so callers can restore it.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` for the duration of a ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
