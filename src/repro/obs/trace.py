"""Span/event trace recording to JSONL (schema v2) plus in-memory capture.

:class:`TraceRecorder` is the concrete recorder behind ``tsajs solve
--trace`` and ``tsajs run --telemetry``.  Design constraints, in order:

* **Determinism.**  Records carry monotonic deltas (``t`` relative to
  recorder creation, ``dur`` per span) from an injected
  :class:`~repro.obs.clock.Clock` — never wall-clock timestamps — and
  attrs carry only algorithm state, so a :class:`~repro.obs.clock.TickClock`
  makes the whole file a pure function of the event sequence.
* **Cheap emission.**  One dict build + ``json.dumps`` per record; lines
  stream into an :class:`~repro.atomicio.AtomicLineWriter`, which
  publishes the complete file atomically on :meth:`TraceRecorder.close`
  (a crashed process leaves no torn trace, only a stale temp file).
* **Fork safety.**  A recorder inherited by a forked pool worker would
  interleave half-written lines with its parent; emissions from any PID
  other than the creating one are dropped.  Historically (schema v1)
  this drop was silent — distributed runs simply lost all worker-side
  telemetry.  Since schema v2 the executors detect the situation in the
  *parent* and emit a ``worker_detached`` event (see
  :func:`emit_worker_detached`); propagating a
  :class:`~repro.obs.dist.TraceContext` instead gives each worker its
  own shard recorder and loses nothing.

Each record also carries the recorder's span *topology*: ``span_start``
and ``event`` records are stamped with the ``parent`` span id of the
innermost open span, and every record with the recorder's ``trace`` id
when one was assigned — that is what lets
:func:`repro.obs.dist.merge_trace_shards` stitch per-worker shards into
one tree.

Metrics (:meth:`Recorder.count` & friends) accumulate in an attached
:class:`~repro.obs.metrics.MetricsRegistry` rather than the trace file:
aggregates belong in one snapshot, not smeared over thousands of lines.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, List, Optional, Type, Union

from repro.atomicio import AtomicLineWriter
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import AttrValue, Recorder, get_recorder
from repro.obs.schema import SCHEMA_VERSION, validate_trace


def _clean_scalar(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        # The schema (and strict JSON) has no -inf/nan; the annealer's
        # dead-assignment utilities map to null instead.
        return None
    return value


def _clean_attrs(attrs: Dict[str, AttrValue]) -> Dict[str, Any]:
    """Replace non-finite floats with ``None`` (the schema forbids them)."""
    cleaned: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (list, tuple)):
            cleaned[key] = [_clean_scalar(item) for item in value]
        else:
            cleaned[key] = _clean_scalar(value)
    return cleaned


class Span:
    """An open span; closing it emits the ``span_end`` record."""

    __slots__ = ("_recorder", "name", "span_id", "_t0")

    def __init__(self, recorder: "TraceRecorder", name: str, span_id: int, t0: float) -> None:
        self._recorder = recorder
        self.name = name
        self.span_id = span_id
        self._t0 = t0

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self._recorder._end_span(self)
        return False


class TraceRecorder(Recorder):
    """Schema-v2 recorder writing JSONL to a file and/or an in-memory list.

    Parameters
    ----------
    path:
        Destination JSONL file (parent directories are created; the file
        is published atomically on :meth:`close`).  ``None`` keeps
        records in memory only (see :attr:`records`).
    clock:
        Timing source; defaults to the real monotonic clock.  Inject a
        :class:`~repro.obs.clock.TickClock` for byte-deterministic output.
    iteration_detail:
        Ask the annealer for per-iteration ``anneal.step`` events (orders
        of magnitude more lines; off by default).
    keep_records:
        Also retain decoded records in memory when writing to a file.
    trace_id:
        Distributed trace id stamped on every record (``trace`` field).
        Required for cross-process propagation; ``None`` omits the field.
    shard_dir:
        Directory workers should write their trace shards into.  Setting
        it opts this recorder into distributed propagation: the executors
        build a :class:`~repro.obs.dist.TraceContext` from it (see
        :func:`repro.obs.dist.propagated_context`).
    """

    enabled = True

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        clock: Optional[Clock] = None,
        iteration_detail: bool = False,
        keep_records: bool = False,
        trace_id: Optional[str] = None,
        shard_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._epoch = self._clock.now()
        self._pid = os.getpid()
        self.iteration_detail = iteration_detail
        self.metrics = MetricsRegistry()
        self.trace_id = trace_id
        self.shard_dir: Optional[Path] = (
            Path(shard_dir) if shard_dir is not None else None
        )
        self._next_span_id = 0
        self._n_records = 0
        self._stack: List[int] = []
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._writer: Optional[AtomicLineWriter] = None
        if self.path is not None:
            self._writer = AtomicLineWriter(self.path)
        self._records: Optional[List[Dict[str, Any]]] = (
            [] if (self.path is None or keep_records) else None
        )

    # --- Emission ----------------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """In-memory records (empty when writing to a file without capture)."""
        return list(self._records) if self._records is not None else []

    @property
    def n_records(self) -> int:
        return self._n_records

    @property
    def clock(self) -> Clock:
        """The injected timing source (read by trace-context propagation)."""
        return self._clock

    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span, or ``None`` at the root."""
        return self._stack[-1] if self._stack else None

    def _now(self) -> float:
        return self._clock.now() - self._epoch

    def _emit(self, record: Dict[str, Any]) -> None:
        if os.getpid() != self._pid:
            # Inherited by a forked worker: writing would interleave with
            # the parent, so the record is dropped here.  The executors
            # surface this in the parent as a ``worker_detached`` event
            # (schema v2); propagate a TraceContext to capture worker
            # telemetry in per-worker shards instead.
            return
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        self._n_records += 1
        if self._records is not None:
            self._records.append(record)
        if self._writer is not None:
            self._writer.write_line(
                json.dumps(record, separators=(",", ":"), allow_nan=False)
            )

    def event(self, name: str, **attrs: AttrValue) -> None:
        record: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "kind": "event",
            "name": name,
            "t": self._now(),
            "attrs": _clean_attrs(attrs),
        }
        if self._stack:
            record["parent"] = self._stack[-1]
        self._emit(record)

    def span(self, name: str, **attrs: AttrValue) -> Span:
        parent = self._stack[-1] if self._stack else None
        return self._open_span(name, parent, attrs)

    def _open_span(
        self,
        name: str,
        parent: Optional[int],
        attrs: Dict[str, AttrValue],
    ) -> Span:
        """Emit a ``span_start`` with an explicit parent id and push it.

        ``span()`` derives the parent from the recorder's own open-span
        stack; :mod:`repro.obs.dist` uses this hook directly to attach a
        worker shard's root span under a *foreign* (coordinator-side)
        span id.
        """
        span_id = self._next_span_id
        self._next_span_id += 1
        t0 = self._now()
        record: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "kind": "span_start",
            "name": name,
            "t": t0,
            "id": span_id,
            "attrs": _clean_attrs(attrs),
        }
        if parent is not None:
            record["parent"] = parent
        self._emit(record)
        self._stack.append(span_id)
        return Span(self, name, span_id, t0)

    def _end_span(self, span: Span) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:
            self._stack.remove(span.span_id)
        t1 = self._now()
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "span_end",
                "name": span.name,
                "t": t1,
                "id": span.span_id,
                "dur": t1 - span._t0,
                "attrs": {},
            }
        )

    # --- Metrics -----------------------------------------------------------

    def count(self, name: str, value: float = 1.0, **labels: AttrValue) -> None:
        self.metrics.count(name, value, **labels)  # type: ignore[arg-type]

    def gauge_set(self, name: str, value: float, **labels: AttrValue) -> None:
        self.metrics.gauge_set(name, value, **labels)  # type: ignore[arg-type]

    def observe(self, name: str, value: float, **labels: AttrValue) -> None:
        self.metrics.observe(name, value, **labels)  # type: ignore[arg-type]

    def snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    # --- Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._writer is not None:
            if os.getpid() != self._pid:
                # A forked child closing the inherited recorder must not
                # publish (or unlink) the parent's temp file.
                self._writer = None
                return
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.close()
        return False


def emit_worker_detached(backend: str, n_cells: int) -> None:
    """Record, parent-side, that a parallel wave ran without propagation.

    Called by the pool executor when telemetry is enabled but the
    installed recorder has no ``shard_dir`` to build a
    :class:`~repro.obs.dist.TraceContext` from: every worker in the wave
    inherits a recorder that drops its records, so the
    per-seed telemetry for these cells is lost.  The schema-v2
    ``worker_detached`` event makes that loss visible in the parent
    trace instead of silent (the schema-v1 legacy behavior).
    """
    rec = get_recorder()
    if not rec.enabled:
        return
    rec.event(
        "worker_detached",
        backend=backend,
        n_cells=n_cells,
        reason="no trace context propagated (recorder has no shard_dir)",
    )
    rec.count("obs.workers_detached", n_cells, backend=backend)


def read_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load and schema-validate a JSONL trace file.

    Raises :class:`~repro.obs.schema.TraceSchemaError` (naming the line)
    on the first malformed record.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return validate_trace(handle)


def events_named(
    records: List[Dict[str, Any]], name: str
) -> List[Dict[str, Any]]:
    """The subset of ``records`` with the given ``name`` (any kind)."""
    return [record for record in records if record["name"] == name]
