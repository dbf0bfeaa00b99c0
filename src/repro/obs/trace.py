"""Span/event trace recording to JSONL (schema v3) plus in-memory capture.

:class:`TraceRecorder` is the concrete recorder behind ``tsajs solve
--trace`` and ``tsajs run --telemetry``.  Design constraints, in order:

* **Determinism.**  Records carry monotonic deltas (``t`` relative to
  the recorder's epoch, ``dur`` per span) from an injected
  :class:`~repro.obs.clock.Clock` — never wall-clock timestamps — and
  attrs carry only algorithm state, so a :class:`~repro.obs.clock.TickClock`
  makes the whole file a pure function of the event sequence.
* **Cheap emission.**  One dict build + ``json.dumps`` per record; lines
  stream into an :class:`~repro.atomicio.AtomicLineWriter`, which
  publishes the complete file atomically on :meth:`TraceRecorder.close`
  (a crashed process leaves no torn trace, only a stale temp file).
* **Fork safety.**  A recorder inherited by a forked pool worker would
  interleave half-written lines with its parent; emissions from any PID
  other than the creating one are dropped.  A pool worker records into
  its own in-memory recorder instead, built from the coordinator's
  :meth:`~TraceRecorder.worker_context`, and returns its
  :meth:`~TraceRecorder.capture` with the cell's results; the
  coordinator adopts it with :meth:`~TraceRecorder.take_in`.

``span_start`` and ``event`` records carry the ``parent`` span id of the
innermost open span; records taken in from a worker also carry its
``shard`` label (``s<seed>``).

Metrics (:meth:`Recorder.count` & friends) accumulate in an attached
:class:`~repro.obs.metrics.MetricsRegistry` rather than the trace file:
aggregates belong in one snapshot, not smeared over thousands of lines.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.atomicio import AtomicLineWriter
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import AttrValue, Recorder
from repro.obs.schema import SCHEMA_VERSION, validate_trace

#: A worker recorder's records and metrics snapshot (see
#: :meth:`TraceRecorder.capture`), returned over the pool's result channel.
Capture = Tuple[List[Dict[str, Any]], Dict[str, Any]]


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


@dataclass(frozen=True)
class WorkerContext:
    """What a pool worker needs to record on its coordinator's timeline.

    Picklable: the executor ships it with every task.  ``clock`` is a
    copy taken inside the coordinator's wave span, so a
    :class:`~repro.obs.clock.TickClock` worker continues from the
    coordinator's next tick, and a :class:`~repro.obs.clock.MonotonicClock`
    worker reads the same system-wide ``perf_counter``; with the shared
    ``epoch`` every worker ``t`` lies on the coordinator's time axis.
    """

    clock: Clock
    epoch: float
    iteration_detail: bool

    def recorder(self) -> "TraceRecorder":
        """An in-memory recorder on this context's clock and epoch."""
        return TraceRecorder(
            clock=self.clock,
            iteration_detail=self.iteration_detail,
            epoch=self.epoch,
        )


class TraceRecorder(Recorder):
    """Schema-v3 recorder writing JSONL to a file or an in-memory list.

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
    epoch:
        Clock reading that ``t = 0`` stands for; defaults to the clock's
        reading at construction.  Pool workers pass the coordinator's.
    """

    enabled = True

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        clock: Optional[Clock] = None,
        iteration_detail: bool = False,
        epoch: Optional[float] = None,
    ) -> None:
        self._clock: Clock = clock if clock is not None else MonotonicClock()
        self._epoch = self._clock.now() if epoch is None else epoch
        self._pid = os.getpid()
        self.iteration_detail = iteration_detail
        self.metrics = MetricsRegistry()
        self._next_span_id = 0
        self._n_records = 0
        #: Latest ``t`` taken in from a worker; no later read goes below it.
        self._floor = 0.0
        self._stack: List[int] = []
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._writer: Optional[AtomicLineWriter] = None
        if self.path is not None:
            self._writer = AtomicLineWriter(self.path)
        self._records: Optional[List[Dict[str, Any]]] = (
            [] if self.path is None else None
        )

    # --- Emission ----------------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """In-memory records (empty when writing to a file)."""
        return list(self._records) if self._records is not None else []

    @property
    def n_records(self) -> int:
        return self._n_records

    def _now(self) -> float:
        t = self._clock.now() - self._epoch
        if t < self._floor:
            # Workers' clock copies ran ahead of this one (a TickClock
            # advances per read): continue from their latest record, so
            # the open wave span ends after all of its children.
            self._epoch -= self._floor - t
            t = self._floor
        return t

    def _emit(self, record: Dict[str, Any]) -> None:
        if os.getpid() != self._pid:
            # Inherited by a forked worker: writing would interleave with
            # the parent, so the record is dropped here.  Pool workers
            # record through a WorkerContext instead.
            return
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
        if self._stack:
            record["parent"] = self._stack[-1]
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

    # --- Pool workers ------------------------------------------------------

    def worker_context(self) -> WorkerContext:
        """The context pool workers record under; take it inside the span
        their records belong to (the pool's ``pool.wave``)."""
        return WorkerContext(
            copy.copy(self._clock), self._epoch, self.iteration_detail
        )

    def capture(self) -> Capture:
        """This in-memory recorder's records and metrics, for :meth:`take_in`."""
        return self.records, self.snapshot()

    def take_in(self, capture: Capture, shard: str) -> None:
        """Adopt a worker's capture under the innermost open span.

        Span ids are renumbered past this recorder's own, the worker's
        root records are parented to the open span, every record is
        stamped with ``shard``, and the worker's metrics merge into
        :attr:`metrics`.  Later clock reads never go below the latest
        ``t`` taken in.
        """
        records, metrics = capture
        offset = self._next_span_id
        parent = self._stack[-1] if self._stack else None
        for record in records:
            adopted = dict(record, shard=shard)
            if "id" in adopted:
                adopted["id"] += offset
                self._next_span_id = max(self._next_span_id, adopted["id"] + 1)
            if "parent" in adopted:
                adopted["parent"] += offset
            elif parent is not None and adopted["kind"] != "span_end":
                adopted["parent"] = parent
            self._floor = max(self._floor, adopted["t"])
            self._emit(adopted)
        self.metrics.merge(metrics)

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
