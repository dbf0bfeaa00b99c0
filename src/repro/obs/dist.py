"""Distributed tracing: context propagation and trace-shard merging.

Single-process runs record everything into one
:class:`~repro.obs.trace.TraceRecorder`; the pool executor, however,
does most of its work in child processes whose inherited recorder drops
every record (fork safety).  This module closes that gap with three
pieces:

* :class:`TraceContext` — a small, picklable capsule (trace id, parent
  span id, shard directory, detail gates, optional deterministic clock
  step) the coordinator derives from its own recorder
  (:func:`propagated_context`) and pickles into every pool task;
* :func:`worker_trace` — opened by a worker around one task: a private
  :class:`~repro.obs.trace.TraceRecorder` whose records nest under the
  propagated parent span and land in an atomically-written JSONL shard
  ``trace-<pid>-<task>.jsonl`` (via :class:`repro.atomicio.AtomicLineWriter`,
  so a killed worker leaves *no* torn shard, only a stale temp file);
* :func:`merge_trace_shards` — stitches the coordinator trace and every
  shard into one schema-v2-valid span tree: coordinator records first
  (original order), then shards ordered by span open tick with the task
  label as the stable tiebreak, span ids renumbered into one namespace
  and each shard record stamped with its ``shard`` label.  On a
  :class:`~repro.obs.clock.TickClock` the merged document is
  byte-reproducible across runs (worker PIDs appear only in shard file
  *names*, never in record bodies).

A torn or otherwise schema-invalid shard never aborts the merge: it is
quarantined next to the telemetry directory and replaced by a
``shard_truncated`` event in the merged output, so partial telemetry
from a crashed worker degrades loudly instead of poisoning the tree.

The cardinal rule is inherited from :mod:`repro.obs`: none of this may
perturb results.  Worker recorders never touch RNG streams, shard
writes happen outside the solve path, and a worker that cannot write
its shard (unreachable directory) drops telemetry rather than failing
the task.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.clock import TickClock
from repro.obs.recorder import get_recorder
from repro.obs.schema import SCHEMA_VERSION, TraceSchemaError, validate_record
from repro.obs.trace import TraceRecorder, read_trace

#: Filename prefix of worker trace shards inside the telemetry directory.
SHARD_PREFIX = "trace-"


@dataclass(frozen=True)
class TraceContext:
    """Picklable capsule linking worker telemetry to a parent trace.

    Attributes
    ----------
    trace_id:
        Distributed trace id every shard record is stamped with.
    parent_span_id:
        Coordinator-side span id the worker's root span nests under
        (``None`` attaches shards at the root of the tree).
    shard_dir:
        Directory (as seen by the worker) to write the shard into.
    iteration_detail:
        Forward the coordinator's per-iteration detail gate.
    tick:
        When the coordinator records on a deterministic
        :class:`~repro.obs.clock.TickClock`, its step — workers then use
        a ``TickClock`` of the same step so shard timing is a pure
        function of the event sequence (byte-reproducible merges).
        ``None`` means real monotonic worker clocks.
    """

    trace_id: str
    parent_span_id: Optional[int]
    shard_dir: str
    iteration_detail: bool = False
    tick: Optional[float] = None


def propagated_context() -> Optional[TraceContext]:
    """The context the current recorder wants shipped to workers.

    ``None`` unless the installed recorder is an enabled
    :class:`~repro.obs.trace.TraceRecorder` with a ``trace_id`` *and* a
    ``shard_dir`` (the distributed opt-in — ``tsajs run --telemetry``
    sets both).  The parent span id is the recorder's innermost open
    span at call time, so executors should call this inside their wave
    span.
    """
    rec = get_recorder()
    if not isinstance(rec, TraceRecorder) or not rec.enabled:
        return None
    if rec.trace_id is None or rec.shard_dir is None:
        return None
    clock = rec.clock
    tick = clock.step if isinstance(clock, TickClock) else None
    return TraceContext(
        trace_id=rec.trace_id,
        parent_span_id=rec.current_span_id(),
        shard_dir=str(rec.shard_dir),
        iteration_detail=rec.iteration_detail,
        tick=tick,
    )


def shard_path(ctx: TraceContext, task: str) -> Path:
    """Where this process's shard for ``task`` lands."""
    return Path(ctx.shard_dir) / f"{SHARD_PREFIX}{os.getpid()}-{task}.jsonl"


@contextmanager
def worker_trace(ctx: TraceContext, task: str) -> Iterator[TraceRecorder]:
    """A worker-side recorder for one task, published as a trace shard.

    Opens a private recorder whose root span (``worker.task``) nests
    under ``ctx.parent_span_id``; install it with
    :func:`~repro.obs.recorder.use_recorder` around the task's work.
    The shard file is written atomically on exit.  Telemetry must never
    fail the task: an unreachable shard directory drops the shard
    (records are simply lost, as in the unpropagated legacy path).
    """
    clock = TickClock(step=ctx.tick) if ctx.tick is not None else None
    try:
        recorder = TraceRecorder(
            shard_path(ctx, task),
            clock=clock,
            iteration_detail=ctx.iteration_detail,
            trace_id=ctx.trace_id,
        )
    except OSError:
        recorder = TraceRecorder(
            path=None,
            clock=clock,
            iteration_detail=ctx.iteration_detail,
            trace_id=ctx.trace_id,
        )
    root = recorder._open_span(
        "worker.task", ctx.parent_span_id, {"task": task}
    )
    try:
        yield recorder
    finally:
        recorder._end_span(root)
        try:
            recorder.close()
        except OSError:
            pass


# --- Merging ---------------------------------------------------------------


def _quarantine(path: Path, quarantine_dir: Path) -> Path:
    """Move a torn shard aside (suffix-until-free; never deletes)."""
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    target = quarantine_dir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = quarantine_dir / f"{path.name}.{suffix}"
    os.replace(path, target)
    return target


def _shard_task(path: Path) -> str:
    """The task label encoded in ``trace-<pid>-<task>.jsonl``."""
    stem = path.name[len(SHARD_PREFIX) : -len(".jsonl")]
    _, _, task = stem.partition("-")
    return task if task else stem


def find_shards(telemetry_dir: Union[str, Path]) -> List[Path]:
    """All worker shard files under ``telemetry_dir`` (unsorted)."""
    root = Path(telemetry_dir)
    return [
        path
        for path in root.glob(f"{SHARD_PREFIX}*.jsonl")
        if path.name != "trace.jsonl"
    ]


def merge_trace_shards(
    telemetry_dir: Union[str, Path],
    trace_path: Optional[Union[str, Path]] = None,
    quarantine_dir: Optional[Union[str, Path]] = None,
) -> List[Dict[str, Any]]:
    """Stitch the coordinator trace and its worker shards into one tree.

    Returns the merged, schema-validated records: coordinator records in
    emission order, then each shard's records in emission order, shards
    ordered by (root span open tick, task label, filename).  Span ids
    are renumbered into one namespace — coordinator ids are preserved,
    shard-local ids are offset past them — and every shard record gains
    a ``shard`` field carrying its task label.  A shard's root-span
    ``parent`` already refers to a coordinator span id and is kept
    verbatim; all other parent links are shard-local and remapped.

    A shard that fails schema validation (torn tail, truncated JSON) is
    moved to ``quarantine_dir`` (default ``<telemetry_dir>/corrupt``)
    and replaced by a ``shard_truncated`` event so the merged document
    still validates end to end.
    """
    root = Path(telemetry_dir)
    parent_trace = (
        Path(trace_path) if trace_path is not None else root / "trace.jsonl"
    )
    quarantine = (
        Path(quarantine_dir) if quarantine_dir is not None else root / "corrupt"
    )
    merged: List[Dict[str, Any]] = []
    if parent_trace.exists():
        merged.extend(read_trace(parent_trace))
    next_id = (
        max(
            (rec["id"] for rec in merged if "id" in rec),
            default=-1,
        )
        + 1
    )

    loaded: List[Tuple[float, str, str, List[Dict[str, Any]]]] = []
    torn: List[Tuple[str, str]] = []
    for path in find_shards(root):
        task = _shard_task(path)
        try:
            records = read_trace(path)
        except (TraceSchemaError, ValueError) as exc:
            _quarantine(path, quarantine)
            torn.append((task, f"{type(exc).__name__}: {exc}"))
            continue
        open_t = float(records[0]["t"]) if records else 0.0
        loaded.append((open_t, task, path.name, records))

    for open_t, task, _, records in sorted(
        loaded, key=lambda item: (item[0], item[1], item[2])
    ):
        local_ids = {rec["id"] for rec in records if "id" in rec}
        offset = next_id
        next_id += (max(local_ids) + 1) if local_ids else 0
        seen_root = False
        for rec in records:
            out = dict(rec)
            out["shard"] = task
            if "id" in out:
                out["id"] = offset + out["id"]
            if out["kind"] == "span_start" and not seen_root:
                seen_root = True
                # The shard root's parent is a coordinator span id,
                # preserved by the renumbering above — keep it.
            elif "parent" in out:
                out["parent"] = offset + out["parent"]
            merged.append(out)

    for task, error in sorted(torn):
        merged.append(
            {
                "v": SCHEMA_VERSION,
                "kind": "event",
                "name": "shard_truncated",
                "t": 0.0,
                "attrs": {"task": task, "error": error},
                "shard": task,
            }
        )

    for number, record in enumerate(merged, start=1):
        validate_record(record, line=number)
    return merged


def render_trace_lines(records: List[Dict[str, Any]]) -> str:
    """Records as a compact JSONL document (one trailing newline)."""
    return "".join(
        json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"
        for record in records
    )
