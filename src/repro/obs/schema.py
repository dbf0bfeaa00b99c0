"""Trace schema v3 — the JSONL record contract and its validator.

Every line of a trace file is one JSON object with the fields

========== ==============================================================
field      meaning
========== ==============================================================
``v``      schema version (the integer ``3``)
``kind``   ``"event"``, ``"span_start"`` or ``"span_end"``
``name``   dotted event name (``"anneal.level"``, ``"runner.seed"``, ...)
``t``      monotonic seconds since the recorder's epoch (>= 0)
``attrs``  flat JSON object of deterministic payload values
``id``     span identifier (spans only; pairs ``span_start``/``span_end``)
``dur``    span duration in seconds (``span_end`` only, >= 0)
``parent`` span id of the enclosing span (optional)
``shard``  pool worker cell the record came from, ``s<seed>`` (optional)
========== ==============================================================

Any other version is refused: one recorder writes the file and one
reader (``tsajs obs explain``) reads it, so there is nothing older to
stay compatible with (see ``docs/observability.md``).

Two invariants keep traces reproducible and diffable:

* **Timing lives only in ``t`` / ``dur``.**  ``attrs`` values carry
  algorithm state (temperatures, utilities, counters) — never clock
  readings — so stripping ``t``/``dur`` from two runs of the same seed
  yields identical documents.
* **Attrs are flat and scalar.**  Values are strings, finite numbers,
  booleans, ``None``, or lists thereof; nesting is rejected so every
  line stays greppable and schema checks stay O(line).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, List, Mapping, Tuple, Union

from repro.errors import ReproError

#: The trace schema version (written by every recorder, and the only one read).
SCHEMA_VERSION = 3

#: The record kinds the schema defines.
KINDS: Tuple[str, ...] = ("event", "span_start", "span_end")

_SCALAR_TYPES = (str, bool, int, float, type(None))


class TraceSchemaError(ReproError):
    """A trace record (or file line) violates the trace schema."""


def _fail(message: str, line: Union[int, None]) -> "TraceSchemaError":
    prefix = f"line {line}: " if line is not None else ""
    return TraceSchemaError(f"{prefix}{message}")


def _check_scalar(key: str, value: Any, line: Union[int, None]) -> None:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if value != value or value in (float("inf"), float("-inf")):
            raise _fail(f"attr {key!r} must be finite, got {value!r}", line)
        return
    raise _fail(
        f"attr {key!r} must be a scalar or list of scalars, got "
        f"{type(value).__name__}",
        line,
    )


def validate_record(record: Any, line: Union[int, None] = None) -> None:
    """Check one decoded record against the trace schema.

    Raises :class:`TraceSchemaError` with the offending field (and the
    1-based ``line`` number when given); returns ``None`` on success.
    """
    if not isinstance(record, dict):
        raise _fail(f"record must be a JSON object, got {type(record).__name__}", line)
    version = record.get("v")
    if version != SCHEMA_VERSION:
        raise _fail(f"unsupported schema version {version!r} (expected {SCHEMA_VERSION})", line)
    kind = record.get("kind")
    if kind not in KINDS:
        raise _fail(f"unknown kind {kind!r} (expected one of {', '.join(KINDS)})", line)
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise _fail(f"name must be a non-empty string, got {name!r}", line)
    t = record.get("t")
    if isinstance(t, bool) or not isinstance(t, (int, float)) or t < 0 or t != t:
        raise _fail(f"t must be a number >= 0, got {t!r}", line)
    attrs = record.get("attrs")
    if not isinstance(attrs, dict):
        raise _fail(f"attrs must be an object, got {type(attrs).__name__}", line)
    for key, value in attrs.items():
        if isinstance(value, list):
            for item in value:
                _check_scalar(key, item, line)
        else:
            _check_scalar(key, value, line)

    allowed = {"v", "kind", "name", "t", "attrs"}
    if kind in ("span_start", "span_end"):
        span_id = record.get("id")
        if isinstance(span_id, bool) or not isinstance(span_id, int) or span_id < 0:
            raise _fail(f"span id must be an integer >= 0, got {span_id!r}", line)
        allowed.add("id")
    if kind == "span_end":
        dur = record.get("dur")
        if isinstance(dur, bool) or not isinstance(dur, (int, float)) or dur < 0:
            raise _fail(f"dur must be a number >= 0, got {dur!r}", line)
        allowed.add("dur")
    if "parent" in record:
        parent = record["parent"]
        if isinstance(parent, bool) or not isinstance(parent, int) or parent < 0:
            raise _fail(f"parent must be an integer >= 0, got {parent!r}", line)
        allowed.add("parent")
    if "shard" in record:
        shard = record["shard"]
        if not isinstance(shard, str) or not shard:
            raise _fail(f"shard must be a non-empty string, got {shard!r}", line)
        allowed.add("shard")
    extra = sorted(set(record) - allowed)
    if extra:
        raise _fail(f"unexpected field(s): {', '.join(extra)}", line)


def iter_trace_lines(lines: Iterable[str]) -> Iterator[dict]:
    """Decode and validate JSONL ``lines``, yielding schema-valid records.

    Blank lines are skipped; a malformed or schema-violating line raises
    :class:`TraceSchemaError` naming its 1-based position.
    """
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise _fail(f"invalid JSON: {exc}", number) from exc
        validate_record(record, line=number)
        yield record


def validate_trace(lines: Iterable[str]) -> List[dict]:
    """Validate a whole JSONL document; returns the decoded records."""
    return list(iter_trace_lines(lines))


def span_pairs_balanced(records: Iterable[Mapping[str, Any]]) -> bool:
    """Whether every ``span_start`` has a matching later ``span_end``."""
    open_ids = set()
    for record in records:
        if record["kind"] == "span_start":
            open_ids.add(record["id"])
        elif record["kind"] == "span_end":
            if record["id"] not in open_ids:
                return False
            open_ids.discard(record["id"])
    return not open_ids
