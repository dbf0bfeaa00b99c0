"""JSON persistence for experiment outputs and sweep fingerprints.

Experiment results carry :class:`~repro.sim.stats.SummaryStats` (and,
since format version 2, :class:`~repro.sim.metrics.SolutionMetrics`)
values nested inside their ``raw`` payload; this module round-trips the
whole :class:`~repro.experiments.report.ExperimentOutput` through JSON so
runs can be archived, diffed across commits, and re-rendered without
re-running the (potentially hours-long) sweeps.

It also owns the structural fingerprints (:func:`sweep_digest`,
:func:`code_fingerprint`) that :mod:`repro.experiments.cache` builds its
content addresses from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.atomicio import atomic_write_text, canonical_json
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentOutput
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SolutionMetrics
from repro.sim.stats import SummaryStats

#: Tag marking an encoded SummaryStats object inside the JSON tree.
_STATS_TAG = "__summary_stats__"

#: Tag marking an encoded SolutionMetrics object inside the JSON tree.
_METRICS_TAG = "__solution_metrics__"

#: Schema version written into every file (bump on format changes).
#: v1: SummaryStats tagging only.
#: v2: adds SolutionMetrics tagging.
#: v3: unchanged output format (the bump versioned a since-removed
#:     checkpoint file); kept so existing outputs stay loadable.
FORMAT_VERSION = 3


def _encode(value: Any) -> Any:
    """Recursively convert raw payloads into JSON-compatible values."""
    if isinstance(value, SummaryStats):
        return {
            _STATS_TAG: {
                "mean": value.mean,
                "std": value.std,
                "ci_halfwidth": value.ci_halfwidth,
                "n": value.n,
                "confidence": value.confidence,
            }
        }
    if isinstance(value, SolutionMetrics):
        return {_METRICS_TAG: dataclasses.asdict(value)}
    if isinstance(value, dict):
        return {str(key): _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ConfigurationError(
        f"cannot serialize value of type {type(value).__name__} to JSON"
    )


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        if set(value.keys()) == {_STATS_TAG}:
            fields = value[_STATS_TAG]
            return SummaryStats(
                mean=float(fields["mean"]),
                std=float(fields["std"]),
                ci_halfwidth=float(fields["ci_halfwidth"]),
                n=int(fields["n"]),
                confidence=float(fields["confidence"]),
            )
        if set(value.keys()) == {_METRICS_TAG}:
            return _metrics_from_dict(value[_METRICS_TAG])
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


#: Every SolutionMetrics field name, for the payload check on each read.
_METRICS_FIELDS = frozenset(f.name for f in dataclasses.fields(SolutionMetrics))


def _metrics_from_dict(fields: Dict[str, Any]) -> SolutionMetrics:
    if not _METRICS_FIELDS.issuperset(fields):
        unknown = sorted(set(fields) - _METRICS_FIELDS)
        raise ConfigurationError(
            f"unknown SolutionMetrics fields in payload: {', '.join(unknown)}"
        )
    return SolutionMetrics(**fields)


def output_to_dict(output: ExperimentOutput) -> dict:
    """Plain-dict representation of an :class:`ExperimentOutput`."""
    return {
        "format_version": FORMAT_VERSION,
        "experiment_id": output.experiment_id,
        "title": output.title,
        "headers": list(output.headers),
        "rows": [list(row) for row in output.rows],
        "raw": _encode(output.raw),
    }


def output_from_dict(payload: dict) -> ExperimentOutput:
    """Rebuild an :class:`ExperimentOutput` from :func:`output_to_dict`.

    Rejects payloads whose ``format_version`` is missing or differs from
    :data:`FORMAT_VERSION` with a descriptive
    :class:`~repro.errors.ConfigurationError` — silently reading a stale
    or foreign file would corrupt cross-commit comparisons.
    """
    if "format_version" not in payload:
        raise ConfigurationError(
            "experiment-output has no 'format_version' field; not a file "
            "written by repro.experiments.persistence (or it predates "
            "versioning)"
        )
    version = payload["format_version"]
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported experiment-output format version: {version!r} "
            f"(this build reads version {FORMAT_VERSION}; re-run the sweep "
            "or load the file with a matching checkout)"
        )
    return ExperimentOutput(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        headers=list(payload["headers"]),
        rows=[list(row) for row in payload["rows"]],
        raw=_decode(payload["raw"]),
    )


def save_output(output: ExperimentOutput, path: Union[str, Path]) -> None:
    """Write an experiment output to ``path`` as indented JSON.

    The write is crash-safe (tmp + fsync + atomic rename via
    :mod:`repro.atomicio`): a reader never observes a torn file, and a
    crash mid-save leaves any previous version intact.
    """
    atomic_write_text(
        Path(path), json.dumps(output_to_dict(output), indent=2) + "\n"
    )


def load_output(path: Union[str, Path]) -> ExperimentOutput:
    """Read an experiment output previously written by :func:`save_output`."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{path} does not contain a JSON object "
            f"(got {type(payload).__name__})"
        )
    return output_from_dict(payload)


# --- Sweep fingerprints -----------------------------------------------------


#: Types that fingerprint as themselves, matched exactly (subclasses such
#: as ``np.float64`` take the general ``isinstance`` path below).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Init-field names of every dataclass type fingerprinted so far.
_INIT_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _fingerprint(value: Any) -> Any:
    """JSON-stable structural fingerprint of configs and schedulers.

    Dataclasses flatten to ``{type, fields...}``; arbitrary objects (the
    scheduler instances) flatten to their type plus instance ``__dict__``;
    callables and classes reduce to their qualified name.  Two sweeps
    share a digest only when their configs *and* scheme
    construction parameters match, so e.g. two ``fig4`` points differing
    only in chain length never collide.

    Every cache key is built from this output, so it must not change:
    the exact-type scalar check and the per-class field names are
    shortcuts to what the ``isinstance`` chain would return.
    """
    cls = type(value)
    if cls in _JSON_SCALARS:
        return value
    names = _INIT_FIELDS.get(cls)
    if names is None and dataclasses.is_dataclass(value) and not isinstance(
        value, type
    ):
        names = _INIT_FIELDS[cls] = tuple(
            f.name for f in dataclasses.fields(value) if f.init
        )
    if names is not None:
        out: Dict[str, Any] = {"__type__": cls.__qualname__}
        for name in names:
            item = getattr(value, name)
            out[name] = item if type(item) in _JSON_SCALARS else _fingerprint(item)
        return out
    if isinstance(value, dict):
        return {str(key): _fingerprint(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_fingerprint(item) for item in value]
    if isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, type) or callable(value):
        module = getattr(value, "__module__", "")
        qualname = getattr(value, "__qualname__", cls.__qualname__)
        return f"{module}.{qualname}"
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__type__": cls.__qualname__,
            **{
                str(key): _fingerprint(item)
                for key, item in sorted(state.items())
            },
        }
    return repr(value)


def sweep_digest(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Stable hex digest identifying one (config, schemes) sweep cell set.

    ``extra`` folds driver-specific knobs (fault rates, policies, sweep
    settings) into the digest so one cache can safely back many
    experiment points (see :func:`repro.experiments.cache.digest_key`).
    """
    payload = {
        "config": _fingerprint(config),
        "schedulers": [_fingerprint(s) for s in schedulers],
        "extra": _fingerprint(extra) if extra else None,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


#: Memoized :func:`code_fingerprint` value (stable for a process's lifetime).
_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Short hex digest of the *implementation contract* of this build.

    Hashes the checked-in equation/algorithm registries and the
    required-citation map — the project's machine-readable statement of
    which formulas the code implements.  When any of those change,
    previously persisted per-seed metrics may no longer be reproducible,
    so every cache address includes this fingerprint and results written
    under a different one are never served.  Lint rules are not hashed:
    results do not depend on them.

    The registries are imported lazily and the digest memoized:
    registries are module-level constants, so the fingerprint cannot
    change within a process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        from repro.lint.equations import (
            ALGORITHMS,
            EQUATIONS,
            REQUIRED_CITATIONS,
        )

        payload = {
            "equations": EQUATIONS,
            "algorithms": ALGORITHMS,
            "required_citations": {
                module: {
                    function: list(citations)
                    for function, citations in sorted(functions.items())
                }
                for module, functions in sorted(REQUIRED_CITATIONS.items())
            },
        }
        _CODE_FINGERPRINT = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()[:16]
    return _CODE_FINGERPRINT
