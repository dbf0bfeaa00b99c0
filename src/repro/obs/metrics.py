"""Counters, gauges and histograms aggregated per labelled series.

A deliberately small metrics model (no exposition format, no time
windows): every instrument is identified by a name plus a label mapping
(``scheduler.evaluations{scheme=TSAJS,seed=3}``), values accumulate
in-process, and :meth:`MetricsRegistry.snapshot` renders everything into
one plain, JSON-ready, deterministically-ordered dict.  The experiment
runner labels its series per ``(scheme, seed)`` cell, which is exactly
the granularity the paper's figures aggregate over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Union

from repro.errors import ConfigurationError

#: Values a label may carry (rendered with ``str``).
LabelValue = Union[str, int, float, bool]


def metric_key(name: str, labels: Mapping[str, LabelValue]) -> str:
    """Render ``name`` + labels into the canonical series key.

    Labels are sorted by key, so the same series always renders to the
    same string regardless of call-site keyword order.
    """
    if not name:
        raise ConfigurationError("metric name must be non-empty")
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


@dataclass
class HistogramStats:
    """Streaming summary of one histogram series (no buckets kept)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """In-process accumulation of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramStats] = {}

    def count(
        self, name: str, value: float = 1.0, **labels: LabelValue
    ) -> None:
        """Add ``value`` (default 1) to a monotonically-growing counter."""
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge_set(self, name: str, value: float, **labels: LabelValue) -> None:
        """Set a gauge to its latest value (last write wins)."""
        self._gauges[metric_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: LabelValue) -> None:
        """Record one sample into a histogram series."""
        key = metric_key(name, labels)
        stats = self._histograms.get(key)
        if stats is None:
            stats = self._histograms[key] = HistogramStats()
        stats.observe(value)

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges take the incoming value (last write wins),
        and histograms combine count, total, min and max.
        """
        for key, value in snapshot["counters"].items():
            self._counters[key] = self._counters.get(key, 0.0) + value
        self._gauges.update(snapshot["gauges"])
        for key, summary in snapshot["histograms"].items():
            stats = self._histograms.setdefault(key, HistogramStats())
            stats.count += summary["count"]
            stats.total += summary["total"]
            stats.min = min(stats.min, summary["min"])
            stats.max = max(stats.max, summary["max"])

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> Dict[str, Any]:
        """All series as one JSON-ready dict with deterministic ordering."""
        return {
            "counters": {key: self._counters[key] for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key] for key in sorted(self._gauges)},
            "histograms": {
                key: self._histograms[key].as_dict()
                for key in sorted(self._histograms)
            },
        }
