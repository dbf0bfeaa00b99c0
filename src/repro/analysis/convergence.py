"""Annealing-convergence diagnostics.

TSAJS's value proposition is converging to near-optimal utility within a
polynomial budget, and its threshold trigger exists purely to shape the
*convergence profile* (same ceiling, fewer iterations).  These helpers
quantify that profile from the per-temperature best-utility traces the
scheduler records with ``record_trace=True``:

* :func:`summarize_trace` — final value, levels to reach a fraction of the
  final value, and the normalised area under the trace (1.0 = the run
  spent its whole budget already at the final value; lower = slower
  climb).
* :func:`ascii_sparkline` — render a trace for terminal output.

``tsajs obs explain`` (:mod:`repro.obs.analyze`) applies both to the
best-so-far series it rebuilds from a recorded trace's ``anneal.level``
events, so a run can be profiled after the fact without re-running it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Unicode block characters used by :func:`ascii_sparkline`.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of one best-utility trace.

    Attributes
    ----------
    final_value:
        The best utility at the end of the run.
    levels:
        Number of temperature levels recorded.
    levels_to_90 / levels_to_99:
        First level at which the trace reached 90 % / 99 % of its total
        climb from the initial value (0-indexed; equals ``levels`` if the
        threshold was never reached, which cannot happen for 90/99 < 100).
    normalized_auc:
        Mean of the trace after min-max normalisation to [0, 1]; higher
        means the run reached good solutions earlier.
    """

    final_value: float
    levels: int
    levels_to_90: int
    levels_to_99: int
    normalized_auc: float


def summarize_trace(trace: Sequence[float]) -> ConvergenceReport:
    """Build a :class:`ConvergenceReport` from a best-utility trace."""
    values = np.asarray(list(trace), dtype=float)
    if values.size == 0:
        raise ConfigurationError("cannot summarize an empty trace")
    final = float(values[-1])
    start = float(values[0])
    climb = final - start
    if climb <= 0.0:
        # Flat (or already-optimal start): converged immediately.
        return ConvergenceReport(
            final_value=final,
            levels=int(values.size),
            levels_to_90=0,
            levels_to_99=0,
            normalized_auc=1.0,
        )
    progress = (values - start) / climb
    levels_to_90 = int(np.argmax(progress >= 0.90))
    levels_to_99 = int(np.argmax(progress >= 0.99))
    return ConvergenceReport(
        final_value=final,
        levels=int(values.size),
        levels_to_90=levels_to_90,
        levels_to_99=levels_to_99,
        normalized_auc=float(progress.mean()),
    )


def ascii_sparkline(trace: Sequence[float], width: Optional[int] = None) -> str:
    """Render a trace as a unicode sparkline (e.g. ``▁▃▅▆▇█``).

    ``width`` resamples the trace to that many characters; by default one
    character per point.
    """
    values = np.asarray(list(trace), dtype=float)
    if values.size == 0:
        return ""
    if width is not None:
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        positions = np.linspace(0, values.size - 1, width)
        values = np.interp(positions, np.arange(values.size), values)
    low, high = float(values.min()), float(values.max())
    if high == low:
        return _SPARK_LEVELS[-1] * values.size
    scaled = (values - low) / (high - low)
    indices = np.minimum(
        (scaled * len(_SPARK_LEVELS)).astype(int), len(_SPARK_LEVELS) - 1
    )
    return "".join(_SPARK_LEVELS[i] for i in indices)
