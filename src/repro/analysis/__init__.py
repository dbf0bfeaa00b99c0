"""Analysis utilities: convergence diagnostics and optimality gaps."""

from repro.analysis.optimality import GapReport, measure_optimality_gap
from repro.analysis.convergence import (
    ConvergenceReport,
    ascii_sparkline,
    summarize_trace,
)

__all__ = [
    "ConvergenceReport",
    "GapReport",
    "measure_optimality_gap",
    "ascii_sparkline",
    "summarize_trace",
]
