"""Statistics helpers: means and 95 % confidence intervals.

The paper reports "the corresponding average system utility for each
scheme and ... the 95% confidence interval (CI)" (Sec. V-A).  These
helpers compute Student-t confidence intervals over per-seed samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SummaryStats:
    """Mean, standard deviation and a symmetric confidence half-width."""

    mean: float
    std: float
    ci_halfwidth: float
    n: int
    confidence: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_halfwidth

    def interval(self) -> Tuple[float, float]:
        return (self.ci_low, self.ci_high)


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(mean, low, high)`` of a Student-t confidence interval.

    With a single sample the interval degenerates to the point itself.
    """
    summary = summarize(samples, confidence)
    return (summary.mean, summary.ci_low, summary.ci_high)


def summarize(samples: Sequence[float], confidence: float = 0.95) -> SummaryStats:
    """Full summary statistics of a sample vector."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must lie in (0, 1), got {confidence}"
        )
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ConfigurationError("cannot summarize an empty sample")
    if not bool(np.all(np.isfinite(data))):
        bad = int(np.count_nonzero(~np.isfinite(data)))
        raise ConfigurationError(
            f"cannot summarize non-finite samples: {bad} of {data.size} "
            "values are NaN or infinite (filter them out explicitly first)"
        )
    mean = float(data.mean())
    if data.size == 1:
        return SummaryStats(mean=mean, std=0.0, ci_halfwidth=0.0, n=1, confidence=confidence)
    # Imported here so that only a process computing a CI pays for scipy,
    # and from scipy.special because scipy.stats costs more to import than
    # a paper-scale solve.  ``stdtrit(df, q)`` is what
    # ``scipy.stats.t.ppf(q, df)`` evaluates, bit for bit.
    from scipy.special import stdtrit

    std = float(data.std(ddof=1))
    sem = std / np.sqrt(data.size)
    t_crit = float(stdtrit(data.size - 1, (1.0 + confidence) / 2.0))
    return SummaryStats(
        mean=mean,
        std=std,
        ci_halfwidth=float(t_crit * sem),
        n=int(data.size),
        confidence=confidence,
    )
