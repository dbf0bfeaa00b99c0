"""Exception hierarchy for the repro library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations

import numpy as np


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A scenario or algorithm was configured with invalid parameters."""


class InfeasibleDecisionError(ReproError):
    """An offloading decision violates constraints (12b)-(12d) of the paper."""


class InfeasibleAllocationError(ReproError):
    """A computing-resource allocation violates constraints (12e)-(12f)."""


class SolverError(ReproError):
    """A scheduling algorithm failed to produce a valid solution."""


def raise_float_errors() -> None:
    """Make numpy raise on overflow, division by zero and invalid results.

    Underflow stays silent.  Every entry point that runs experiments
    (``tsajs`` and ``scripts/generate_experiments_report.py``) calls this
    once, so a table is never written from a value that the other entry
    point would reject.  Library code leaves the error mode alone.
    """
    np.seterr(all="raise", under="ignore")
