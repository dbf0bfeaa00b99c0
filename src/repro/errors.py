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


def float_error_mode() -> np.errstate:
    """Context in which numpy raises on overflow, division by zero and
    invalid results; underflow stays silent.

    Both entry points that run experiments (``tsajs`` and
    ``scripts/generate_experiments_report.py``) run under it, so a table
    is never written from a value that the other entry point would
    reject.  Leaving the context restores the caller's error mode, and
    library code leaves the mode alone.
    """
    return np.errstate(all="raise", under="ignore")
