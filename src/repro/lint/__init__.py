"""repro.lint — project-specific static analysis for the TSAJS reproduction.

The delta-evaluation fast path (:mod:`repro.core.delta`) is only correct
under invariants the language cannot express: identical float accumulation
order, fully seeded randomness, deterministic iteration, and a faithful
equation-to-code mapping against the paper.  This package enforces those
contracts at commit time with AST-based rules:

======  ==============================================================
R001    no unseeded/global randomness outside ``repro/sim/rng.py``
R002    determinism hazards in delta-contract modules (``core/``, ``net/``)
R003    unit discipline — telecom magic constants must route via ``units.py``
R004    paper traceability — model math must cite a registered equation
R005    float accumulation order — no Python ``sum()`` or BLAS in ``core/``
R006    config drift — every ``SimulationConfig`` field consumed + documented
R007    exception hygiene — no bare ``except:``, no swallowed broad handler
R008    telemetry discipline — no direct clock or ``print()``; atomic writes
R011    no float reduction over a set / ``as_completed`` / directory listing
======  ==============================================================

Run ``python -m repro.lint src/``.  There is no suppression comment: fix
the finding.  See ``docs/linting.md``.
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintResult, Project, lint_paths
from repro.lint.registry import all_rules, get_rule, register
from repro.lint.rules_base import Rule

__all__ = [
    "Diagnostic",
    "LintResult",
    "Project",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register",
]
