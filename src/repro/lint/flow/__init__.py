"""Whole-project dataflow analysis for the unordered-reduction rule.

The per-file AST rules (R001-R008) can only see one module at a time,
but an unordered iterable built in one function can be reduced in
another: a ``set`` returned by a helper, passed as an argument, or
parked on ``self``.  This package adds the project-wide view that R011
needs:

* :mod:`repro.lint.flow.symbols` — a cross-module symbol table mapping
  every import, module-level binding and function to its absolute
  dotted name;
* :mod:`repro.lint.flow.taint` — the dataflow walker: it marks
  unordered sources (set displays and constructors, ``as_completed``,
  ``os.listdir``, ``glob``, ``Path.iterdir``) and propagates the mark
  through assignments, comprehensions, conditional expressions and —
  via a fixpoint over call sites — through calls and returns.

R011 builds one :class:`FlowAnalysis` per lint invocation (cached on
the :class:`~repro.lint.engine.Project`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.lint.flow.symbols import SymbolTable
from repro.lint.flow.taint import FunctionTaint, TaintAnalysis

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.lint.engine import Project


@dataclass
class FlowAnalysis:
    """The shared whole-project analysis R011 consumes."""

    symbols: SymbolTable
    taint: TaintAnalysis
    #: Wall-clock seconds spent building the analysis (symbol table +
    #: taint fixpoint); surfaced by ``repro.lint --timing`` and gated
    #: < 10 s in the test suite.
    build_seconds: float = 0.0

    @property
    def functions(self) -> Dict[str, FunctionTaint]:
        """Per-function taint results keyed by qualified name."""
        return self.taint.functions


def analyze_project(project: "Project") -> FlowAnalysis:
    """Build (or reuse) the :class:`FlowAnalysis` for one lint run."""
    cached = project.flow_cache
    if isinstance(cached, FlowAnalysis):
        return cached
    # The build is timed with the stdlib clock on purpose: the lint
    # engine is tooling, not simulation code, so the repro.obs clock
    # seam (which exists to make *simulation* timing injectable) does
    # not apply here.
    import time

    start = time.perf_counter()
    symbols = SymbolTable.build(project)
    taint = TaintAnalysis.build(symbols)
    analysis = FlowAnalysis(symbols=symbols, taint=taint)
    analysis.build_seconds = time.perf_counter() - start
    project.flow_cache = analysis
    return analysis


__all__ = [
    "FlowAnalysis",
    "analyze_project",
    "SymbolTable",
    "TaintAnalysis",
]
