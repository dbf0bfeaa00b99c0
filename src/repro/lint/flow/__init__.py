"""Whole-project dataflow analysis for the determinism lint rules.

The per-file AST rules (R001-R008) can only see one module at a time,
but the reproduction guarantees they protect — scalar==delta==batch
bitwise identity, byte-identical ``--cache`` resumes, RNG-rewind invisibility —
are *inter-procedural* properties: an RNG stream created in one module
is threaded through calls, closures and executor submissions defined in
others.  This package adds the project-wide view those properties need:

* :mod:`repro.lint.flow.symbols` — a cross-module symbol table mapping
  every import, module-level binding, function and class to its
  absolute dotted name;
* :mod:`repro.lint.flow.callgraph` — a call graph over the project's
  own functions (resolved through the symbol table, including
  ``self.method`` and ``Class.method`` calls);
* :mod:`repro.lint.flow.cfg` — a per-function CFG-lite giving statement
  order, branch structure and loop depth (a call site inside a loop
  executes many times — the difference between sharing one RNG stream
  and deriving a fresh one per task);
* :mod:`repro.lint.flow.taint` — the dataflow walker: it seeds taint at
  sources (``make_rng()``/``child_rng()`` calls, ``Generator``
  parameters, executor constructions, ``get_recorder()``, unordered
  iterables), propagates it through assignments, comprehensions,
  conditional expressions and — via a fixpoint over the call graph —
  through calls and returns.

The flow rules R009-R012 consume one shared :class:`FlowAnalysis` per
lint invocation (cached on the :class:`~repro.lint.engine.Project`), so
the whole-project pass is built exactly once however many rules run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.symbols import SymbolTable
from repro.lint.flow.taint import FunctionTaint, TaintAnalysis

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.lint.engine import Project


@dataclass
class FlowAnalysis:
    """The shared whole-project analysis the flow rules consume."""

    symbols: SymbolTable
    callgraph: CallGraph
    taint: TaintAnalysis
    #: Wall-clock seconds spent building the analysis (symbol table +
    #: call graph + taint fixpoint); surfaced by ``repro.lint --timing``
    #: and gated < 10 s in CI.
    build_seconds: float = 0.0

    @property
    def functions(self) -> Dict[str, FunctionTaint]:
        """Per-function taint results keyed by qualified name."""
        return self.taint.functions


def analyze_project(project: "Project") -> FlowAnalysis:
    """Build (or reuse) the :class:`FlowAnalysis` for one lint run.

    The analysis is cached on the project object, so the four flow rules
    share a single symbol-table/call-graph/taint pass per invocation.
    """
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
    callgraph = CallGraph.build(symbols)
    taint = TaintAnalysis.build(symbols, callgraph)
    analysis = FlowAnalysis(symbols=symbols, callgraph=callgraph, taint=taint)
    analysis.build_seconds = time.perf_counter() - start
    project.flow_cache = analysis
    return analysis


__all__ = [
    "FlowAnalysis",
    "analyze_project",
    "CallGraph",
    "SymbolTable",
    "TaintAnalysis",
]
