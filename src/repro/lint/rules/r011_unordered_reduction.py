"""R011 — float reductions must not consume unordered iterables.

Floating-point addition is not associative: summing the same values in
a different order changes the last bits, and the golden-trajectory and
resume-equality suites compare *bits*.  R005 already bans scalar
accumulation inside ``core/``; this rule closes the gap everywhere else
by following *where the iterable came from*.  The flow layer marks
inherently unordered producers —

* ``set``/``frozenset`` displays, constructors and comprehensions,
* ``concurrent.futures.as_completed`` (completion order is scheduling),
* ``os.listdir`` / ``os.scandir`` / ``glob`` / ``Path.iterdir``
  (directory order is filesystem-dependent),

— and tracks the mark through assignments, ``list()``/``enumerate()``
wrappers and comprehensions (which all *preserve* the unordered order);
``sorted(...)`` cleanses it.  The rule fires on:

1. a reduction call (``sum``, ``math.fsum``, ``np.sum``/``mean``/
   ``std``/``var``/``prod``/``median``, ``np.add.reduce``) whose
   argument carries the unordered taint;
2. an arithmetic accumulation (``total += ...`` / ``total *= ...``)
   inside a ``for`` loop iterating an unordered-tainted expression —
   the parallel-gather idiom ``for fut in as_completed(...): s += ...``.

Fix by pinning the order first: ``sorted(...)`` with a total key, or
gather parallel results into an index-addressed list and reduce that.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import Project
from repro.lint.flow import analyze_project
from repro.lint.flow.taint import FunctionTaint, TaintAnalysis
from repro.lint.registry import register
from repro.lint.rules_base import Rule

#: Resolved dotted targets of order-sensitive reduction callables.
REDUCTIONS = {
    ("sum",),
    ("math", "fsum"),
    ("fsum",),
    ("np", "sum"),
    ("np", "mean"),
    ("np", "std"),
    ("np", "var"),
    ("np", "prod"),
    ("np", "median"),
    ("np", "average"),
    ("numpy", "sum"),
    ("numpy", "mean"),
    ("numpy", "std"),
    ("numpy", "var"),
    ("numpy", "prod"),
    ("numpy", "median"),
    ("numpy", "average"),
    ("np", "add", "reduce"),
    ("numpy", "add", "reduce"),
}


@register
class UnorderedReductionRule(Rule):
    rule_id = "R011"
    title = "pin iteration order before float reductions"
    rationale = (
        "Float addition is not associative, so reducing a set / "
        "as_completed / directory-listing iterable produces order-"
        "dependent bits; sort (with a total key) or gather into an "
        "index-addressed list first."
    )

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        analysis = analyze_project(project)
        taint = analysis.taint
        for qualified in sorted(taint.functions):
            fnt = taint.functions[qualified]
            yield from self._check_reduction_calls(taint, fnt)
            yield from self._check_loop_accumulation(taint, fnt)

    # ------------------------------------------------------------------

    def _check_reduction_calls(
        self, taint: TaintAnalysis, fnt: FunctionTaint
    ) -> Iterator[Diagnostic]:
        for record in fnt.calls:
            call = record.node
            name = dotted_name(call.func)
            if name not in REDUCTIONS or not call.args:
                continue
            if taint.is_unordered(fnt, call.args[0]):
                pretty = ".".join(name)
                yield fnt.info.ctx.diagnostic(
                    self.rule_id,
                    call,
                    f"{pretty}() reduces an unordered iterable; float "
                    "accumulation order would depend on hash/scheduling/"
                    "filesystem order — sort the operands (total key) "
                    "or gather into an index-addressed array first",
                )

    def _check_loop_accumulation(
        self, taint: TaintAnalysis, fnt: FunctionTaint
    ) -> Iterator[Diagnostic]:
        for stmt in fnt.statements:
            if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                continue
            if not taint.is_unordered(fnt, stmt.iter):
                continue
            for accumulation in self._arith_augassigns(stmt):
                yield fnt.info.ctx.diagnostic(
                    self.rule_id,
                    accumulation,
                    "arithmetic accumulation inside a loop over an "
                    "unordered iterable (set/as_completed/directory "
                    "listing); iteration order is not pinned, so the "
                    "accumulated bits are not reproducible — sort the "
                    "iterable or store per-index results and reduce",
                )

    @staticmethod
    def _arith_augassigns(loop: ast.stmt) -> Iterator[ast.AugAssign]:
        body = getattr(loop, "body", [])
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    yield node
