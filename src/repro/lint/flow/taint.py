"""Unordered-iterable dataflow over the project's functions.

Marks expressions whose iteration order is not deterministic — set
displays/constructors/comprehensions, ``as_completed``, ``os.listdir``,
``os.scandir``, ``glob`` and ``Path.iterdir`` — and tracks the mark
through assignments, comprehensions, conditional expressions,
containers, calls and returns.  ``sorted(...)`` clears it; ``list()``,
``tuple()``, ``enumerate()`` and comprehensions keep it.

The analysis is *flow-insensitive within a function* (a name is
unordered if any assignment to it is) but *inter-procedural across the
project*: a fixpoint over call sites propagates unordered arguments
into parameters, unordered returns back to call sites, and ``self.attr``
marks across the methods of a class.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.lint.astutil import dotted_name
from repro.lint.flow.symbols import FunctionInfo, SymbolTable

#: Callables returning inherently unordered iterables.
UNORDERED_FACTORIES = {
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
    "concurrent.futures.as_completed",
}

#: Method names yielding unordered iterables on any receiver.
_UNORDERED_METHODS = {"iterdir"}

#: Wrappers that keep their argument's (non)ordering.
_ORDER_PRESERVING = {("list",), ("tuple",), ("iter",), ("enumerate",), ("reversed",)}


def statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement of a body in source order, nested blocks included."""
    for stmt in body:
        yield stmt
        for part in ("body", "orelse", "finalbody"):
            yield from statements(getattr(stmt, part, None) or ())
        for handler in getattr(stmt, "handlers", ()) or ():
            yield from statements(handler.body)


@dataclass
class CallRecord:
    """One call site inside a function, with its resolution."""

    node: ast.Call
    #: Absolute dotted target, or ``None`` for unresolvable callees.
    target: Optional[str]


@dataclass
class FunctionTaint:
    """Per-function dataflow facts."""

    info: FunctionInfo
    #: The function's statements in source order (nested blocks included).
    statements: List[ast.stmt]
    #: Local names (parameters included) bound to an unordered iterable.
    unordered: Set[str] = field(default_factory=set)
    #: Whether any ``return`` expression is unordered.
    returns_unordered: bool = False
    #: Resolved call sites, in source order.
    calls: List[CallRecord] = field(default_factory=list)


class TaintAnalysis:
    """Inter-procedural unordered-iterable marks over every project function."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.functions: Dict[str, FunctionTaint] = {}
        #: Unordered attributes per class: ``"mod.Class" -> {"attr"}``.
        self.class_attrs: Dict[str, Set[str]] = {}
        #: Parameters found unordered at some call site, per function.
        self._param_seeds: Dict[str, Set[str]] = {}

    @classmethod
    def build(cls, symbols: SymbolTable) -> "TaintAnalysis":
        analysis = cls(symbols)
        infos = symbols.all_functions()
        for info in infos:
            analysis.functions[info.qualified] = FunctionTaint(
                info=info, statements=list(statements(info.node.body))
            )
        # Fixpoint: local passes interleaved with call-site propagation
        # until nothing changes (bounded; a mark is only ever added).
        for _ in range(8):
            changed = False
            for info in infos:
                if analysis._local_pass(analysis.functions[info.qualified]):
                    changed = True
            if analysis._propagate_call_sites():
                changed = True
            if not changed:
                break
        return analysis

    def _local_pass(self, fnt: FunctionTaint) -> bool:
        """One statement sweep; returns True when facts changed."""
        before = (set(fnt.unordered), fnt.returns_unordered)
        fnt.calls = []
        fnt.unordered |= self._param_seeds.get(fnt.info.qualified, set())
        for stmt in fnt.statements:
            self._transfer(fnt, stmt)
        return before != (fnt.unordered, fnt.returns_unordered)

    def _transfer(self, fnt: FunctionTaint, stmt: ast.stmt) -> None:
        for call in self._own_calls(stmt):
            target = self._resolve_call(fnt, call)
            fnt.calls.append(CallRecord(node=call, target=target))
        if isinstance(stmt, ast.Assign):
            unordered = self.is_unordered(fnt, stmt.value)
            for target in stmt.targets:
                self._bind_target(fnt, target, unordered)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value is not None:
            self._bind_target(fnt, stmt.target, self.is_unordered(fnt, stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_target(fnt, stmt.target, self.is_unordered(fnt, stmt.iter))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(
                        fnt,
                        item.optional_vars,
                        self.is_unordered(fnt, item.context_expr),
                    )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            if self.is_unordered(fnt, stmt.value):
                fnt.returns_unordered = True

    def _bind_target(
        self, fnt: FunctionTaint, target: ast.expr, unordered: bool
    ) -> None:
        if not unordered:
            return
        if isinstance(target, ast.Name):
            fnt.unordered.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(fnt, elt, unordered)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and fnt.info.class_name is not None
        ):
            class_key = f"{fnt.info.module}.{fnt.info.class_name}"
            self.class_attrs.setdefault(class_key, set()).add(target.attr)

    @staticmethod
    def _own_calls(stmt: ast.stmt) -> List[ast.Call]:
        """Call nodes inside this statement's expressions (not nested defs)."""
        calls: List[ast.Call] = []
        stack: List[ast.AST] = [stmt]
        first = True
        while stack:
            node = stack.pop()
            if not first and isinstance(node, ast.stmt):
                continue
            first = False
            if isinstance(node, ast.Call):
                calls.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        calls.reverse()
        return calls

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def is_unordered(self, fnt: FunctionTaint, expr: ast.expr) -> bool:
        """Whether iterating ``expr`` in this function has no pinned order."""
        if isinstance(expr, ast.Name):
            return expr.id in fnt.unordered
        if isinstance(expr, ast.Call):
            return self._call_is_unordered(fnt, expr)
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and fnt.info.class_name is not None
            ):
                class_key = f"{fnt.info.module}.{fnt.info.class_name}"
                return expr.attr in self.class_attrs.get(class_key, set())
            return False
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self.is_unordered(fnt, expr.generators[0].iter)
        if isinstance(expr, (ast.Tuple, ast.List, ast.BoolOp)):
            parts = expr.values if isinstance(expr, ast.BoolOp) else expr.elts
            return any(self.is_unordered(fnt, part) for part in parts)
        if isinstance(expr, ast.IfExp):
            return self.is_unordered(fnt, expr.body) or self.is_unordered(
                fnt, expr.orelse
            )
        if isinstance(expr, ast.BinOp):
            return self.is_unordered(fnt, expr.left) or self.is_unordered(
                fnt, expr.right
            )
        if isinstance(expr, (ast.Subscript, ast.Starred, ast.NamedExpr, ast.Await)):
            return self.is_unordered(fnt, expr.value)
        return False

    def _call_is_unordered(self, fnt: FunctionTaint, call: ast.Call) -> bool:
        target = self._resolve_call(fnt, call)
        if target in UNORDERED_FACTORIES:
            return True
        name = dotted_name(call.func)
        if name in (("set",), ("frozenset",)):
            return True
        if name == ("sorted",):
            return False  # sorted() pins a deterministic order
        if name in _ORDER_PRESERVING:
            return bool(call.args) and self.is_unordered(fnt, call.args[0])
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _UNORDERED_METHODS
        ):
            return True
        callee = self.functions.get(target) if target is not None else None
        return callee is not None and callee.returns_unordered

    def _resolve_call(
        self, fnt: FunctionTaint, call: ast.Call
    ) -> Optional[str]:
        """Absolute dotted target of a call site (``self.m`` included)."""
        name = dotted_name(call.func)
        if name is None:
            return None
        if (
            name[0] == "self"
            and len(name) >= 2
            and fnt.info.class_name is not None
        ):
            return ".".join(
                (fnt.info.module, fnt.info.class_name) + name[1:]
            )
        return self.symbols.resolve(fnt.info.module, name)

    # ------------------------------------------------------------------
    # Inter-procedural propagation
    # ------------------------------------------------------------------

    def _propagate_call_sites(self) -> bool:
        """Mark callee parameters that receive an unordered argument."""
        changed = False
        for qualified in sorted(self.functions):
            fnt = self.functions[qualified]
            for record in fnt.calls:
                info = (
                    self.symbols.function(record.target)
                    if record.target is not None
                    else None
                )
                if info is None:
                    continue
                params = info.parameters()
                if info.is_method and params and params[0] == "self":
                    params = params[1:]
                received = {
                    params[position]
                    for position, arg in enumerate(record.node.args)
                    if position < len(params) and self.is_unordered(fnt, arg)
                }
                received |= {
                    keyword.arg
                    for keyword in record.node.keywords
                    if keyword.arg in params
                    and self.is_unordered(fnt, keyword.value)
                }
                seeds = self._param_seeds.setdefault(info.qualified, set())
                if not received <= seeds:
                    seeds |= received
                    changed = True
        return changed
