"""R011 — float reductions must not consume unordered iterables.

Floating-point addition is not associative: summing the same values in
a different order changes the last bits, and the golden-trajectory and
resume-equality suites compare *bits*.  R002 bans set iteration inside
``core/`` and ``net/``; this rule covers every file by following *where
the iterable came from*.  It marks inherently unordered producers —

* ``set``/``frozenset`` displays, constructors and comprehensions,
* ``concurrent.futures.as_completed`` (completion order is scheduling),
* ``os.listdir`` / ``os.scandir`` / ``glob`` / ``Path.iterdir``
  (directory order is filesystem-dependent),

— and tracks the mark through assignments, ``list()``/``enumerate()``
wrappers and comprehensions (which all *preserve* the unordered order);
``sorted(...)`` cleanses it.  The analysis works within one function
(module-level code is one more scope): a local name is unordered if any
assignment to it is, iterated to a fixpoint so that the statement order
does not matter.  The rule fires on:

1. a reduction call (``sum``, ``math.fsum``, ``np.sum``/``mean``/
   ``std``/``var``/``prod``/``median``, ``np.add.reduce``) whose
   argument is unordered;
2. an arithmetic accumulation (``total += ...`` / ``total *= ...``)
   inside a ``for`` loop over an unordered iterable — the
   parallel-gather idiom ``for fut in as_completed(...): s += ...``.

Fix by pinning the order first: ``sorted(...)`` with a total key, or
gather parallel results into an index-addressed list and reduce that.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.lint.astutil import dotted_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import register
from repro.lint.rules_base import FileContext, Rule

#: Callables returning inherently unordered iterables (import-resolved).
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

#: Dotted names of order-sensitive reduction callables.
REDUCTIONS: Set[Tuple[str, ...]] = {("sum",), ("math", "fsum"), ("fsum",)} | {
    (module, name)
    for module in ("np", "numpy")
    for name in ("sum", "mean", "std", "var", "prod", "median", "average")
} | {("np", "add", "reduce"), ("numpy", "add", "reduce")}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local alias -> absolute dotted target for every import in the file."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """A scope's statements in source order, nested blocks but not defs."""
    for stmt in body:
        if isinstance(stmt, _DEFS):
            continue
        yield stmt
        for part in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, part, None) or ())
        for handler in getattr(stmt, "handlers", None) or ():
            yield from _statements(handler.body)


def _own_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """The expression nodes of one statement, not those of nested statements."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(stmt))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.stmt):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _Scope:
    """Unordered local names of one function body (or the module body)."""

    def __init__(self, body: Sequence[ast.stmt], aliases: Dict[str, str]) -> None:
        self.aliases = aliases
        self.statements = list(_statements(body))
        self.unordered: Set[str] = set()
        while True:
            before = len(self.unordered)
            for stmt in self.statements:
                self._bind(stmt)
            if len(self.unordered) == before:
                break

    def _bind(self, stmt: ast.stmt) -> None:
        pairs: List[Tuple[ast.expr, ast.expr]] = []
        if isinstance(stmt, ast.Assign):
            pairs = [(target, stmt.value) for target in stmt.targets]
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value:
            pairs = [(stmt.target, stmt.value)]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            pairs = [
                (item.optional_vars, item.context_expr)
                for item in stmt.items
                if item.optional_vars is not None
            ]
        for target, value in pairs:
            if self.is_unordered(value):
                self._mark(target)

    def _mark(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.unordered.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._mark(elt)

    def is_unordered(self, expr: ast.expr) -> bool:
        """Whether iterating ``expr`` in this scope has no pinned order."""
        if isinstance(expr, ast.Name):
            return expr.id in self.unordered
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            return self._call_is_unordered(expr)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            return self.is_unordered(expr.generators[0].iter)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return any(self.is_unordered(elt) for elt in expr.elts)
        if isinstance(expr, ast.BoolOp):
            return any(self.is_unordered(value) for value in expr.values)
        if isinstance(expr, ast.IfExp):
            return self.is_unordered(expr.body) or self.is_unordered(expr.orelse)
        if isinstance(expr, ast.BinOp):
            return self.is_unordered(expr.left) or self.is_unordered(expr.right)
        if isinstance(expr, (ast.Subscript, ast.Starred, ast.NamedExpr, ast.Await)):
            return self.is_unordered(expr.value)
        return False

    def _call_is_unordered(self, call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is not None:
            head = self.aliases.get(name[0], name[0])
            if ".".join((head,) + name[1:]) in UNORDERED_FACTORIES:
                return True
        if name in (("set",), ("frozenset",)):
            return True
        if name in _ORDER_PRESERVING:
            return bool(call.args) and self.is_unordered(call.args[0])
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _UNORDERED_METHODS
        )


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

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        aliases = _import_aliases(ctx.tree)
        bodies = [ctx.tree.body] + [
            node.body
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for body in bodies:
            scope = _Scope(body, aliases)
            for stmt in scope.statements:
                yield from self._check_statement(ctx, scope, stmt)

    def _check_statement(
        self, ctx: FileContext, scope: _Scope, stmt: ast.stmt
    ) -> Iterator[Diagnostic]:
        for node in _own_nodes(stmt):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name = dotted_name(node.func)
            if name in REDUCTIONS and scope.is_unordered(node.args[0]):
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    f"{'.'.join(name)}() reduces an unordered iterable; float "
                    "accumulation order would depend on hash/scheduling/"
                    "filesystem order — sort the operands (total key) "
                    "or gather into an index-addressed array first",
                )
        if not isinstance(stmt, (ast.For, ast.AsyncFor)):
            return
        if not scope.is_unordered(stmt.iter):
            return
        for child in stmt.body:
            for node in ast.walk(child):
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    yield ctx.diagnostic(
                        self.rule_id,
                        node,
                        "arithmetic accumulation inside a loop over an "
                        "unordered iterable (set/as_completed/directory "
                        "listing); iteration order is not pinned, so the "
                        "accumulated bits are not reproducible — sort the "
                        "iterable or store per-index results and reduce",
                    )
