"""Cross-module symbol table for the flow analysis.

Maps every scanned file to a dotted module name and records, per module:

* **imports** — local alias → absolute dotted target, covering
  ``import a.b``, ``import a.b as c``, ``from a.b import c as d`` and
  relative ``from . import x`` forms;
* **functions** — every module-level function and one-level method,
  keyed ``"func"`` / ``"Class.method"`` locally and
  ``"pkg.mod.Class.method"`` globally;
* **module-level bindings** — names assigned at module scope (classes
  and functions included).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.lint.rules_base import FileContext

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.lint.engine import Project

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name(ctx: FileContext) -> str:
    """Dotted module name for a scanned file (``repro.core.delta``)."""
    parts = list(ctx.module)
    if not parts:
        return ctx.path.stem
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        parts = parts[:-1]
        return ".".join(parts) if parts else ctx.path.parent.name
    return ".".join(parts[:-1] + [leaf])


@dataclass
class FunctionInfo:
    """One project function (or method) and where it lives."""

    qualified: str
    module: str
    local_name: str
    node: FunctionNode
    ctx: FileContext
    #: Enclosing class name for methods, ``None`` for plain functions.
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def parameters(self) -> List[str]:
        """Positional + keyword parameter names (including ``self``)."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return names


@dataclass
class ModuleSymbols:
    """Everything the analysis knows about one module."""

    name: str
    ctx: FileContext
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Every module-level binding: name -> assigned value node.
    bindings: Dict[str, ast.expr] = field(default_factory=dict)


class SymbolTable:
    """The project-wide name-resolution layer of the flow analysis."""

    def __init__(self, modules: Dict[str, ModuleSymbols]) -> None:
        self.modules = modules
        self._functions: Dict[str, FunctionInfo] = {}
        for mod in modules.values():
            for info in mod.functions.values():
                self._functions[info.qualified] = info

    @classmethod
    def build(cls, project: "Project") -> "SymbolTable":
        modules: Dict[str, ModuleSymbols] = {}
        for ctx in project.contexts:
            mod = cls._build_module(ctx)
            modules[mod.name] = mod
        return cls(modules)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def _build_module(cls, ctx: FileContext) -> ModuleSymbols:
        name = module_name(ctx)
        mod = ModuleSymbols(name=name, ctx=ctx)
        package = name.rsplit(".", 1)[0] if "." in name else name
        for node in ctx.tree.body:
            cls._scan_statement(mod, package, node)
        # Function-level imports (``from concurrent.futures import
        # ProcessPoolExecutor`` inside a helper) still resolve names used
        # in that function; fold them in without overriding module-level
        # bindings of the same alias.
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                cls._scan_import(mod, package, node, overwrite=False)
        return mod

    @classmethod
    def _scan_statement(
        cls, mod: ModuleSymbols, package: str, node: ast.stmt
    ) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            cls._scan_import(mod, package, node, overwrite=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualified=f"{mod.name}.{node.name}",
                module=mod.name,
                local_name=node.name,
                node=node,
                ctx=mod.ctx,
            )
            mod.functions[node.name] = info
            mod.bindings.setdefault(node.name, ast.Name(id=node.name))
        elif isinstance(node, ast.ClassDef):
            cls._scan_class(mod, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            cls._scan_binding(mod, node)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and import fallbacks still bind names.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    cls._scan_statement(mod, package, child)

    @classmethod
    def _scan_import(
        cls,
        mod: ModuleSymbols,
        package: str,
        node: Union[ast.Import, ast.ImportFrom],
        overwrite: bool,
    ) -> None:
        def bind(alias_name: str, target: str) -> None:
            if overwrite:
                mod.imports[alias_name] = target
            else:
                mod.imports.setdefault(alias_name, target)

        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bind(alias.asname, alias.name)
                else:
                    head = alias.name.split(".")[0]
                    bind(head, head)
        else:
            base = cls._import_base(mod.name, package, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                bind(alias.asname or alias.name, target)

    @staticmethod
    def _import_base(
        module: str, package: str, node: ast.ImportFrom
    ) -> str:
        if node.level == 0:
            return node.module or ""
        # Relative import: walk ``level`` packages up from this module.
        parts = module.split(".")
        # ``from . import x`` in pkg/mod.py resolves against pkg.
        anchor = parts[: len(parts) - node.level]
        base = ".".join(anchor)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    @classmethod
    def _scan_class(cls, mod: ModuleSymbols, node: ast.ClassDef) -> None:
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    qualified=f"{mod.name}.{node.name}.{item.name}",
                    module=mod.name,
                    local_name=f"{node.name}.{item.name}",
                    node=item,
                    ctx=mod.ctx,
                    class_name=node.name,
                )
                mod.functions[method.local_name] = method
        mod.bindings.setdefault(node.name, ast.Name(id=node.name))

    @classmethod
    def _scan_binding(cls, mod: ModuleSymbols, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            value = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            if node.value is None or not isinstance(node.target, ast.Name):
                return
            value = node.value
            names = [node.target.id]
        else:
            return
        for bound in names:
            mod.bindings[bound] = value

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve(
        self, module: str, parts: Tuple[str, ...]
    ) -> Optional[str]:
        """Absolute dotted target of a name used inside ``module``.

        ``("make_rng",)`` resolves through the module's imports to
        ``"repro.sim.rng.make_rng"``; ``("np", "random", "default_rng")``
        to ``"numpy.random.default_rng"``; a name defined in the module
        itself to ``"<module>.<name>"``.  Returns ``None`` for local
        variables and unknown names.
        """
        if not parts:
            return None
        mod = self.modules.get(module)
        if mod is None:
            return None
        head, rest = parts[0], parts[1:]
        if head in mod.imports:
            base = mod.imports[head]
            resolved = ".".join((base,) + rest) if rest else base
            return self._follow_reexport(resolved)
        if head in mod.functions or head in mod.bindings:
            return ".".join((module, head) + rest)
        return None

    def _follow_reexport(self, dotted: str) -> str:
        """Follow one level of ``from x import y`` re-export chains.

        ``repro.lint.all_rules`` (re-exported from ``repro.lint.registry``)
        resolves to the defining module so call-graph edges land on the
        real function.
        """
        for _ in range(4):
            if dotted in self._functions:
                return dotted
            if "." not in dotted:
                return dotted
            mod_part, leaf = dotted.rsplit(".", 1)
            mod = self.modules.get(mod_part)
            if mod is None or leaf not in mod.imports:
                return dotted
            dotted = mod.imports[leaf]
        return dotted

    def function(self, qualified: str) -> Optional[FunctionInfo]:
        return self._functions.get(qualified)

    def all_functions(self) -> List[FunctionInfo]:
        """Every project function, in deterministic qualified-name order."""
        return [self._functions[name] for name in sorted(self._functions)]
