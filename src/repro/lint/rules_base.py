"""Rule base class and the per-file analysis context."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Tuple

from repro.lint.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.lint.engine import Project


@dataclass
class FileContext:
    """One parsed source file plus the metadata rules need to scope checks.

    ``module`` holds the package-relative path parts starting at the
    ``repro`` package directory (``("repro", "core", "delta.py")``); for
    files outside a ``repro`` directory it holds the path relative to the
    scanned root, so fixture trees behave like the real package when they
    mirror its layout.
    """

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    module: Tuple[str, ...]

    @property
    def module_rel(self) -> str:
        """``"repro/core/delta.py"``-style key used by scoping and registries."""
        return "/".join(self.module)

    def in_subpackage(self, *names: str) -> bool:
        """Whether the file lives under ``repro/<name>/`` for any name."""
        return (
            len(self.module) >= 3
            and self.module[0] == "repro"
            and self.module[1] in names
        )

    def is_module(self, rel: str) -> bool:
        """Exact match against a ``"repro/sim/rng.py"``-style key."""
        return self.module_rel == rel

    def diagnostic(
        self, rule_id: str, node: ast.AST, message: str
    ) -> Diagnostic:
        """A diagnostic anchored at ``node``'s position in this file."""
        return Diagnostic(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )

    def diagnostic_at(
        self, rule_id: str, line: int, message: str, col: int = 0
    ) -> Diagnostic:
        """A diagnostic anchored at an explicit line (no AST node in hand)."""
        return Diagnostic(
            path=self.display_path,
            line=line,
            col=col,
            rule_id=rule_id,
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and override :meth:`check_file`
    (run once per file) and/or :meth:`check_project` (run once per lint
    invocation with the whole file set — for cross-file contracts like
    R006's config-drift check).
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Diagnostic]:
        return ()

    def check_project(self, project: "Project") -> Iterable[Diagnostic]:
        return ()

    # Convenience for subclasses.
    def _walk_calls(self, tree: ast.Module) -> Iterator[ast.Call]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield node
