"""File collection, parsing and rule execution."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Anything Path() accepts.
PathInput = Union[str, "os.PathLike[str]"]

from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import all_rules, get_rule
from repro.lint.rules_base import FileContext, Rule

#: Pseudo-rule id attached to files that fail to parse.
PARSE_ERROR = "E000"


@dataclass
class Project:
    """Everything the project-wide rules see: all parsed files, in order."""

    contexts: List[FileContext] = field(default_factory=list)

    def find_module(self, rel: str) -> Optional[FileContext]:
        """The context whose package-relative path matches, if scanned."""
        for ctx in self.contexts:
            if ctx.is_module(rel):
                return ctx
        return None


@dataclass
class LintResult:
    """Outcome of one lint run."""

    diagnostics: List[Diagnostic]
    files_checked: int
    #: Rule ids that ran, in execution order.
    rule_ids: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand targets to a sorted, deduplicated list of ``*.py`` files.

    The walk order is pinned to the *resolved* path, not the argument
    order, so finding output is byte-stable no matter how the shell
    expanded a glob (``src/repro/{sim,core}`` vs ``src/repro/{core,sim}``
    produce identical reports).
    """
    by_resolved: Dict[Path, Path] = {}
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = path.rglob("*.py")
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            by_resolved.setdefault(candidate.resolve(), candidate)
    return [by_resolved[key] for key in sorted(by_resolved)]


def _module_parts(path: Path, root: Path) -> Tuple[str, ...]:
    parts = path.resolve().parts
    if "repro" in parts:
        index = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        return parts[index:]
    try:
        return path.resolve().relative_to(root.resolve()).parts
    except ValueError:
        return (path.name,)


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse(path: Path, root: Path) -> Tuple[Optional[FileContext], Optional[Diagnostic]]:
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, Diagnostic(display, 1, 0, PARSE_ERROR, f"unreadable file: {exc}")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Diagnostic(
            display, exc.lineno or 1, exc.offset or 0, PARSE_ERROR,
            f"syntax error: {exc.msg}",
        )
    ctx = FileContext(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        module=_module_parts(path, root),
    )
    return ctx, None


def lint_paths(
    paths: Sequence[PathInput],
    rule_ids: Optional[Sequence[str]] = None,
    root: Optional[PathInput] = None,
) -> LintResult:
    """Lint files/directories and return the sorted findings.

    Parameters
    ----------
    paths:
        Files or directories (recursed for ``*.py``).
    rule_ids:
        Optional subset of rule ids to run (default: all registered).
    root:
        Base used to classify files that do not live under a ``repro``
        package directory; defaults to the current working directory.
    """
    base = Path(root) if root is not None else Path.cwd()
    rules: List[Rule]
    if rule_ids is None:
        rules = all_rules()
    else:
        rules = [get_rule(rule_id) for rule_id in rule_ids]

    project = Project()
    diagnostics: List[Diagnostic] = []
    files = _collect_files([Path(p) for p in paths])
    for path in files:
        ctx, error = _parse(path, base)
        if error is not None:
            diagnostics.append(error)
        if ctx is not None:
            project.contexts.append(ctx)

    for ctx in project.contexts:
        for rule in rules:
            diagnostics.extend(rule.check_file(ctx))
    for rule in rules:
        diagnostics.extend(rule.check_project(project))
    diagnostics.sort()
    return LintResult(
        diagnostics=diagnostics,
        files_checked=len(files),
        rule_ids=[rule.rule_id for rule in rules],
    )
