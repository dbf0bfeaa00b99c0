"""R007 — no bare ``except:`` and no silently-swallowed exceptions.

The pool executor deliberately catches broad exception classes — but
only to hold the first failed cell's exception and raise it once the
other cells are journaled.  Two patterns defeat that discipline and
hide real failures:

* ``except:`` — also traps ``KeyboardInterrupt`` / ``SystemExit``, so a
  Ctrl-C mid-sweep can be eaten by a loop that only meant to hold a
  failing cell's error;
* a handler for ``Exception`` / ``BaseException`` (or a bare handler)
  whose body is only ``pass`` / ``...`` — the crash evaporates without
  being raised or recorded, and a sweep "succeeds" with
  silently-missing seeds.

Narrow handlers (``except KeyError: pass``) stay legal: ignoring one
specific, anticipated condition is a decision, not a hole.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import register
from repro.lint.rules_base import FileContext, Rule

#: Exception names whose silent swallowing hides arbitrary failures.
_BROAD_NAMES = {("Exception",), ("BaseException",)}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception`` and ``except BaseException``.

    Tuples count when any member is broad (``except (ValueError,
    Exception)`` swallows everything the broad member does).
    """
    if handler.type is None:
        return True
    candidates = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for candidate in candidates:
        if dotted_name(candidate) in _BROAD_NAMES:
            return True
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing but ``pass`` / ``...``."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            # Docstrings and bare `...` are still "doing nothing".
            continue
        return False
    return True


@register
class ExceptionHygieneRule(Rule):
    rule_id = "R007"
    title = "no bare except and no silently-swallowed broad exceptions"
    rationale = (
        "A bare except traps KeyboardInterrupt/SystemExit, and a broad "
        "handler that only passes erases the failure instead of raising "
        "or recording it — "
        "both turn crashed seeds into silently-missing data in a sweep."
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    "bare 'except:' also catches KeyboardInterrupt and "
                    "SystemExit; name the exception class (at most "
                    "'except Exception')",
                )
            elif _is_broad(node) and _swallows(node):
                yield ctx.diagnostic(
                    self.rule_id,
                    node,
                    "broad exception handler silently swallows the error; "
                    "record it (failure entry, log, re-raise) or narrow "
                    "the exception class",
                )
