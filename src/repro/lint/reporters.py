"""Text and JSON rendering of a :class:`~repro.lint.engine.LintResult`."""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.lint.engine import LintResult

#: Schema version of the JSON report; bump on breaking shape changes.
#: v2 added the ``rules`` key (ids that ran); v3 dropped ``suppressed``.
JSON_SCHEMA_VERSION = 3


def render_text(result: LintResult) -> str:
    """Human-readable report: one finding per line plus a summary."""
    lines = [diag.render() for diag in result.diagnostics]
    noun = "finding" if len(result.diagnostics) == 1 else "findings"
    lines.append(
        f"{len(result.diagnostics)} {noun} in {result.files_checked} file(s)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (stable schema, sorted findings)."""
    payload: Dict[str, Any] = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "rules": list(result.rule_ids),
        "findings": [diag.to_dict() for diag in result.diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
