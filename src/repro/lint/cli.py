"""Command-line entry point: ``python -m repro.lint``.

Exit codes: 0 — clean; 1 — findings; 2 — usage error (unknown rule id).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import lint_paths
from repro.lint.registry import all_rules
from repro.lint.reporters import render_json, render_text

PROG = "repro.lint"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Project-specific static analysis: determinism, unit "
            "discipline and paper-equation traceability."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="R0xx[,R0yy]",
        help="rule id(s) to run; repeatable and comma-splittable (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id}  {rule.title}")
        lines.append(f"      {rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    requested: List[str] = []
    for chunk in args.rule or []:
        requested.extend(part.strip() for part in chunk.split(",") if part.strip())

    rule_ids: Optional[List[str]] = None
    if requested:
        # Deduplicate while keeping first-seen order.
        rule_ids = list(dict.fromkeys(requested))
        known = {rule.rule_id for rule in all_rules()}
        unknown = sorted(set(rule_ids) - known)
        if unknown:
            print(
                f"{PROG}: unknown rule id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2

    result = lint_paths(args.paths, rule_ids=rule_ids)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
