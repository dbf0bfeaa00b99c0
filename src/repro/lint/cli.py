"""Command-line entry point: ``python -m repro.lint`` / ``tsajs lint``.

Exit codes: 0 — clean; 1 — findings; 2 — usage error (unknown rule id).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import lint_paths
from repro.lint.registry import all_rules
from repro.lint.reporters import render_json, render_sarif, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments (shared with the ``tsajs lint`` subcommand)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
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
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print R011's flow-analysis build time to stderr",
    )


def build_parser(prog: str = "repro.lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Project-specific static analysis: determinism, unit "
            "discipline and paper-equation traceability."
        ),
    )
    add_arguments(parser)
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id}  {rule.title}")
        lines.append(f"      {rule.rationale}")
    return "\n".join(lines)


def run(args: argparse.Namespace, prog: str = "repro.lint") -> int:
    """Execute a parsed lint invocation (shared with ``tsajs lint``)."""
    if args.list_rules:
        print(_list_rules())
        return 0

    requested: List[str] = []
    for chunk in getattr(args, "rule", None) or []:
        requested.extend(part.strip() for part in chunk.split(",") if part.strip())

    rule_ids: Optional[List[str]] = None
    if requested:
        # Deduplicate while keeping first-seen order.
        rule_ids = list(dict.fromkeys(requested))
        known = {rule.rule_id for rule in all_rules()}
        unknown = sorted(set(rule_ids) - known)
        if unknown:
            print(
                f"{prog}: unknown rule id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2

    result = lint_paths(args.paths, rule_ids=rule_ids)
    if getattr(args, "timing", False):
        if result.flow_build_seconds is not None:
            print(
                f"{prog}: flow analysis built in "
                f"{result.flow_build_seconds:.3f}s "
                f"({result.files_checked} files)",
                file=sys.stderr,
            )
        else:
            print(f"{prog}: R011 did not run", file=sys.stderr)
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None, prog: str = "repro.lint") -> int:
    parser = build_parser(prog)
    return run(parser.parse_args(argv), prog)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
