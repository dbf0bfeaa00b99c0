"""R008 — telemetry discipline: time/print go through ``repro.obs``.

``repro/core``, ``repro/sim`` and ``repro/experiments`` must not read
clocks or write to stdout directly:

* **Timing** belongs to the :mod:`repro.obs.clock` seam.  Ad-hoc
  ``time.perf_counter()`` pairs cannot be injected with a deterministic
  :class:`~repro.obs.clock.TickClock` in tests; use
  :class:`~repro.obs.clock.Stopwatch` or
  :func:`~repro.obs.clock.monotonic`.  A ``time.sleep`` has no seam at
  all: nothing in a solve or a sweep has to wait.
* **Output** belongs to the recorder.  A ``print()`` buried in
  algorithm or runner code interleaves with the CLI's rendering, is
  invisible to trace consumers, and breaks machine-readable output
  modes.  Emit a :meth:`~repro.obs.recorder.Recorder.event` (or return
  the data) instead; user-facing printing lives in ``repro/cli.py`` and
  the report renderers.

The rule flags ``import time`` / ``from time import ...`` and any
``time.*`` or ``print`` call in the scoped packages.  ``repro/obs``
itself is out of scope for the timing checks — it is the one place
allowed to touch :mod:`time`.

A third check covers **file writes** anywhere in ``repro``: trace
shards, merged traces, cache entries and result tables are read by
other processes (pool workers, a resumed sweep, a reader racing a
crash), and a direct ``open(..., "w")`` (or ``.write_text()`` /
``.write_bytes()``) produces files that can be observed half-written.
Everything the package writes must go through :mod:`repro.atomicio`
(``atomic_write_text`` / ``atomic_write_json`` /
:class:`~repro.atomicio.AtomicLineWriter`), which publishes via
temp-file + rename so readers only ever see complete files.  Read-mode
``open`` calls are untouched, and :mod:`repro.atomicio` itself is out
of scope (it is the sanctioned implementation).
"""

from __future__ import annotations

from typing import Iterator

import ast

from repro.lint.astutil import dotted_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.registry import register
from repro.lint.rules_base import FileContext, Rule


@register
class TelemetryDisciplineRule(Rule):
    rule_id = "R008"
    title = "time/print go through repro.obs, file writes through repro.atomicio"
    rationale = (
        "Direct time.* calls bypass the injectable clock seam (so tests "
        "cannot make timing deterministic), print() bypasses the "
        "recorder (so traces and machine-readable output miss it), and "
        "direct open()-for-write publishes files other processes can "
        "observe half-written; use "
        "repro.obs.clock.Stopwatch, recorder events, and "
        "repro.atomicio writers instead."
    )

    def check_file(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.in_subpackage("core", "sim", "experiments"):
            yield from self._check_imports(ctx)
            yield from self._check_calls(ctx)
        if self._in_write_scope(ctx):
            yield from self._check_writes(ctx)

    @staticmethod
    def _in_write_scope(ctx: FileContext) -> bool:
        """Every ``repro`` module except the atomic writers themselves."""
        return ctx.module[:1] == ("repro",) and not ctx.is_module(
            "repro/atomicio.py"
        )

    def _check_imports(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time" or alias.name.startswith("time."):
                        yield ctx.diagnostic(
                            self.rule_id,
                            node,
                            "direct 'import time' bypasses the repro.obs "
                            "clock seam; use repro.obs.clock (Stopwatch, "
                            "monotonic) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    yield ctx.diagnostic(
                        self.rule_id,
                        node,
                        "direct 'from time import ...' bypasses the "
                        "repro.obs clock seam; use repro.obs.clock "
                        "(Stopwatch, monotonic) instead",
                    )

    def _check_calls(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for call in self._walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if name is None:
                continue
            if len(name) >= 2 and name[0] == "time":
                yield ctx.diagnostic(
                    self.rule_id,
                    call,
                    f"'{'.'.join(name)}()' reads the clock directly; go "
                    "through repro.obs.clock so tests can inject a "
                    "deterministic TickClock",
                )
            elif name == ("print",):
                yield ctx.diagnostic(
                    self.rule_id,
                    call,
                    "print() in algorithm/runner code bypasses the "
                    "recorder; emit a recorder event or return the data "
                    "(printing belongs to the CLI layer)",
                )

    def _check_writes(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for call in self._walk_calls(ctx.tree):
            name = dotted_name(call.func)
            if name == ("open",) and self._open_mode_writes(call):
                yield ctx.diagnostic(
                    self.rule_id,
                    call,
                    "open() for writing can be observed half-written by "
                    "concurrent readers; "
                    "publish atomically via repro.atomicio "
                    "(atomic_write_* or AtomicLineWriter)",
                )
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in ("write_text", "write_bytes")
            ):
                yield ctx.diagnostic(
                    self.rule_id,
                    call,
                    f".{call.func.attr}() can be observed half-written by "
                    "concurrent readers; "
                    "publish atomically via repro.atomicio "
                    "(atomic_write_* or AtomicLineWriter)",
                )

    @staticmethod
    def _open_mode_writes(call: ast.Call) -> bool:
        """Whether an ``open()`` call's mode argument is a write mode.

        Only literal modes are judged (a computed mode cannot be checked
        statically); a missing mode is read-only by default.
        """
        mode_node: object = None
        if len(call.args) >= 2:
            mode_node = call.args[1]
        else:
            for keyword in call.keywords:
                if keyword.arg == "mode":
                    mode_node = keyword.value
                    break
        if not isinstance(mode_node, ast.Constant):
            return False
        mode = mode_node.value
        if not isinstance(mode, str):
            return False
        return any(flag in mode for flag in ("w", "a", "x", "+"))
