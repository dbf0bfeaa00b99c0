"""Paired perf gate: this checkout against a base commit, on perfbench.

Usage, from anywhere inside a clone with full history::

    python scripts/perf_gate.py BASE_REF

``BASE_REF`` is checked out with ``git worktree add --detach`` into a
temporary directory (removed again on exit).  Both checkouts' ``src`` and
``perfbench`` are byte-compiled first: a fresh worktree has no
``__pycache__``, and under ``PYTHONDONTWRITEBYTECODE`` it would compile
its modules again in every run while this checkout reads its cached
bytecode, which reads as a ``setup_s`` gap on identical code.  The gate
then runs
``perfbench/run.py --trace 0`` ``PAIRS`` times on every workload of the
base's ``BENCHMARK.json``, alternating the base and this checkout (the
base first on even pairs), and compares medians:

* every run of this checkout must exit 0 and report ``"correct": true``;
* its ``failed / attempted`` share must not exceed the base's;
* for every workload x end-to-end metric, its median must not be worse
  than the base's median by more than the metric's ``bound``: for a
  lower-is-better metric ``change > base * (1 + bound)`` fails, for a
  higher-is-better one ``change < base * (1 - bound)``.

Bounds come from the *base* checkout's ``BENCHMARK.json``, so a change
cannot loosen its own gate.  One line is printed per check; the exit
status is 0 when all pass and 1 otherwise.  A full gate is 5 pairs x 3
workloads x 2 checkouts of about 15 s each (2 cores), so 7-8 minutes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
#: Alternating base/change pairs per workload.
PAIRS = 5
#: ``--seconds`` of every perfbench run.
SECONDS = 3
#: The directories of a checkout that a perfbench run imports from.
COMPILED = ("src", "perfbench")

#: One perfbench run: its exit status and the last line of its stdout.
Run = Tuple[int, str]
#: Runs perfbench once: ``(checkout, workload, seed) -> Run``.
Runner = Callable[[Path, str, int], Run]


@dataclass(frozen=True)
class Check:
    """One verdict: ``name`` is ``workload/metric``."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def run_perfbench(checkout: Path, workload: str, seed: int) -> Run:
    """Run ``checkout``'s perfbench once, untraced, in a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable,
            str(checkout / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SECONDS),
            "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def compile_checkout(checkout: Path) -> None:
    """Byte-compile what a perfbench run of ``checkout`` imports."""
    for name in COMPILED:
        directory = checkout / name
        if directory.is_dir() and not compileall.compile_dir(str(directory), quiet=1):
            raise SystemExit(f"perf gate: could not byte-compile {directory}")


def _parse(run: Run) -> Optional[Dict]:
    """The JSON result of a run, or ``None`` if it exited nonzero or has none."""
    status, last_line = run
    if status != 0:
        return None
    try:
        result = json.loads(last_line)
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def _values(results: Sequence[Dict], metric: str) -> Optional[List[float]]:
    """``metric``'s value in every result, or ``None`` if any lacks a finite one."""
    values = []
    for result in results:
        entry = result.get("metrics", {}).get(metric)
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None
        values.append(float(value))
    return values


def _failed_share(results: Sequence[Dict]) -> float:
    attempted = sum(int(r.get("attempted", 0)) for r in results)
    failed = sum(int(r.get("failed", 0)) for r in results)
    return failed / attempted if attempted else 1.0


def judge_workload(
    workload: str,
    declared: Sequence[Dict],
    base_runs: Sequence[Run],
    change_runs: Sequence[Run],
) -> List[Check]:
    """Checks of one workload: run health, failed share, one per metric."""
    base = [_parse(run) for run in base_runs]
    change = [_parse(run) for run in change_runs]
    if not base or not change or None in base or None in change:
        exits = "; ".join(
            f"{side} exits {' '.join(str(status) for status, _ in runs)}"
            for side, runs in (("base", base_runs), ("change", change_runs))
        )
        return [Check(f"{workload}/runs", False, f"a run failed or printed no result ({exits})")]
    base_ok = [r for r in base if r is not None]
    change_ok = [r for r in change if r is not None]
    checks = [
        Check(
            f"{workload}/correct",
            all(r.get("correct") is True for r in change_ok),
            "change runs report correct: "
            + " ".join(json.dumps(r.get("correct")) for r in change_ok),
        )
    ]
    base_share, change_share = _failed_share(base_ok), _failed_share(change_ok)
    checks.append(
        Check(
            f"{workload}/failed_share",
            change_share <= base_share,
            f"base {base_share:.4f}, change {change_share:.4f}",
        )
    )
    for metric in declared:
        metric_name, bound, better = metric["name"], metric["bound"], metric["better"]
        base_values, change_values = _values(base_ok, metric_name), _values(change_ok, metric_name)
        if base_values is None or change_values is None:
            side = "base" if base_values is None else "change"
            checks.append(
                Check(f"{workload}/{metric_name}", False, f"missing or non-finite in a {side} run")
            )
            continue
        b = statistics.median(base_values)
        c = statistics.median(change_values)
        if better == "lower":
            ok = c <= b * (1.0 + bound)
        else:
            ok = c >= b * (1.0 - bound)
        rel = f"{(c - b) / abs(b):+.1%}" if b else "n/a"
        checks.append(
            Check(
                f"{workload}/{metric_name}",
                ok,
                f"median base {b:.6g}, change {c:.6g} {metric['unit']} ({rel}; "
                f"{better} is better, bound {bound:.0%})",
            )
        )
    return checks


def judge(
    declared: Sequence[Dict],
    base: Dict[str, List[Run]],
    change: Dict[str, List[Run]],
) -> List[Check]:
    """All checks, workload by workload (``base``'s order)."""
    checks: List[Check] = []
    for workload, base_runs in base.items():
        checks.extend(judge_workload(workload, declared, base_runs, change.get(workload, [])))
    return checks


def gate(base: Path, change: Path, run: Runner = run_perfbench) -> List[Check]:
    """Run the alternating pairs and judge them by ``base``'s bounds."""
    spec = json.loads((base / "BENCHMARK.json").read_text(encoding="utf-8"))
    for checkout in (base, change):
        compile_checkout(checkout)
    workloads = [w["name"] for w in spec["workloads"]]
    runs: Dict[str, Dict[str, List[Run]]] = {
        side: {w: [] for w in workloads} for side in ("base", "change")
    }
    for pair in range(PAIRS):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                checkout = base if side == "base" else change
                result = run(checkout, workload, pair + 1)
                runs[side][workload].append(result)
                print(
                    f"pair {pair + 1}/{PAIRS} {workload} {side}: exit {result[0]}",
                    file=sys.stderr,
                    flush=True,
                )
    return judge(spec["end_to_end"], runs["base"], runs["change"])


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", metavar="BASE_REF", help="commit to compare against")
    base_ref = parser.parse_args(argv).base_ref
    tmp = Path(tempfile.mkdtemp(prefix="perf-gate-"))
    base = tmp / "base"
    try:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(base), base_ref],
            check=True,
        )
        checks = gate(base, ROOT)
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
            stderr=subprocess.DEVNULL,
        )
        shutil.rmtree(tmp, ignore_errors=True)
    for check in checks:
        print(check.line())
    failed = [check.name for check in checks if not check.ok]
    if failed:
        print(f"perf gate: FAIL against {base_ref}: {', '.join(failed)}")
        return 1
    print(f"perf gate: pass against {base_ref} ({len(checks)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
