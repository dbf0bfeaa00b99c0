"""Hazard matrix: which gate catches which injected hazard.

Usage, from anywhere inside the repository::

    python scripts/gate_matrix.py

Every figure of the reproduction must be a pure function of
``(config, seed)``, computed by code that still maps onto the paper.
Each row of :data:`HAZARDS` is one way to break that (or, for *inert*
rows, a shape that looks like one): a file under ``src/repro``, an
anchor that must occur exactly once in it, the replacement, and
optionally module-level code appended to the file.  For every row the
script copies ``src/``, ``tests/``, ``docs/api.md`` (R006 reads it) and
``pyproject.toml`` into a temporary directory, injects the row and runs
two kinds of gate on the copy:

* every rule of ``repro.lint``;
* :data:`GROUPS`, named groups of existing pytest node ids, in one pytest
  run under ``PYTHONHASHSEED=0`` so sets of strings iterate in one fixed
  order and the table is reproducible.

The unpatched copy must pass every gate first.  A hazard row is caught
when any gate fails on it.  An inert row draws from a fresh stream that
no run consumes, so it cannot move a result, and it must fail no runtime
gate.  The script prints the table and exits 1 when a hazard row is
caught by no gate, an inert row fails a runtime gate, or the table
differs from the one between the ``gate-matrix`` markers in
``docs/linting.md``.  A run takes about 20 minutes on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "linting.md"
BEGIN = "<!-- gate-matrix:begin -->"
END = "<!-- gate-matrix:end -->"

#: Runtime gates: named groups of existing pytest node ids.
GROUPS: Dict[str, Tuple[str, ...]] = {
    "equivalence": (
        "tests/test_batch_equivalence.py::TestPaperScaleBitwiseIdentity::test_delta_matches_scalar",
        "tests/test_delta_objective.py::TestMoveSequences",
        "tests/test_delta_objective.py::TestLambdaMemo",
        "tests/test_delta_objective.py::TestSchedulerTrajectoryEquality",
        "tests/test_default_delta_path.py::TestDefaultsMatchOracle::test_tsajs_scheduler",
        "tests/test_default_delta_path.py::TestDefaultsMatchOracle::test_standard_schedulers",
        "tests/test_sharded_equivalence.py::test_single_cluster_bitwise_identical",
    ),
    "rng": (
        "tests/test_rng.py::TestDirectDraws",
        "tests/test_annealing.py::TestMetropolisScreen",
    ),
    "golden": ("tests/test_golden_trajectories.py",),
    "pool-vs-serial": (
        "tests/test_parallel_runner.py::test_parallel_bitwise_identical_to_serial",
        "tests/test_executors.py::TestPoolExecutor::test_matches_serial",
        "tests/test_sharded_determinism.py::test_all_backends_compute_identical_metrics",
    ),
    "traced-vs-untraced": (
        "tests/test_obs_integration.py::TestBitwiseIdentity",
        "tests/test_obs_integration.py::TestRunnerTelemetry::test_traced_results_equal_untraced_results",
        "tests/test_obs_integration.py::TestFaultPathEvents::test_degrade_results_identical_with_and_without_recorder",
        "tests/test_obs_dist.py::TestPoolBackendTracing::test_traced_pool_sweep_matches_untraced",
        "tests/test_sharded_equivalence.py::test_sharded_solve_emits_shard_telemetry",
    ),
    "cache/resume": (
        "tests/test_result_cache.py::TestWarmRuns",
        "tests/test_resilience.py::TestJournalIntegration",
        "tests/test_sharded_determinism.py::test_journals_byte_identical_across_backends",
    ),
}


@dataclass(frozen=True)
class Hazard:
    """One injected row of the matrix."""

    name: str
    #: File under ``src/repro``.
    path: str
    anchor: str
    replacement: str
    #: Module-level code appended to the file (helpers the replacement uses).
    appendix: str = ""
    #: The shape cannot move a result: it must fail no runtime gate.
    inert: bool = False


def _telemetry_rows(
    path: str,
    site: str,
    stream: Optional[str],
    flag: str = "rec.enabled",
    recorder: str = "rec",
) -> Tuple[Hazard, ...]:
    """The two shapes of a telemetry-path draw, injected after ``site``'s
    first line: a draw inside an emission argument and a bare draw, each
    under a recorder enable flag.  ``stream`` is the run's stream in
    scope; without one the draw comes from a fresh ``make_rng(0)``, which
    no run consumes (an inert row).
    """
    first, rest = site.split("\n", 1)
    pad = " " * (len(first) - len(first.lstrip()))
    draw = stream or "make_rng(0)"
    setup = "" if stream else f"{pad}    from repro.sim.rng import make_rng\n"
    shapes = (
        (
            "draw in an emission argument",
            f'{recorder}.event("hazard.draw", value={draw}.random())',
        ),
        ("draw under an enable flag", f"{draw}.random()"),
    )
    return tuple(
        Hazard(
            name=name,
            path=path,
            anchor=site,
            replacement=f"{first}\n{pad}if {flag}:\n{setup}{pad}    {code}\n{rest}",
            inert=stream is None,
        )
        for name, code in shapes
    )


_CACHE_WRITE = """\
        atomic_write_json(
            self._entry_path(key),
            {
                "format_version": CACHE_FORMAT_VERSION,
                "key": key,
                "metrics": payload_metrics,
                "checksum": payload_checksum(payload_metrics),
            },
        )
"""

_POOL_SUBMIT = """\
                        pool.submit(
                            run_one_seed_remote, ctx, config, schedulers, seed
                        ),
"""

_POOL_FUTURES = """\
                futures = [
                    (
                        position,
                        seed,
                        pool.submit(
                            run_one_seed_remote, ctx, config, schedulers, seed
                        ),
                    )
                    for position, seed in cells
                ]
"""

HAZARDS: Tuple[Hazard, ...] = (
    Hazard(
        "unseeded `default_rng()` as the shadowing stream",
        "sim/scenario.py",
        "        channel_rng = child_rng(seed, 1)\n",
        "        channel_rng = np.random.default_rng()\n",
    ),
    Hazard(
        "`+=` over `set(...)` in place of `net.sum()`",
        "core/objective.py",
        "        return float(net.sum()) - lambda_cost\n",
        "        total = 0.0\n"
        "        for value in set(net.tolist()):\n"
        "            total += value\n"
        "        return total - lambda_cost\n",
    ),
    Hazard(
        "reversed reduction `net[::-1].sum()`",
        "core/objective.py",
        "        return float(net.sum()) - lambda_cost\n",
        "        return float(net[::-1].sum()) - lambda_cost\n",
    ),
    Hazard(
        "a server's root sum added in descending-user order",
        "core/delta.py",
        "                for u in server_users[srv]:\n"
        "                    total += sqrt_eta[u]\n",
        "                for u in reversed(server_users[srv]):\n"
        "                    total += sqrt_eta[u]\n",
    ),
    Hazard(
        "`DirectDraws` rewinds one word too few on close",
        "sim/rng.py",
        "            bit_generator.advance(_TWO_128 - unused)\n",
        "            bit_generator.advance(_TWO_128 - unused + 1)\n",
    ),
    Hazard(
        "Metropolis decided by `math.exp` inside the band",
        "core/annealing.py",
        "    return bool(np.exp(x) > u)\n",
        "    return e > u\n",
    ),
    Hazard(
        "set of hashed strings orders the `+=` of Eq. 23",
        "core/allocation.py",
        "    cost = 0.0\n"
        "    for s in range(scenario.n_servers):\n"
        "        users = decision.users_on_server(s)\n"
        "        if users.size == 0:\n",
        "    cost = 0.0\n"
        '    labels = {f"server-{s}": s for s in range(scenario.n_servers)}\n'
        "    for label in set(labels):\n"
        "        s = labels[label]\n"
        "        users = decision.users_on_server(s)\n"
        "        if users.size == 0:\n",
    ),
    Hazard(
        "one module-level `child_rng(0, 100)` shared by every seed",
        "sim/executors/base.py",
        "        rng = child_rng(seed, 100 + index)\n",
        "        rng = _SHARED_RNG\n",
        appendix="_SHARED_RNG = child_rng(0, 100)\n",
    ),
    Hazard(
        "coordinator-side stream passed in the submit",
        "sim/executors/pool.py",
        _POOL_FUTURES,
        "                from repro.sim.rng import child_rng\n"
        "\n"
        "                stream = child_rng(0, 100)\n"
        "                futures = []\n"
        "                for position, seed in cells:\n"
        "                    future = pool.submit(\n"
        "                        _solve_on_stream, stream, config, schedulers, seed\n"
        "                    )\n"
        "                    futures.append((position, seed, future))\n",
        appendix='''\
def _solve_on_stream(stream, config, schedulers, seed):
    from repro.sim.metrics import solution_metrics
    from repro.sim.scenario import Scenario

    scenario = Scenario.build(config, seed=seed)
    metrics = [
        solution_metrics(scenario, scheduler.schedule(scenario, stream))
        for scheduler in schedulers
    ]
    return metrics, None
''',
    ),
    Hazard(
        "submitted work memoises scenarios in a module-level dict",
        "sim/executors/pool.py",
        _POOL_SUBMIT,
        "                        pool.submit(\n"
        "                            _memo_seed_work, ctx, config, schedulers, seed\n"
        "                        ),\n",
        appendix='''\
_SCENARIOS: dict = {}


def _memo_seed_work(ctx, config, schedulers, seed):
    from repro.sim.metrics import solution_metrics
    from repro.sim.rng import child_rng
    from repro.sim.scenario import Scenario

    if config not in _SCENARIOS:
        _SCENARIOS[config] = Scenario.build(config, seed=seed)
    scenario = _SCENARIOS[config]
    metrics = [
        solution_metrics(
            scenario, scheduler.schedule(scenario, child_rng(seed, 100 + index))
        )
        for index, scheduler in enumerate(schedulers)
    ]
    return metrics, None
''',
    ),
    Hazard(
        "`Path.write_text` in place of `atomic_write_json`",
        "experiments/cache.py",
        _CACHE_WRITE,
        "        path = self._entry_path(key)\n"
        "        path.parent.mkdir(parents=True, exist_ok=True)\n"
        "        path.write_text(\n"
        "            json.dumps(\n"
        "                {\n"
        '                    "format_version": CACHE_FORMAT_VERSION,\n'
        '                    "key": key,\n'
        '                    "metrics": payload_metrics,\n'
        '                    "checksum": payload_checksum(payload_metrics),\n'
        "                },\n"
        "                sort_keys=True,\n"
        "            )\n"
        '            + "\\n"\n'
        "        )\n",
    ),
    Hazard(
        "bare `except:` around the cache write",
        "experiments/cache.py",
        _CACHE_WRITE,
        "        try:\n"
        + "".join("    " + line for line in _CACHE_WRITE.splitlines(True))
        + "        except:\n"
        "            pass\n",
    ),
    # A telemetry-path draw in every file outside obs/ that calls
    # get_recorder(): with the run's stream where one is in scope.
    *_telemetry_rows(
        "core/annealing.py",
        "        tracing = rec.enabled\n"
        "        step_events = tracing and rec.iteration_detail\n",
        "rng",
        flag="tracing",
    ),
    *_telemetry_rows(
        "core/scheduler.py",
        "        rec = get_recorder()\n        watch = Stopwatch()\n",
        "rng",
    ),
    *_telemetry_rows(
        "core/sharding.py",
        "        rec = get_recorder()\n        watch = Stopwatch()\n"
        "        n_boundary = int(\n",
        "rng",
    ),
    *_telemetry_rows(
        "core/degradation.py",
        "    rec = get_recorder()\n    watch = Stopwatch()\n",
        "rng",
    ),
    *_telemetry_rows(
        "sim/executors/base.py",
        "        rng = child_rng(seed, 100 + index)\n"
        "        outcome = scheduler.schedule(scenario, rng)\n",
        "rng",
        flag="get_recorder().enabled",
        recorder="get_recorder()",
    ),
    *_telemetry_rows(
        "sim/runner.py",
        "    rec = get_recorder()\n"
        "\n"
        "    result = ExperimentResult(config=config, seeds=seeds)\n",
        None,
    ),
    *_telemetry_rows(
        "sim/executors/pool.py",
        "        rec = get_recorder()\n"
        '        with rec.span("pool.wave", n_cells=len(cells), n_jobs=self.n_jobs):\n',
        None,
    ),
    *_telemetry_rows(
        "experiments/cache.py",
        "        rec = get_recorder()\n        try:\n",
        None,
    ),
    *_telemetry_rows(
        "experiments/fig8_runtime.py",
        "    rec = get_recorder()\n"
        '    headers: List[str] = ["L", "N"]\n',
        None,
    ),
    *_telemetry_rows(
        "faults/inject.py",
        "    rec = get_recorder()\n    if rec.enabled:\n",
        None,
    ),
    # Rows for R003-R006 and R011: a lint rule stays only while it is
    # some row's only catcher, and most of these shapes change no value
    # that a runtime test compares.
    Hazard(
        "inline `10 ** (x / 10)` in place of `db_to_linear`",
        "net/pathloss.py",
        "        return db_to_linear(-self.loss_db(distance_km))\n",
        "        return 10.0 ** (-self.loss_db(distance_km) / 10.0)\n",
    ),
    Hazard(
        "`Eq. 22` citation dropped from `kkt_allocation`",
        "core/allocation.py",
        '    """Optimal allocation matrix ``F`` with ``F[u, s] = f*_us`` (Eq. 22).\n',
        '    """Optimal allocation matrix ``F`` with ``F[u, s] = f*_us``.\n',
    ),
    Hazard(
        "`@` reduction in place of `net.sum()`",
        "core/objective.py",
        "        return float(net.sum()) - lambda_cost\n",
        "        return float(net @ np.ones(net.size)) - lambda_cost\n",
    ),
    Hazard(
        "builtin `sum(...tolist())` over the Eq. 23 root sums",
        "core/allocation.py",
        "        root_sum = scenario.sqrt_eta[users].sum()\n",
        "        root_sum = sum(scenario.sqrt_eta[users].tolist())\n",
    ),
    Hazard(
        "undocumented `SimulationConfig` field",
        "sim/config.py",
        "    kappa: float = 5e-27\n",
        "    kappa: float = 5e-27\n    spare_margin: float = 0.0\n",
        appendix="def _spare_margin(config):\n    return config.spare_margin\n",
    ),
    Hazard(
        "set-ordered `+=` in place of `data.mean()`",
        "sim/stats.py",
        "    mean = float(data.mean())\n",
        "    total = 0.0\n"
        "    for value in set(data.tolist()):\n"
        "        total += value\n"
        "    mean = total / data.size\n",
    ),
)


@dataclass(frozen=True)
class Outcome:
    """Which gates fired on one copy of the tree."""

    lint: Tuple[str, ...]
    runtime: Tuple[str, ...]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    (dest / "docs").mkdir()
    for name in ("docs/api.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)


def inject(tree: Path, hazard: Hazard) -> None:
    """Apply one row to a copy of the tree (the anchor must be unique)."""
    path = tree / "src" / "repro" / hazard.path
    text = path.read_text(encoding="utf-8")
    count = text.count(hazard.anchor)
    if count != 1:
        raise SystemExit(
            f"{hazard.path}: anchor of {hazard.name!r} occurs {count} times"
        )
    text = text.replace(hazard.anchor, hazard.replacement)
    if hazard.appendix:
        text = f"{text.rstrip()}\n\n\n{hazard.appendix}"
    compile(text, str(path), "exec")
    path.write_text(text, encoding="utf-8")


def _run(tree: Path, argv: Sequence[str]) -> "subprocess.CompletedProcess[str]":
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return subprocess.run(
        [sys.executable, *argv],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )


def _lint(tree: Path) -> Tuple[str, ...]:
    proc = _run(tree, ["-m", "repro.lint", "src", "--format", "json"])
    if proc.returncode not in (0, 1):
        raise SystemExit(f"repro.lint crashed:\n{proc.stderr}")
    findings = json.loads(proc.stdout)["findings"]
    return tuple(sorted({f["rule"] for f in findings}))


def _runtime(tree: Path) -> Tuple[str, ...]:
    node_ids = [node for nodes in GROUPS.values() for node in nodes]
    proc = _run(
        tree,
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *node_ids],
    )
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest did not run the gates:\n{proc.stdout[-2000:]}")
    failed = [
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return tuple(
        group
        for group, nodes in GROUPS.items()
        if any(f.startswith(node) for f in failed for node in nodes)
    )


def measure(workdir: Path, hazard: Optional[Hazard]) -> Outcome:
    tree = workdir / "tree"
    _copy_tree(tree)
    try:
        if hazard is not None:
            inject(tree, hazard)
        return Outcome(lint=_lint(tree), runtime=_runtime(tree))
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def render_table(rows: Sequence[Tuple[Hazard, Outcome]]) -> str:
    lines = [
        "| Injected hazard | File | Kind | Lint rules that fired | Runtime gates that failed |",
        "|---|---|---|---|---|",
    ]
    for hazard, outcome in rows:
        lines.append(
            f"| {hazard.name} | `{hazard.path}` | "
            f"{'inert' if hazard.inert else 'hazard'} | "
            f"{', '.join(outcome.lint) or 'none'} | "
            f"{', '.join(outcome.runtime) or 'none'} |"
        )
    return "\n".join(lines)


def checked_in_table(doc: Path = DOC) -> str:
    text = doc.read_text(encoding="utf-8")
    return text.split(BEGIN, 1)[1].split(END, 1)[0].strip()


def problems(rows: Sequence[Tuple[Hazard, Outcome]]) -> List[str]:
    found = []
    for hazard, outcome in rows:
        label = f"{hazard.name} ({hazard.path})"
        if hazard.inert and outcome.runtime:
            found.append(f"inert row failed runtime gates: {label}")
        if not hazard.inert and not (outcome.lint or outcome.runtime):
            found.append(f"no gate catches: {label}")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gate-matrix-") as tmp:
        clean = measure(Path(tmp), None)
        if clean.lint or clean.runtime:
            print(f"gates fail on the unpatched tree: {clean}", file=sys.stderr)
            return 1
        rows = []
        for index, hazard in enumerate(HAZARDS, 1):
            outcome = measure(Path(tmp), hazard)
            print(
                f"[{index}/{len(HAZARDS)}] {hazard.path}: {hazard.name}: "
                f"lint={list(outcome.lint)} runtime={list(outcome.runtime)}",
                file=sys.stderr,
            )
            rows.append((hazard, outcome))
    table = render_table(rows)
    print(table)
    found = problems(rows)
    if table != checked_in_table():
        found.append(f"the table differs from the one in {DOC.relative_to(ROOT)}")
    for problem in found:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
