"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs each operation untraced and then traced, and reports
the per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is the JSON result; the lines before it are for people.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NoReturn, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for cache directories, removed before exit.
WORK_ROOT = ROOT / ".perfbench-work"
#: Fresh-interpreter set-up probes per untraced run (median reported).
SETUP_PROBES = 5
#: A set-up probe that is not ready (or has not exited) by then is killed.
PROBE_TIMEOUT_S = 60
#: A tail percentile needs this many samples above it.
TAIL_ABOVE = 10
#: Traced pairs always run (a traced run reports no utility_mean).
TRACED_MIN_OPS = 2


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` (and nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {SRC.name}/ of {ROOT}")
    sys.path[:1] = [str(SRC), str(ROOT)]
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        _fail(f"imported repro from {repro.__file__}, not from this checkout")


# --- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def calibrated(samples: Sequence) -> List[float]:
    """Each sample in calibrated seconds, scaled by its own kernel bracket."""
    return [t.calibrated_s for t in samples]


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest order statistic that leaves
    at least ``TAIL_ABOVE`` samples above it, never below the median.

    With fewer than ``2 * TAIL_ABOVE + 2`` samples no order statistic
    above the median leaves ten samples above it, and the tail falls
    back to the (upper) median; the percentile printed says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_ABOVE, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n


# --- runs ---------------------------------------------------------------------


def timed_loop(workload, seconds: float, op, min_ops: int) -> List:
    """Closed loop: operations back to back for about ``seconds``.

    At least ``min_ops`` operations always run; after that an operation
    starts only if one more of the average length still fits.
    """
    results = []
    start = time.perf_counter()
    while len(results) < workload.available():
        elapsed = time.perf_counter() - start
        if len(results) >= min_ops and elapsed * (1 + 1 / len(results)) > seconds:
            break
        results.append(op(len(results)))
    return results


def guarded(workload, index: int):
    """One operation; an exception fails the operation, not the run."""
    from perfbench.workloads import OpResult

    try:
        return workload.op(index)
    except Exception:  # a failed operation is data: count it and go on
        return OpResult(ok=False, problems=[traceback.format_exc()])


def measure_setup(name: str, seed: int) -> List:
    """Fresh-interpreter set-up times: spawn to "workload ready"."""
    from perfbench.calibration import bracket
    from perfbench.workloads import Timing

    samples = []
    for _ in range(SETUP_PROBES):
        k0 = bracket()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        t1 = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        k1 = bracket()
        if proc.returncode != 0 or line.strip() != "READY":
            raise RuntimeError(f"set-up probe failed: {err.strip()[-2000:]}")
        samples.append(Timing(t1 - t0, 0.5 * (k0 + k1)))
    return samples


def show_timing(name: str, samples: Sequence, value: float, note: str = "") -> None:
    raw = median([s.raw_s for s in samples])
    kernel = statistics.fmean(s.kernel_s for s in samples)
    print(
        f"  {name:<14} {value:10.6f} cal-s   raw median {raw:.6f} s, "
        f"K mean {kernel * 1e3:.3f} ms, n={len(samples)}{note}"
    )


def untraced_run(workload, seconds: float) -> Dict:
    """The end-to-end metrics of one workload, except ``setup_s``."""
    from perfbench import calibration

    calibration.warm_up()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    ops = timed_loop(workload, seconds, lambda i: guarded(workload, i), workload.min_ops)
    print(
        f"{workload.name}: {len(ops)} ops, cpu/wall "
        f"{(time.process_time() - cpu0) / (time.perf_counter() - wall0):.3f}, "
        f"{workload.rejected} degenerate instances rejected at set-up"
    )
    failed = sum(not r.ok for r in ops)
    for r in ops:
        for problem in r.problems:
            print(f"  FAILED: {problem}")

    solve = [t for r in ops for t in r.solve]
    cold = [t for r in ops for t in r.cold]
    warm = [t for r in ops for t in r.warm]
    first = ops[: workload.min_ops]
    p50 = median(calibrated(solve))
    tail_value, tail_pct, n = tail(calibrated(solve))
    values = {
        "solve_p50_s": p50,
        "solve_tail_s": tail_value,
        "sweep_cold_s": median(calibrated(cold)),
        "sweep_warm_s": median(calibrated(warm)),
        # Mean J of the first min_ops operations over the catalog's
        # recorded mean J of the same cells: exactly 1 when the program
        # solves every cell as it did when the catalog was written.
        "utility_mean": sum(u for r in first for u in r.utilities)
        / sum(u for r in first for u in r.reference),
        "ok_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    show_timing("solve_p50_s", solve, p50)
    show_timing("solve_tail_s", solve, tail_value, f" (p{tail_pct:.1f} of {n} samples)")
    show_timing("sweep_cold_s", cold, values["sweep_cold_s"])
    show_timing("sweep_warm_s", warm, values["sweep_warm_s"])
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "values": values,
    }


def traced_run(workload, seconds: float, import_s: float) -> Dict:
    from perfbench import calibration, layers
    from perfbench.rungs import RungProbe
    from repro.obs import TraceRecorder, set_recorder

    calibration.warm_up()
    clock = layers.LayerClock()
    records: List[Dict] = []
    counters: Dict[str, float] = {}
    problems: List[str] = []
    failed_pairs = 0
    pairs: List[Tuple] = []
    probe = RungProbe(workload) if workload.name == "solve-paper" else None
    cpu0, wall0 = time.process_time(), time.perf_counter()

    def pair(index: int):
        nonlocal failed_pairs
        plain = guarded(workload, index)
        recorder = TraceRecorder(None)
        patches = layers.install(clock)
        previous = set_recorder(recorder)
        workload.layers = clock
        try:
            traced = guarded(workload, index)
        finally:
            workload.layers = None
            set_recorder(previous)
            patches.restore()
        records.extend(recorder.records)
        for key, value in recorder.snapshot()["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        found = plain.problems + traced.problems
        if plain.fingerprint != traced.fingerprint:
            found.append(f"op {index}: traced result differs from untraced")
        if probe is not None:
            found.extend(probe.run(index, plain))
        failed_pairs += bool(found)
        problems.extend(found)
        pairs.append((plain, traced))
        return traced

    traced_ops = timed_loop(workload, seconds, pair, TRACED_MIN_OPS)
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    n = len(traced_ops)
    obs = layers.obs_counts(records, counters)
    c = clock.counts

    # The accounting check: the layer frames cover the operation time the
    # workload measured outside them with little left unattributed, and
    # (solve workloads) the evaluator wrapper saw exactly the evaluations
    # the solvers reported.
    external_s = sum(op.raw_s for op in traced_ops)
    accounting = layers.accounting_problems(clock, external_s)
    evals = clock.calls["evaluator"]
    reported = sum(op.evaluations for op in traced_ops)
    if workload.name != "sweep-cache" and reported != evals:
        accounting.append(f"evaluator saw {evals} evaluations, solvers reported {reported}")
    problems.extend(accounting)
    print(f"{workload.name}: per-layer self time over {n} traced ops")
    print(layers.render_table(clock, n, external_s))
    for problem in problems:
        print(f"  FAILED: {problem}")

    def per_op(value: float) -> float:
        return value / n

    def calibrated_sum(ops) -> float:
        return sum(op.raw_s * calibration.K_NOMINAL / op.kernel_s for op in ops)

    untraced_s = calibrated_sum(p[0] for p in pairs)
    traced_s = calibrated_sum(p[1] for p in pairs)
    hits = obs["cache.hits"]
    gets = hits + obs["cache.misses"]
    reanneals = obs["shard.reanneals"]
    values = {
        "setup.import_s": import_s,
        "scenario.builds": float(workload.builds),
        "scenario.build_s": workload.build_s,
        "evaluator.evals": per_op(evals),
        "evaluator.busy_s": per_op(clock.busy_s["evaluator"]),
        "evaluator.us_per_eval": 1e6 * clock.busy_s["evaluator"] / evals if evals else 0.0,
        "anneal.iterations": per_op(obs["anneal.iterations"]),
        "anneal.accepted_moves": per_op(obs["anneal.accepted_moves"]),
        "anneal.fast_coolings": per_op(obs["anneal.fast_coolings"]),
        "anneal.self_s": per_op(clock.self_s["annealer"]),
        "kkt.calls": per_op(clock.calls["kkt"]),
        "kkt.busy_s": per_op(clock.busy_s["kkt"]),
        "shard.clusters": per_op(obs["shard.clusters"]),
        "shard.partition_s": per_op(clock.busy_s["shard.partition"]),
        "shard.cluster_solve_s": per_op(obs["shard.cluster_solve_s"]),
        "shard.reconcile_s": per_op(obs["shard.reconcile_s"]),
        "shard.reconcile_rounds": per_op(obs["shard.reconcile_rounds"]),
        "shard.reconcile_useful_ratio": (
            obs["shard.reconcile_accepted"] / reanneals if reanneals else 0.0
        ),
        "runner.calls": per_op(c["runner.calls"]),
        "runner.self_s": per_op(clock.self_s["runner"]),
        "cache.gets": per_op(gets),
        "cache.hits": per_op(hits),
        "cache.hit_ratio": hits / gets if gets else 0.0,
        "cache.puts": per_op(obs["cache.writes"]),
        "cache.get_s": per_op(clock.busy_s["cache.get"]),
        "cache.put_s": per_op(clock.busy_s["cache.put"]),
        "cache.bytes_written": per_op(sum(t.bytes_written for t in traced_ops)),
        "metrics.calls": per_op(clock.calls["metrics"]),
        "metrics.busy_s": per_op(clock.busy_s["metrics"]),
        "stats.busy_s": per_op(clock.busy_s["stats"]),
        "calibration.kernel_s": median([p[0].kernel_s for p in pairs]),
        "cpu_per_wall": cpu_per_wall,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_frac": clock.self_s["harness"] / clock.roots_s,
    }
    for key in ("hjtora", "local_search", "greedy"):
        values[f"baseline.{key}.busy_s"] = per_op(clock.busy_s[f"baseline.{key}"])
        values[f"baseline.{key}.evals"] = per_op(c[f"baseline.{key}.evals"])
    if probe is not None:
        values.update(probe.metrics())
    else:
        values.update(RungProbe.empty_metrics())
    print(
        f"setup: imports {import_s:.3f} s, {workload.builds} scenario builds in "
        f"{workload.build_s:.3f} s; harness: kernel {values['calibration.kernel_s'] * 1e3:.2f} ms, "
        f"cpu/wall {cpu_per_wall:.3f}, trace overhead {100 * values['trace.overhead_frac']:+.1f}%, "
        f"unattributed {100 * values['trace.unattributed_frac']:.3f}%"
    )
    return {
        "correct": not problems,
        "attempted": n + 1,
        "failed": failed_pairs + bool(accounting),
        "values": values,
    }


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv or None)
    t0 = time.perf_counter()
    _bootstrap()
    from perfbench import workloads

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.NAMES:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir()
    try:
        workload = workloads.make(args.workload, workdir)
        workload.setup(args.seed)
        if workload.available() < workload.min_ops:
            raise RuntimeError(
                f"{workload.name}: the catalog feeds {workload.available()} operations, "
                f"fewer than the {workload.min_ops} every run performs"
            )
        if args.setup_probe:
            print("READY", flush=True)
            return 0
        if args.trace:
            result = traced_run(workload, args.seconds, import_s)
            units = {m["name"]: m["unit"] for m in _declared("per_layer")}
        else:
            setup = measure_setup(workload.name, args.seed)
            result = untraced_run(workload, args.seconds)
            result["values"]["setup_s"] = median(calibrated(setup))
            show_timing("setup_s", setup, result["values"]["setup_s"])
            units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    values = result["values"]
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


def _declared(kind: str) -> List[Dict]:
    """The metric declarations of ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
