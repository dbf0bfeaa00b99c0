"""Per-layer accounting for the traced run, from outside the program.

The traced run wraps the public entry points of each layer (functions
and methods of ``repro`` modules) with a :class:`LayerClock` frame, for
the duration of the traced operations only, and restores them after.  A
layer's *self time* is its frames' time minus the time of the frames
nested inside them, so the self times of all layers plus the
``harness`` root add up to the time of the root frames by construction.
:func:`accounting_problems` checks what that does not: that the root
frames cover the operation time the workload measured from outside,
and that the ``harness`` root's own share (time no layer claims) stays
small, so a missing or mis-wrapped layer shows.

Counters that the program already emits through ``repro.obs`` (annealer
iterations and phase switches, cache hits, misses and writes, shard
reconcile rounds, cluster spans) are read from an in-memory
:class:`~repro.obs.trace.TraceRecorder` installed for the same
operations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines import GreedyScheduler, HJtoraScheduler, LocalSearchScheduler
from repro.core import allocation, partition
from repro.core.annealing import ThresholdTriggeredAnnealer
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.core.sharding import ShardedScheduler
from repro.experiments.cache import ResultCache
from repro.sim import metrics as sim_metrics
from repro.sim import runner, stats
from repro.sim.executors import base as executor_base
from repro.sim.executors.serial import SerialExecutor
from repro.sim.scenario import Scenario

#: Table order; ``harness`` is the root frame around each traced region.
LAYERS = (
    "harness",
    "runner",
    "scenario",
    "scheduler",
    "annealer",
    "evaluator",
    "kkt",
    "shard.partition",
    "sharding",
    "baseline.hjtora",
    "baseline.local_search",
    "baseline.greedy",
    "metrics",
    "stats",
    "cache",
    "cache.get",
    "cache.put",
)

#: Largest share of the externally timed operations the root frames may
#: miss (timer overhead is microseconds on a multi-second operation).
MAX_GAP = 0.01
#: Largest share of the traced time no layer claims (``harness`` self).
MAX_UNATTRIBUTED = 0.02


class LayerClock:
    """A stack of open layer frames with self/busy time per layer."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Time in the layer's outermost frames (children included).
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.roots_s = 0.0
        self.counts: Dict[str, float] = defaultdict(float)

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        t1 = time.perf_counter()
        layer, t0, child_s = self._stack.pop()
        duration = t1 - t0
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.roots_s += duration
        if all(frame[0] != layer for frame in self._stack):
            self.busy_s[layer] += duration

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._stack:
                # Outside a traced region (e.g. the benchmark's own checks).
                return fn(*args, **kwargs)
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper


class Patches:
    """Installs wrappers and restores the originals on exit."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._saved: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, layer: str, on_result=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self.clock.wrap(raw.__func__, layer, on_result)))
        else:
            self._set(cls, name, self.clock.wrap(raw, layer, on_result))

    def function(self, module: Any, name: str, layer: str, on_result=None) -> None:
        """Wrap a module function wherever a ``repro`` module imported it."""
        original = getattr(module, name)
        wrapped = self.clock.wrap(original, layer, on_result)
        for mod_name, mod in sorted(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and getattr(
                mod, name, None
            ) is original:
                self._set(mod, name, wrapped)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def install(clock: LayerClock) -> Patches:
    """Wrap every layer's public entry points; returns the undo handle.

    Call counts come from the frames (``clock.calls``); only what a frame
    cannot see is counted here: ``run_schemes`` calls (the ``runner``
    layer has three entry points) and the baselines' reported evaluations.
    """
    counts = clock.counts
    patches = Patches(clock)

    def count_runs(_: Any) -> None:
        counts["runner.calls"] += 1

    def baseline(key: str) -> Callable[[Any], None]:
        def on_result(result: Any) -> None:
            counts[f"baseline.{key}.evals"] += result.evaluations

        return on_result

    patches.function(runner, "run_schemes", "runner", count_runs)
    patches.method(SerialExecutor, "run_wave", "runner")
    patches.function(executor_base, "seed_work", "runner")
    patches.method(Scenario, "build", "scenario")
    patches.method(TsajsScheduler, "schedule", "scheduler")
    patches.method(ThresholdTriggeredAnnealer, "run", "annealer")
    patches.method(ObjectiveEvaluator, "evaluate_assignment", "evaluator")
    patches.function(allocation, "kkt_allocation", "kkt")
    patches.function(partition, "partition_scenario", "shard.partition")
    patches.method(ShardedScheduler, "schedule", "sharding")
    patches.method(HJtoraScheduler, "schedule", "baseline.hjtora", baseline("hjtora"))
    patches.method(
        LocalSearchScheduler, "schedule", "baseline.local_search", baseline("local_search")
    )
    patches.method(GreedyScheduler, "schedule", "baseline.greedy", baseline("greedy"))
    patches.function(sim_metrics, "solution_metrics", "metrics")
    patches.function(stats, "summarize", "stats")
    patches.method(ResultCache, "lookup_seed", "cache")
    patches.method(ResultCache, "record_seed", "cache")
    patches.method(ResultCache, "get", "cache.get")
    patches.method(ResultCache, "put", "cache.put")
    return patches


def accounting_problems(clock: LayerClock, external_s: float) -> List[str]:
    """What is wrong with the per-layer accounting of ``external_s``
    seconds of operations, timed by the workload outside the clock."""
    problems = []
    gap = external_s - clock.roots_s
    if abs(gap) > MAX_GAP * external_s:
        problems.append(
            f"layer frames cover {clock.roots_s:.6f} s of {external_s:.6f} s "
            "of traced operations"
        )
    unattributed = clock.self_s["harness"] / clock.roots_s if clock.roots_s else 1.0
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(
            f"{100 * unattributed:.2f}% of the traced time is in no layer "
            f"(at most {100 * MAX_UNATTRIBUTED:.0f}% allowed)"
        )
    return problems


def obs_counts(records: List[Dict[str, Any]], counters: Dict[str, float]) -> Dict[str, float]:
    """Totals read from the program's own ``repro.obs`` records and counters."""
    out: Dict[str, float] = defaultdict(float)
    open_shard: Optional[float] = None
    last_cluster_end = 0.0
    for rec in records:
        kind, name = rec["kind"], rec["name"]
        attrs = rec.get("attrs", {})
        if kind == "event" and name == "anneal.finish":
            out["anneal.iterations"] += attrs["iterations"]
            out["anneal.accepted_moves"] += attrs["accepted_moves"]
            out["anneal.fast_coolings"] += attrs["fast_coolings"]
        elif kind == "event" and name == "shard.reconcile_round":
            out["shard.reconcile_accepted"] += attrs["accepted_clusters"]
        elif kind == "span_start" and name == "shard.schedule":
            out["shard.clusters"] += attrs["n_clusters"]
            open_shard = rec["t"]
            last_cluster_end = rec["t"]
        elif kind == "span_start" and name == "scheduler.schedule":
            if open_shard is not None and attrs.get("warm_start"):
                out["shard.reanneals"] += 1
        elif kind == "span_end" and name == "shard.cluster":
            out["shard.cluster_solve_s"] += rec["dur"]
            last_cluster_end = rec["t"]
        elif kind == "span_end" and name == "shard.schedule":
            out["shard.reconcile_s"] += rec["t"] - last_cluster_end
            open_shard = None
    for key, value in counters.items():
        base = key.split("{", 1)[0]
        if base in ("shard.reconcile_rounds", "cache.hits", "cache.misses", "cache.writes"):
            out[base] += value
    return out


def render_table(clock: LayerClock, n_ops: int, external_s: float) -> str:
    """The per-layer self-time table (per operation, raw seconds)."""
    total = clock.roots_s
    lines = [
        f"{'layer':<22}{'calls/op':>12}{'busy s/op':>12}{'self s/op':>12}{'self %':>8}"
    ]
    for layer in LAYERS:  # every layer, zeros where the workload skips it
        lines.append(
            f"{layer:<22}{clock.calls[layer] / n_ops:>12.1f}"
            f"{clock.busy_s[layer] / n_ops:>12.5f}{clock.self_s[layer] / n_ops:>12.5f}"
            f"{100.0 * clock.self_s[layer] / total:>8.2f}"
        )
    self_sum = sum(clock.self_s.values())
    lines.append(
        f"{'sum of self':<22}{'':>12}{'':>12}{self_sum / n_ops:>12.5f}"
        f"{100.0 * self_sum / total:>8.2f}"
    )
    lines.append(f"{'traced op time':<22}{'':>12}{'':>12}{external_s / n_ops:>12.5f}")
    return "\n".join(lines)
