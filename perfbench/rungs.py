"""Rung probe: the ``solve-paper`` instances on all three evaluation rungs.

The scalar, delta and batch evaluators promise bit-equal solves.  The
traced ``solve-paper`` run re-solves each traced instance with
``use_delta=True`` and ``use_batch=True`` (default batch width), without
the layer wrappers, checks the utility and decision against the scalar
solve bit for bit, and records what each rung costs end to end.  The
scalar figures come from the untraced operation itself.  The batch
rung's annealer iterations are read from the ``anneal.finish`` events
the program emits to an in-memory recorder installed for those solves.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from perfbench import calibration
from perfbench.workloads import SCHEDULER_STREAM, Timing
from repro.core.scheduler import TsajsScheduler
from repro.obs import TraceRecorder, set_recorder
from repro.sim.rng import child_rng

RUNGS = ("scalar", "delta", "batch")


class RungProbe:
    """Delta and batch re-solves of traced instances, checked against scalar."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.schedulers = {
            "delta": TsajsScheduler(use_delta=True),
            "batch": TsajsScheduler(use_batch=True),
        }
        self.solve_s: Dict[str, List[float]] = {rung: [] for rung in RUNGS}
        self.us_per_eval: Dict[str, List[float]] = {rung: [] for rung in RUNGS}
        self.batch_iterations = 0
        self.batch_evaluations = 0

    def run(self, index: int, scalar) -> List[str]:
        """Probe instance ``index``; ``scalar`` is its untraced operation."""
        if not scalar.solve:
            return []
        timing = scalar.solve[0]
        self.solve_s["scalar"].append(timing.calibrated_s)
        self.us_per_eval["scalar"].append(1e6 * timing.calibrated_s / scalar.evaluations)
        inst = self.workload.instances[index]
        seed, scenario = inst.seed, inst.scenarios[0]
        problems = []
        for rung, scheduler in self.schedulers.items():
            recorder = TraceRecorder(None)
            previous = set_recorder(recorder)
            try:
                k0 = calibration.bracket()
                t0 = time.perf_counter()
                result = scheduler.schedule(scenario, child_rng(seed, SCHEDULER_STREAM))
                t1 = time.perf_counter()
                k1 = calibration.bracket()
            finally:
                set_recorder(previous)
            solve_s = Timing(t1 - t0, 0.5 * (k0 + k1)).calibrated_s
            self.solve_s[rung].append(solve_s)
            self.us_per_eval[rung].append(1e6 * solve_s / result.evaluations)
            if rung == "batch":
                self.batch_iterations += sum(
                    rec["attrs"]["iterations"]
                    for rec in recorder.records
                    if rec["kind"] == "event" and rec["name"] == "anneal.finish"
                )
                self.batch_evaluations += result.evaluations
            decision = (result.decision.server.tobytes(), result.decision.channel.tobytes())
            if (result.utility, *decision) != scalar.fingerprint:
                problems.append(f"seed {seed}: {rung} rung differs from scalar")
        return problems

    def metrics(self) -> Dict[str, float]:
        out = {}
        for rung in RUNGS:
            out[f"rung.{rung}.solve_s"] = statistics.median(self.solve_s[rung])
            out[f"rung.{rung}.us_per_eval"] = statistics.median(self.us_per_eval[rung])
        out["rung.batch.useful_ratio"] = self.batch_iterations / self.batch_evaluations
        return out

    @staticmethod
    def empty_metrics() -> Dict[str, float]:
        """The rung metrics of workloads that do not probe (all zero)."""
        out = {f"rung.{rung}.{m}": 0.0 for rung in RUNGS for m in ("solve_s", "us_per_eval")}
        out["rung.batch.useful_ratio"] = 0.0
        return out
