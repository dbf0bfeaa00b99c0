#!/usr/bin/env python
"""Convergence study: what does the threshold trigger buy?

Runs TSAJS's threshold-triggered schedule (alpha 0.97/0.90, trigger at
1.75·L accepted-worse moves) against a vanilla single-rate annealer on
the same instance, and prints each run's best-utility trace as a
sparkline together with convergence statistics.

Run:  python examples/annealing_convergence.py
"""

from __future__ import annotations

from repro import Scenario, SimulationConfig
from repro.analysis import ascii_sparkline, summarize_trace
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.sim.rng import child_rng

SEED = 3


def main() -> None:
    scenario = Scenario.build(
        SimulationConfig(n_users=25, workload_megacycles=2000.0), seed=SEED
    )
    common = dict(min_temperature=1e-6, chain_length=30)
    variants = {
        "TTSA (paper)": TsajsScheduler(
            schedule=AnnealingSchedule(**common), record_trace=True
        ),
        "vanilla slow": TsajsScheduler(
            schedule=AnnealingSchedule(threshold_factor=1e18, **common),
            record_trace=True,
        ),
        "vanilla fast": TsajsScheduler(
            schedule=AnnealingSchedule(alpha_slow=0.90, alpha_fast=0.90, **common),
            record_trace=True,
        ),
    }

    print(f"instance: U=25, S=9, N=3, w=2000 Mc (seed {SEED})\n")
    for name, scheduler in variants.items():
        result = scheduler.schedule(scenario, child_rng(SEED, 100))
        report = summarize_trace(result.trace)
        spark = ascii_sparkline(result.trace, width=60)
        print(f"{name:14s} {spark}")
        print(
            f"{'':14s} final J = {report.final_value:.4f}   "
            f"levels = {report.levels:4d}   "
            f"90% of climb by level {report.levels_to_90}   "
            f"evals = {result.evaluations}\n"
        )

    print(
        "Reading: the threshold trigger spends fewer temperature levels\n"
        "than the always-slow schedule at (near-)equal final utility, while\n"
        "the always-fast schedule saves even more levels but plateaus lower\n"
        "on harder instances — the paper's stated motivation for TTSA."
    )


if __name__ == "__main__":
    main()
