"""Extension experiment — what does task atomicity cost?

The paper's tasks are non-divisible; related work (ref. [30]) partitions
them at the bit level.  For each workload this experiment schedules with
TSAJS, then relaxes the atomic constraint via the closed-form partial-
offloading optimum (:mod:`repro.extensions.partial`) on the same slot
assignment, reporting the utility of both models and the mean optimal
offload fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.extensions.partial import optimal_fractions
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.runner import Sweep
from repro.sim.scenario import Scenario
from repro.sim.stats import summarize


@dataclass(frozen=True)
class ExtPartialSettings:
    """Settings for the partial-offloading experiment."""

    workloads_megacycles: Sequence[float] = (500.0, 1000.0, 2000.0, 4000.0)
    n_users: int = 20
    chain_length: int = 30
    min_temperature: float = 1e-4
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "ExtPartialSettings":
        return cls(
            workloads_megacycles=(500.0, 4000.0),
            n_users=10,
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "ExtPartialSettings":
        return cls(n_seeds=3)


def run(
    settings: ExtPartialSettings = ExtPartialSettings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Atomic vs partial utility (and mean rho*) per workload.

    ``sweep`` is unused: this driver runs no multi-seed sweep.
    """
    scheduler = TsajsScheduler(
        schedule=AnnealingSchedule(
            chain_length=settings.chain_length,
            min_temperature=settings.min_temperature,
        )
    )
    seeds = default_seeds(settings.n_seeds)

    headers = ["w [Mc]", "atomic (paper)", "partial", "gain %", "mean rho*"]
    rows: List[List[str]] = []
    raw: dict = {"workloads": list(settings.workloads_megacycles), "series": {}}
    for workload in settings.workloads_megacycles:
        atomic_values = []
        partial_values = []
        mean_fractions = []
        for seed in seeds:
            scenario = Scenario.build(
                SimulationConfig(
                    n_users=settings.n_users, workload_megacycles=workload
                ),
                seed=seed,
            )
            schedule = scheduler.schedule(scenario, child_rng(seed, 100))
            relaxed = optimal_fractions(
                scenario, schedule.decision, schedule.allocation
            )
            atomic_values.append(relaxed.full_offload_utility)
            partial_values.append(relaxed.system_utility)
            offloaded = schedule.decision.offloaded_users()
            if offloaded.size:
                mean_fractions.append(float(relaxed.fractions[offloaded].mean()))
        atomic_stat = summarize(atomic_values)
        partial_stat = summarize(partial_values)
        fraction_stat = summarize(mean_fractions if mean_fractions else [0.0])
        gain = (
            100.0 * (partial_stat.mean - atomic_stat.mean) / abs(atomic_stat.mean)
            if atomic_stat.mean
            else 0.0
        )
        raw["series"][workload] = {
            "atomic": atomic_stat,
            "partial": partial_stat,
            "mean_fraction": fraction_stat,
            "gain_percent": gain,
        }
        rows.append(
            [
                f"{workload:.0f}",
                format_stat(atomic_stat),
                format_stat(partial_stat),
                f"{gain:+.2f}",
                format_stat(fraction_stat, precision=3),
            ]
        )

    return ExperimentOutput(
        experiment_id="ext_partial",
        title="Extension - atomic (paper) vs bit-level partial offloading",
        headers=headers,
        rows=rows,
        raw=raw,
    )
