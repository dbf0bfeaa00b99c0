"""Extension experiment — robustness to unaveraged fast fading.

The paper schedules on long-term mean gains, assuming fast fading
averages out (Sec. III-A-2).  This experiment stress-tests that
assumption: TSAJS plans on the mean channel, then the plan's utility is
re-evaluated under many realised fading draws of decreasing channel
hardness (Rician K = 10, 5, 1, then Rayleigh).  The gap between the
planned and the realised mean utility is the price of planning on
averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.annealing import AnnealingSchedule
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.net.fading import RayleighFading, RicianFading, faded_scenario
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.runner import Sweep
from repro.sim.scenario import Scenario
from repro.sim.stats import summarize


@dataclass(frozen=True)
class ExtFadingSettings:
    """Settings for the fading-robustness experiment."""

    k_factors: Sequence[float] = (10.0, 5.0, 1.0)  # + Rayleigh appended
    include_rayleigh: bool = True
    n_users: int = 20
    workload_megacycles: float = 2000.0
    chain_length: int = 30
    min_temperature: float = 1e-4
    n_seeds: int = 3
    n_fading_draws: int = 30

    @classmethod
    def quick(cls) -> "ExtFadingSettings":
        return cls(
            k_factors=(10.0,),
            n_users=10,
            n_seeds=2,
            n_fading_draws=10,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "ExtFadingSettings":
        return cls()


def run(
    settings: ExtFadingSettings = ExtFadingSettings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Planned vs realised utility under fading of decreasing hardness.

    ``sweep`` is unused: this driver runs no multi-seed sweep.
    """
    scheduler = TsajsScheduler(
        schedule=AnnealingSchedule(
            chain_length=settings.chain_length,
            min_temperature=settings.min_temperature,
        )
    )
    seeds = default_seeds(settings.n_seeds)

    models = [(f"Rician K={k:g}", RicianFading(k_factor=k)) for k in settings.k_factors]
    if settings.include_rayleigh:
        models.append(("Rayleigh", RayleighFading()))

    headers = ["channel", "planned J", "realised J", "loss %"]
    rows: List[List[str]] = []
    raw: dict = {"models": [name for name, _ in models], "series": {}}

    # One plan per seed on the mean channel; re-evaluated per model.
    plans = []
    for seed in seeds:
        scenario = Scenario.build(
            SimulationConfig(
                n_users=settings.n_users,
                workload_megacycles=settings.workload_megacycles,
            ),
            seed=seed,
        )
        result = scheduler.schedule(scenario, child_rng(seed, 100))
        plans.append((seed, scenario, result))

    planned_stat = summarize([result.utility for _, _, result in plans])

    for name, model in models:
        realised_means = []
        for seed, scenario, result in plans:
            fading_rng = child_rng(seed, 500)
            draws = []
            for _ in range(settings.n_fading_draws):
                realised = faded_scenario(scenario, model, fading_rng)
                evaluator = ObjectiveEvaluator(realised)
                draws.append(evaluator.evaluate(result.decision))
            realised_means.append(float(np.mean(draws)))
        realised_stat = summarize(realised_means)
        loss = 100.0 * (planned_stat.mean - realised_stat.mean) / abs(
            planned_stat.mean
        )
        raw["series"][name] = {
            "planned": planned_stat,
            "realised": realised_stat,
            "loss_percent": loss,
        }
        rows.append(
            [
                name,
                format_stat(planned_stat),
                format_stat(realised_stat),
                f"{loss:+.1f}",
            ]
        )

    return ExperimentOutput(
        experiment_id="ext_fading",
        title="Extension - robustness of mean-channel plans to fast fading",
        headers=headers,
        rows=rows,
        raw=raw,
    )
