"""Extension experiment — TSAJS versus the GA metaheuristic family.

The paper's related work cites genetic-algorithm approaches (ref. [33])
as the other main metaheuristic applied to computation offloading but
never compares against one.  This experiment fills that gap: TSAJS and
an elitist tournament GA solve the same instances, and the table reports
mean utility and the objective evaluations each search spends — the
fair-budget picture behind "TSAJS finds near-optimal solutions within
polynomial time".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.baselines.genetic import GeneticScheduler
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep
from repro.sim.stats import summarize


@dataclass(frozen=True)
class ExtMetaheuristicsSettings:
    """Settings for the metaheuristic comparison."""

    user_counts: Sequence[int] = (10, 30, 50)
    workload_megacycles: float = 2000.0
    chain_length: int = 30
    min_temperature: float = 1e-4
    ga_population: int = 40
    ga_generations: int = 200
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "ExtMetaheuristicsSettings":
        return cls(
            user_counts=(10,),
            n_seeds=2,
            min_temperature=1e-2,
            ga_generations=30,
        )

    @classmethod
    def reference(cls) -> "ExtMetaheuristicsSettings":
        return cls(n_seeds=3)


def run(
    settings: ExtMetaheuristicsSettings = ExtMetaheuristicsSettings(),
    sweep: Sweep = Sweep(),
) -> ExperimentOutput:
    """Mean utility and search cost of TSAJS vs GA per user count."""
    schedulers = [
        TsajsScheduler(
            schedule=AnnealingSchedule(
                chain_length=settings.chain_length,
                min_temperature=settings.min_temperature,
            )
        ),
        GeneticScheduler(
            population_size=settings.ga_population,
            generations=settings.ga_generations,
        ),
    ]
    seeds = default_seeds(settings.n_seeds)

    headers = ["users", "TSAJS", "GA", "TSAJS evals", "GA evals"]
    rows: List[List[str]] = []
    raw: dict = {"user_counts": list(settings.user_counts), "series": {}}
    for n_users in settings.user_counts:
        config = SimulationConfig(
            n_users=n_users,
            workload_megacycles=settings.workload_megacycles,
        )
        result = sweep.run(config, schedulers, seeds)
        tsajs_utility = result.utility_summary("TSAJS")
        ga_utility = result.utility_summary("GA")
        tsajs_evals = summarize(
            [float(m.evaluations) for m in result.metrics["TSAJS"]]
        )
        ga_evals = summarize([float(m.evaluations) for m in result.metrics["GA"]])
        raw["series"][n_users] = {
            "TSAJS": {"utility": tsajs_utility, "evaluations": tsajs_evals},
            "GA": {"utility": ga_utility, "evaluations": ga_evals},
        }
        rows.append(
            [
                str(n_users),
                format_stat(tsajs_utility),
                format_stat(ga_utility),
                format_stat(tsajs_evals, precision=0),
                format_stat(ga_evals, precision=0),
            ]
        )

    return ExperimentOutput(
        experiment_id="ext_metaheuristics",
        title="Extension - TSAJS vs genetic algorithm (equal objective)",
        headers=headers,
        rows=rows,
        raw=raw,
    )
