"""Ablation — utility as a function of the annealing budget.

TSAJS's headline claim is near-optimal utility "within polynomial time".
This ablation makes the quality/budget curve explicit: the stopping
temperature ``T_min`` is swept over decades (each decade multiplies the
temperature-level count by a constant), and the table reports the mean
utility and mean objective-evaluation count at each budget — showing
where the returns of a longer anneal vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep
from repro.sim.stats import summarize


class _NamedTsajs(TsajsScheduler):
    """TSAJS variant with an explicit display name (for the runner)."""

    def __init__(self, name: str, schedule: AnnealingSchedule) -> None:
        super().__init__(schedule=schedule)
        self.name = name


@dataclass(frozen=True)
class AblationBudgetSettings:
    """Settings for the budget ablation."""

    min_temperatures: Sequence[float] = (1e-1, 1e-2, 1e-4, 1e-6, 1e-9)
    n_users: int = 30
    workload_megacycles: float = 2000.0
    chain_length: int = 30
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "AblationBudgetSettings":
        return cls(min_temperatures=(1e-1, 1e-3), n_users=15, n_seeds=2)

    @classmethod
    def reference(cls) -> "AblationBudgetSettings":
        return cls(n_seeds=3)


def run(
    settings: AblationBudgetSettings = AblationBudgetSettings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Sweep the stopping temperature; report utility and search cost."""
    schedulers = [
        _NamedTsajs(
            f"Tmin={t_min:.0e}",
            AnnealingSchedule(
                chain_length=settings.chain_length, min_temperature=t_min
            ),
        )
        for t_min in settings.min_temperatures
    ]
    config = SimulationConfig(
        n_users=settings.n_users,
        workload_megacycles=settings.workload_megacycles,
    )
    result = sweep.run(config, schedulers, default_seeds(settings.n_seeds))

    headers = ["T_min", "utility", "evaluations"]
    rows: List[List[str]] = []
    raw: dict = {"min_temperatures": list(settings.min_temperatures), "series": {}}
    for scheduler in schedulers:
        utility = result.utility_summary(scheduler.name)
        evals = summarize(
            [float(m.evaluations) for m in result.metrics[scheduler.name]]
        )
        raw["series"][scheduler.name] = {"utility": utility, "evaluations": evals}
        rows.append(
            [scheduler.name, format_stat(utility), format_stat(evals, precision=0)]
        )

    return ExperimentOutput(
        experiment_id="ablation_budget",
        title="Ablation - utility vs annealing budget (T_min sweep)",
        headers=headers,
        rows=rows,
        raw=raw,
    )
