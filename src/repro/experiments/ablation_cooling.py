"""Ablation — cooling-rate sweep (alpha_1 x alpha_2).

Sweeps the slow and fast cooling rates around the paper's (0.97, 0.90)
choice and reports utility and evaluation count for each pair, exposing
the quality/cost trade-off the constants encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
class AblationCoolingSettings:
    """Settings for the cooling-rate ablation."""

    alpha_pairs: Sequence[Tuple[float, float]] = (
        (0.90, 0.80),
        (0.95, 0.85),
        (0.97, 0.90),  # paper
        (0.99, 0.95),
    )
    n_users: int = 30
    workload_megacycles: float = 2000.0
    chain_length: int = 30
    min_temperature: float = 1e-9
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "AblationCoolingSettings":
        return cls(
            alpha_pairs=((0.90, 0.80), (0.97, 0.90)),
            n_users=15,
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "AblationCoolingSettings":
        return cls(n_seeds=3, min_temperature=1e-6)


def run(
    settings: AblationCoolingSettings = AblationCoolingSettings(),
    sweep: Sweep = Sweep(),
) -> ExperimentOutput:
    """Sweep (alpha_slow, alpha_fast) pairs for TSAJS."""
    schedulers = [
        _NamedTsajs(
            f"a1={slow:.2f}/a2={fast:.2f}",
            AnnealingSchedule(
                alpha_slow=slow,
                alpha_fast=fast,
                chain_length=settings.chain_length,
                min_temperature=settings.min_temperature,
            ),
        )
        for slow, fast in settings.alpha_pairs
    ]
    config = SimulationConfig(
        n_users=settings.n_users,
        workload_megacycles=settings.workload_megacycles,
    )
    result = sweep.run(config, schedulers, default_seeds(settings.n_seeds))

    headers = ["alphas", "utility", "evaluations"]
    rows: List[List[str]] = []
    raw: dict = {"series": {}}
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
        experiment_id="ablation_cooling",
        title="Ablation - cooling-rate sweep (alpha_slow / alpha_fast)",
        headers=headers,
        rows=rows,
        raw=raw,
    )
