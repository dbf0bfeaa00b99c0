"""Ablation — does the threshold trigger earn its keep?

TSAJS's distinguishing feature over vanilla simulated annealing is the
two-rate cooling: slow (alpha_1 = 0.97) normally, fast (alpha_2 = 0.90)
once ``maxCount = 1.75 L`` worsened solutions have been accepted.  This
ablation runs three variants at the same stopping temperature:

* **TTSA** — the paper's schedule;
* **Vanilla-slow** — always alpha_1 (never triggers; higher quality
  ceiling but strictly more iterations);
* **Vanilla-fast** — always alpha_2 (cheapest, weakest exploration).

Reported: mean utility and mean objective-evaluation count.  The expected
outcome is TTSA matching Vanilla-slow's utility at a fraction of the
iterations, and beating Vanilla-fast's utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep
from repro.sim.stats import summarize

#: A threshold factor so large the fast rate never engages.
_NEVER_TRIGGER = 1e18


class _NamedTsajs(TsajsScheduler):
    """TSAJS variant with an explicit display name (for the runner)."""

    def __init__(self, name: str, schedule: AnnealingSchedule) -> None:
        super().__init__(schedule=schedule)
        self.name = name


@dataclass(frozen=True)
class AblationThresholdSettings:
    """Settings for the threshold-trigger ablation."""

    n_users: int = 30
    workload_megacycles: float = 2000.0
    chain_length: int = 30
    min_temperature: float = 1e-9
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "AblationThresholdSettings":
        return cls(n_users=15, n_seeds=2, min_temperature=1e-2)

    @classmethod
    def reference(cls) -> "AblationThresholdSettings":
        return cls(n_seeds=3, min_temperature=1e-6)


def schedulers(settings: AblationThresholdSettings) -> List[TsajsScheduler]:
    """The three compared variants: TTSA, Vanilla-slow and Vanilla-fast."""
    base = dict(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
    )
    return [
        _NamedTsajs("TTSA", AnnealingSchedule(**base)),
        _NamedTsajs(
            "Vanilla-slow",
            AnnealingSchedule(threshold_factor=_NEVER_TRIGGER, **base),
        ),
        _NamedTsajs(
            "Vanilla-fast",
            AnnealingSchedule(alpha_slow=0.90, alpha_fast=0.90, **base),
        ),
    ]


def run(
    settings: AblationThresholdSettings = AblationThresholdSettings(),
    sweep: Sweep = Sweep(),
) -> ExperimentOutput:
    """Compare TTSA against single-rate annealing schedules."""
    variants = schedulers(settings)
    config = SimulationConfig(
        n_users=settings.n_users,
        workload_megacycles=settings.workload_megacycles,
    )
    result = sweep.run(config, variants, default_seeds(settings.n_seeds))

    headers = ["variant", "utility", "evaluations"]
    rows: List[List[str]] = []
    raw: dict = {"series": {}}
    for scheduler in variants:
        utility = result.utility_summary(scheduler.name)
        evals = summarize(
            [float(m.evaluations) for m in result.metrics[scheduler.name]]
        )
        raw["series"][scheduler.name] = {"utility": utility, "evaluations": evals}
        rows.append(
            [scheduler.name, format_stat(utility), format_stat(evals, precision=0)]
        )

    return ExperimentOutput(
        experiment_id="ablation_threshold",
        title="Ablation - threshold-triggered vs single-rate cooling",
        headers=headers,
        rows=rows,
        raw=raw,
    )
