"""Extension experiment — sensitivity to the result-return (downlink) size.

The core model drops the downlink leg "due to the small amount of output
data" (Sec. III-A-2).  This experiment sweeps the output-to-input ratio
and schedules with the downlink-aware evaluator, reporting how the
achievable utility and the offload count erode as results get bulkier —
i.e. where the paper's simplification stops being harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.extensions.downlink import DownlinkAwareEvaluator, DownlinkModel
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.runner import Sweep
from repro.sim.scenario import Scenario
from repro.sim.stats import summarize


@dataclass(frozen=True)
class ExtDownlinkSettings:
    """Settings for the downlink-sensitivity experiment."""

    output_fractions: Sequence[float] = (0.01, 0.1, 0.5, 1.0, 2.0)
    n_users: int = 20
    workload_megacycles: float = 2000.0
    bs_tx_power_dbm: float = 46.0
    chain_length: int = 30
    min_temperature: float = 1e-4
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "ExtDownlinkSettings":
        return cls(
            output_fractions=(0.01, 2.0),
            n_users=10,
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "ExtDownlinkSettings":
        return cls(n_seeds=3)


def run(
    settings: ExtDownlinkSettings = ExtDownlinkSettings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Utility and offload count vs the output-to-input size ratio.

    ``sweep`` is unused: this driver runs no multi-seed sweep.
    """
    schedule = AnnealingSchedule(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
    )
    seeds = default_seeds(settings.n_seeds)

    headers = ["output/input", "utility", "offloaded users"]
    rows: List[List[str]] = []
    raw: dict = {
        "output_fractions": list(settings.output_fractions),
        "utility": [],
        "offloaded": [],
    }
    for fraction in settings.output_fractions:
        model = DownlinkModel(
            bs_tx_power_dbm=settings.bs_tx_power_dbm,
            output_fraction=fraction,
        )
        scheduler = TsajsScheduler(
            schedule=schedule,
            evaluator_factory=lambda s, model=model: DownlinkAwareEvaluator(s, model),
        )
        utilities = []
        offloaded = []
        for seed in seeds:
            scenario = Scenario.build(
                SimulationConfig(
                    n_users=settings.n_users,
                    workload_megacycles=settings.workload_megacycles,
                ),
                seed=seed,
            )
            result = scheduler.schedule(scenario, child_rng(seed, 100))
            utilities.append(result.utility)
            offloaded.append(float(result.decision.n_offloaded()))
        utility_stat = summarize(utilities)
        offload_stat = summarize(offloaded)
        raw["utility"].append(utility_stat)
        raw["offloaded"].append(offload_stat)
        rows.append(
            [
                f"{fraction:.2f}",
                format_stat(utility_stat),
                format_stat(offload_stat, precision=1),
            ]
        )

    return ExperimentOutput(
        experiment_id="ext_downlink",
        title="Extension - downlink-aware scheduling vs output size",
        headers=headers,
        rows=rows,
        raw=raw,
    )
