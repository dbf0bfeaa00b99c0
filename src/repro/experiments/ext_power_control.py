"""Extension experiment — how much utility does power control add?

The paper fixes every uplink at 10 dBm.  This experiment quantifies what
that assumption costs: for each user count it runs plain TSAJS, TSAJS
plus one best-response power pass, and the full alternation
(:class:`TsajsWithPowerControl`), and reports the mean system utility of
each stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.extensions.power_control import TsajsWithPowerControl, optimize_powers
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.runner import Sweep
from repro.sim.scenario import Scenario
from repro.sim.stats import summarize


@dataclass(frozen=True)
class ExtPowerControlSettings:
    """Settings for the power-control extension experiment."""

    user_counts: Sequence[int] = (10, 20, 40)
    workload_megacycles: float = 2000.0
    chain_length: int = 30
    min_temperature: float = 1e-4
    n_seeds: int = 5
    p_min_watts: float = 1e-3
    p_max_watts: float = 0.1

    @classmethod
    def quick(cls) -> "ExtPowerControlSettings":
        return cls(user_counts=(10,), n_seeds=2, min_temperature=1e-2)

    @classmethod
    def reference(cls) -> "ExtPowerControlSettings":
        return cls(n_seeds=3)


def run(
    settings: ExtPowerControlSettings = ExtPowerControlSettings(),
    sweep: Sweep = Sweep(),
) -> ExperimentOutput:
    """Mean utility of TSAJS, TSAJS+power pass, and full alternation.

    ``sweep`` is unused: this driver runs no multi-seed sweep.
    """
    schedule = AnnealingSchedule(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
    )
    seeds = default_seeds(settings.n_seeds)

    headers = ["users", "TSAJS", "TSAJS+power", "alternating", "gain %"]
    rows: List[List[str]] = []
    raw: dict = {"user_counts": list(settings.user_counts), "series": {}}
    for n_users in settings.user_counts:
        base_values = []
        power_values = []
        joint_values = []
        for seed in seeds:
            scenario = Scenario.build(
                SimulationConfig(
                    n_users=n_users,
                    workload_megacycles=settings.workload_megacycles,
                ),
                seed=seed,
            )
            base = TsajsScheduler(schedule=schedule).schedule(
                scenario, child_rng(seed, 100)
            )
            base_values.append(base.utility)
            control = optimize_powers(
                scenario,
                base.decision,
                p_min_watts=settings.p_min_watts,
                p_max_watts=settings.p_max_watts,
            )
            power_values.append(control.utility_after)
            joint = TsajsWithPowerControl(
                schedule=schedule,
                rounds=2,
                p_min_watts=settings.p_min_watts,
                p_max_watts=settings.p_max_watts,
            ).schedule_joint(scenario, child_rng(seed, 200))
            joint_values.append(joint.result.utility)

        base_stat = summarize(base_values)
        power_stat = summarize(power_values)
        joint_stat = summarize(joint_values)
        gain = 100.0 * (joint_stat.mean - base_stat.mean) / abs(base_stat.mean)
        raw["series"][n_users] = {
            "base": base_stat,
            "power": power_stat,
            "joint": joint_stat,
            "gain_percent": gain,
        }
        rows.append(
            [
                str(n_users),
                format_stat(base_stat),
                format_stat(power_stat),
                format_stat(joint_stat),
                f"{gain:+.1f}",
            ]
        )

    return ExperimentOutput(
        experiment_id="ext_power_control",
        title="Extension - utility gain from uplink power control",
        headers=headers,
        rows=rows,
        raw=raw,
    )
