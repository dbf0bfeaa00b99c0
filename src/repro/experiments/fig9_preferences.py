"""Fig. 9 — impact of user preferences on energy and delay.

Sweeps the time-preference weight ``beta_time`` from 0.05 to 0.95 (with
``beta_energy = 1 - beta_time``) for three user scales and reports the
average per-user energy consumption (panel a) and computation delay
(panel b) achieved by TSAJS.

Expected shape: "as the value of beta_time gradually increased, users
tended to prioritize time efficiency, leading to a significant reduction
in average time consumption.  However, this temporal optimization ...
came at the expense of increased energy consumption."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import default_seeds, make_tsajs
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep
from repro.sim.stats import summarize


@dataclass(frozen=True)
class Fig9Settings:
    """Sweep settings for the preference figure."""

    beta_time_values: Sequence[float] = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
    user_counts: Sequence[int] = (30, 60, 90)
    workload_megacycles: float = 1000.0
    chain_length: int = 30
    n_seeds: int = 5
    min_temperature: float = 1e-9

    @classmethod
    def quick(cls) -> "Fig9Settings":
        return cls(
            beta_time_values=(0.05, 0.95),
            user_counts=(30,),
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "Fig9Settings":
        return cls(n_seeds=3, min_temperature=1e-4)


def run(
    settings: Fig9Settings = Fig9Settings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Average user energy and delay under TSAJS over the beta sweep."""
    scheduler = make_tsajs(settings.chain_length, settings.min_temperature)
    seeds = default_seeds(settings.n_seeds)

    headers = ["users", "beta_time", "avg energy [J]", "avg delay [s]"]
    rows: List[List[str]] = []
    raw: dict = {"panels": []}
    for n_users in settings.user_counts:
        panel = {
            "n_users": n_users,
            "beta_time_values": list(settings.beta_time_values),
            "energy": [],
            "delay": [],
        }
        for beta_time in settings.beta_time_values:
            config = SimulationConfig(
                n_users=n_users,
                workload_megacycles=settings.workload_megacycles,
                beta_time=beta_time,
            )
            result = sweep.run(config, [scheduler], seeds)
            energy_stat = summarize(result.mean_energies(scheduler.name))
            delay_stat = summarize(result.mean_times(scheduler.name))
            panel["energy"].append(energy_stat)
            panel["delay"].append(delay_stat)
            rows.append(
                [
                    str(n_users),
                    f"{beta_time:.2f}",
                    format_stat(energy_stat, precision=4),
                    format_stat(delay_stat, precision=4),
                ]
            )
        raw["panels"].append(panel)

    return ExperimentOutput(
        experiment_id="fig9",
        title="Fig. 9 - Impact of user preferences (TSAJS)",
        headers=headers,
        rows=rows,
        raw=raw,
    )
