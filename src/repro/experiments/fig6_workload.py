"""Fig. 6 — system utility versus task workload at fixed user counts.

Two panels, U = 50 and U = 90, sweeping the computational workload
``w_u`` on the default network.

Expected shape: "the average system utility of all schemes increases
continuously with the increase in task workload" — heavier tasks make
local execution slower/costlier while the upload cost stays fixed, so the
relative offloading gain grows for every scheme, with TSAJS on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import default_seeds, standard_schedulers
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep


@dataclass(frozen=True)
class Fig6Settings:
    """Sweep settings for the workload figure."""

    user_counts: Sequence[int] = (50, 90)
    workloads_megacycles: Sequence[float] = (500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    chain_length: int = 30
    n_seeds: int = 5
    min_temperature: float = 1e-9

    @classmethod
    def quick(cls) -> "Fig6Settings":
        return cls(
            user_counts=(50,),
            workloads_megacycles=(500.0, 3000.0),
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "Fig6Settings":
        return cls(n_seeds=3, min_temperature=1e-4)


def run(
    settings: Fig6Settings = Fig6Settings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Average system utility per scheme over workload sweeps."""
    schedulers = standard_schedulers(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
    )
    names = [s.name for s in schedulers]
    seeds = default_seeds(settings.n_seeds)

    headers = ["users", "w [Mc]"] + names
    rows: List[List[str]] = []
    raw: dict = {"panels": []}
    for n_users in settings.user_counts:
        panel = {
            "n_users": n_users,
            "workloads": list(settings.workloads_megacycles),
            "series": {n: [] for n in names},
        }
        for workload in settings.workloads_megacycles:
            config = SimulationConfig(
                n_users=n_users, workload_megacycles=workload
            )
            result = sweep.run(config, schedulers, seeds)
            row = [str(n_users), f"{workload:.0f}"]
            for name in names:
                stat = result.utility_summary(name)
                row.append(format_stat(stat, precision=3))
                panel["series"][name].append(stat)
            rows.append(row)
        raw["panels"].append(panel)

    return ExperimentOutput(
        experiment_id="fig6",
        title="Fig. 6 - Average system utility vs task workload (fixed users)",
        headers=headers,
        rows=rows,
        raw=raw,
    )
