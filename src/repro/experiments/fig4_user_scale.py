"""Fig. 4 — system utility versus the number of users.

Six panels: workloads w in {1000, 2000, 3000} Megacycles crossed with
annealer chain lengths L in {10, 30}, each sweeping the user count on the
default 9-cell / 3-sub-band network.

Expected shape: utility first rises with the user base, then saturates or
declines once users contend for the S*N = 27 slots and the per-user
bandwidth; TSAJS stays on top, and with L = 30 it keeps growing where the
baselines flatten ("the TSAJS strategy still achieves continuous growth in
system utility, thanks to its ability to explore better solutions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import default_seeds, standard_schedulers
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep


@dataclass(frozen=True)
class Fig4Settings:
    """Sweep settings; defaults follow the paper's six panels."""

    user_counts: Sequence[int] = (10, 30, 50, 70, 90)
    workloads_megacycles: Sequence[float] = (1000.0, 2000.0, 3000.0)
    chain_lengths: Sequence[int] = (10, 30)
    n_seeds: int = 5
    min_temperature: float = 1e-9

    @classmethod
    def quick(cls) -> "Fig4Settings":
        return cls(
            user_counts=(10, 30),
            workloads_megacycles=(1000.0,),
            chain_lengths=(10,),
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "Fig4Settings":
        return cls(
            user_counts=(10, 30, 50, 70, 90),
            workloads_megacycles=(1000.0, 2000.0, 3000.0),
            chain_lengths=(10, 30),
            n_seeds=3,
            min_temperature=1e-6,
        )


def run(
    settings: Fig4Settings = Fig4Settings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Average system utility per scheme over user-count sweeps."""
    seeds = default_seeds(settings.n_seeds)
    headers = ["w [Mc]", "L", "users"]
    rows: List[List[str]] = []
    raw: dict = {"panels": []}

    names = None
    for workload in settings.workloads_megacycles:
        for chain_length in settings.chain_lengths:
            schedulers = standard_schedulers(
                chain_length=chain_length,
                min_temperature=settings.min_temperature,
            )
            if names is None:
                names = [s.name for s in schedulers]
                headers = headers + names
            panel = {
                "workload": workload,
                "chain_length": chain_length,
                "user_counts": list(settings.user_counts),
                "series": {n: [] for n in names},
            }
            for n_users in settings.user_counts:
                config = SimulationConfig(
                    n_users=n_users, workload_megacycles=workload
                )
                result = sweep.run(config, schedulers, seeds)
                row = [f"{workload:.0f}", str(chain_length), str(n_users)]
                for name in names:
                    stat = result.utility_summary(name)
                    row.append(format_stat(stat, precision=3))
                    panel["series"][name].append(stat)
                rows.append(row)
            raw["panels"].append(panel)

    return ExperimentOutput(
        experiment_id="fig4",
        title="Fig. 4 - Average system utility vs user count (S=9, N=3)",
        headers=headers,
        rows=rows,
        raw=raw,
    )
