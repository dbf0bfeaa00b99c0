"""Fig. 7 — system utility versus the number of sub-channels.

Two panels, chain lengths L in {30, 50}, sweeping the sub-band count N on
the default 9-cell network with a fixed total bandwidth B = 20 MHz.

Expected shape: "As the number of sub-channels increases, the average
system utility demonstrates a trend of first increasing and then
decreasing" — more sub-bands admit more concurrent offloaders, but since
``W = B / N`` shrinks, each user's rate falls and "excessive sub-channels
may lead to channel idleness".  TSAJS leads, especially at large N where
the search space rewards its deeper exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import default_seeds, standard_schedulers
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep


@dataclass(frozen=True)
class Fig7Settings:
    """Sweep settings for the sub-channel utility figure."""

    subchannel_counts: Sequence[int] = (1, 2, 3, 5, 10, 20, 30, 50)
    chain_lengths: Sequence[int] = (30, 50)
    n_users: int = 50
    workload_megacycles: float = 1000.0
    n_seeds: int = 5
    min_temperature: float = 1e-9

    @classmethod
    def quick(cls) -> "Fig7Settings":
        return cls(
            subchannel_counts=(2, 10),
            chain_lengths=(30,),
            n_users=20,
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "Fig7Settings":
        return cls(
            subchannel_counts=(1, 2, 3, 5, 10, 20, 30),
            chain_lengths=(30,),
            n_users=40,
            n_seeds=2,
            min_temperature=1e-4,
        )


def run(
    settings: Fig7Settings = Fig7Settings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Average system utility per scheme over the sub-channel sweep."""
    seeds = default_seeds(settings.n_seeds)
    headers: List[str] = ["L", "N"]
    rows: List[List[str]] = []
    raw: dict = {"panels": []}

    names = None
    for chain_length in settings.chain_lengths:
        schedulers = standard_schedulers(
            chain_length=chain_length,
            min_temperature=settings.min_temperature,
        )
        if names is None:
            names = [s.name for s in schedulers]
            headers = headers + names
        panel = {
            "chain_length": chain_length,
            "subchannel_counts": list(settings.subchannel_counts),
            "series": {n: [] for n in names},
        }
        for n_subbands in settings.subchannel_counts:
            config = SimulationConfig(
                n_users=settings.n_users,
                n_subbands=n_subbands,
                workload_megacycles=settings.workload_megacycles,
            )
            result = sweep.run(config, schedulers, seeds)
            row = [str(chain_length), str(n_subbands)]
            for name in names:
                stat = result.utility_summary(name)
                row.append(format_stat(stat, precision=3))
                panel["series"][name].append(stat)
            rows.append(row)
        raw["panels"].append(panel)

    return ExperimentOutput(
        experiment_id="fig7",
        title="Fig. 7 - Average system utility vs number of sub-channels",
        headers=headers,
        rows=rows,
        raw=raw,
    )
