"""Fig. 5 — system utility versus the task input size.

Sweeps the task input data size ``d_u`` around the paper's default of
420 KB on the default network.

Expected shape: "as the task input size gradually increases, the average
system utility of various schemes exhibits a decreasing trend" — the
upload cost grows linearly with ``d_u`` while the offload gain is fixed,
so larger inputs erode the benefit for every scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import default_seeds, standard_schedulers
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep


@dataclass(frozen=True)
class Fig5Settings:
    """Sweep settings for the data-size figure."""

    data_sizes_kb: Sequence[float] = (100.0, 250.0, 420.0, 600.0, 800.0, 1000.0)
    n_users: int = 30
    workload_megacycles: float = 1000.0
    chain_length: int = 30
    n_seeds: int = 5
    min_temperature: float = 1e-9

    @classmethod
    def quick(cls) -> "Fig5Settings":
        return cls(
            data_sizes_kb=(100.0, 1000.0),
            n_users=15,
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "Fig5Settings":
        return cls(n_seeds=3, min_temperature=1e-4)


def run(
    settings: Fig5Settings = Fig5Settings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Average system utility per scheme over the data-size sweep."""
    schedulers = standard_schedulers(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
    )
    names = [s.name for s in schedulers]
    seeds = default_seeds(settings.n_seeds)

    headers = ["d_u [KB]"] + names
    rows: List[List[str]] = []
    raw = {"data_sizes_kb": list(settings.data_sizes_kb), "series": {n: [] for n in names}}
    for size_kb in settings.data_sizes_kb:
        config = SimulationConfig(
            n_users=settings.n_users,
            workload_megacycles=settings.workload_megacycles,
            input_kb=size_kb,
        )
        result = sweep.run(config, schedulers, seeds)
        row = [f"{size_kb:.0f}"]
        for name in names:
            stat = result.utility_summary(name)
            row.append(format_stat(stat, precision=3))
            raw["series"][name].append(stat)
        rows.append(row)

    return ExperimentOutput(
        experiment_id="fig5",
        title="Fig. 5 - Average system utility vs task data size",
        headers=headers,
        rows=rows,
        raw=raw,
    )
