"""Fig. 3 — suboptimality of TSAJS on the small network.

"We conducted experiments in a smaller network environment consisting of
U = 6 users evenly distributed within the coverage of S = 4 cells, each
equipped with N = 2 sub-bands.  With user task loads w_u set at 1000,
2000, 3000, and 4000 Megacycles respectively, we calculated the
corresponding average system utility for each scheme and provided the 95%
confidence interval."

Expected shape: TSAJS almost matches the exhaustive optimum and beats
hJTORA / LocalSearch / Greedy by small margins (the paper reports ~0.9 %,
1.49 % and 4.14 % average improvements); utility grows with the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import default_seeds, standard_schedulers
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import small_network_config
from repro.sim.runner import Sweep


@dataclass(frozen=True)
class Fig3Settings:
    """Sweep settings; defaults follow the paper."""

    workloads_megacycles: Sequence[float] = (1000.0, 2000.0, 3000.0, 4000.0)
    n_seeds: int = 10
    include_exhaustive: bool = True
    chain_length: int = 30
    min_temperature: float = 1e-9

    @classmethod
    def quick(cls) -> "Fig3Settings":
        """Reduced preset for CI and smoke runs."""
        return cls(
            workloads_megacycles=(1000.0, 4000.0),
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "Fig3Settings":
        """Denser than quick(), lighter than the paper: the results/ scale."""
        return cls(n_seeds=5, min_temperature=1e-6)


def run(
    settings: Fig3Settings = Fig3Settings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Average system utility per scheme over the workload sweep."""
    schedulers = standard_schedulers(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
        include_exhaustive=settings.include_exhaustive,
    )
    names = [s.name for s in schedulers]
    seeds = default_seeds(settings.n_seeds)

    headers = ["workload [Mc]"] + names
    rows: List[List[str]] = []
    raw = {"workloads": list(settings.workloads_megacycles), "series": {n: [] for n in names}}
    for workload in settings.workloads_megacycles:
        config = small_network_config(workload_megacycles=workload)
        result = sweep.run(config, schedulers, seeds)
        row = [f"{workload:.0f}"]
        for name in names:
            stat = result.utility_summary(name)
            row.append(format_stat(stat))
            raw["series"][name].append(stat)
        rows.append(row)

    return ExperimentOutput(
        experiment_id="fig3",
        title=(
            "Fig. 3 - Average system utility, small network "
            "(U=6, S=4, N=2), 95% CI"
        ),
        headers=headers,
        rows=rows,
        raw=raw,
    )
