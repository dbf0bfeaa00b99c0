"""Ablation — sensitivity to Algorithm 2's move-probability mix.

The paper fixes the neighbourhood branch thresholds at 0.05 (toggle),
0.20 (swap) and 0.75 (server-move vs channel-move) without justification.
This ablation re-runs TSAJS with the mix distorted:

* **paper** — 5 % toggle, 15 % swap, 55 % server move, 25 % channel move;
* **no-swap** — swap mass folded into the move branches;
* **no-toggle** — toggle mass folded into swap (offload set can then only
  shrink/grow via displacement);
* **uniform** — all four move kinds equally likely.

Reported: mean utility per variant on the default network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.annealing import AnnealingSchedule
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.scheduler import TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep


class _NamedTsajs(TsajsScheduler):
    """TSAJS variant with an explicit display name (for the runner)."""

    def __init__(
        self,
        name: str,
        neighborhood: NeighborhoodSampler,
        schedule: AnnealingSchedule,
    ) -> None:
        super().__init__(schedule=schedule, neighborhood=neighborhood)
        self.name = name


#: The ablated neighbourhood mixes (threshold triples).
NEIGHBORHOOD_VARIANTS: Dict[str, NeighborhoodSampler] = {
    "paper": NeighborhoodSampler(),
    "no-swap": NeighborhoodSampler(toggle_below=0.05, swap_below=0.05),
    "no-toggle": NeighborhoodSampler(toggle_below=0.0, swap_below=0.20),
    "uniform": NeighborhoodSampler(
        toggle_below=0.25, swap_below=0.50, server_move_below=0.75
    ),
}


@dataclass(frozen=True)
class AblationNeighborhoodSettings:
    """Settings for the neighbourhood-mix ablation."""

    n_users: int = 30
    workload_megacycles: float = 2000.0
    chain_length: int = 30
    min_temperature: float = 1e-9
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "AblationNeighborhoodSettings":
        return cls(n_users=15, n_seeds=2, min_temperature=1e-2)

    @classmethod
    def reference(cls) -> "AblationNeighborhoodSettings":
        return cls(n_seeds=3, min_temperature=1e-6)


def run(
    settings: AblationNeighborhoodSettings = AblationNeighborhoodSettings(),
    sweep: Sweep = Sweep(),
) -> ExperimentOutput:
    """Compare TSAJS under different neighbourhood move mixes."""
    schedule = AnnealingSchedule(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
    )
    schedulers = [
        _NamedTsajs(name, sampler, schedule)
        for name, sampler in NEIGHBORHOOD_VARIANTS.items()
    ]
    config = SimulationConfig(
        n_users=settings.n_users,
        workload_megacycles=settings.workload_megacycles,
    )
    result = sweep.run(config, schedulers, default_seeds(settings.n_seeds))

    headers = ["variant", "utility"]
    rows: List[List[str]] = []
    raw: dict = {"series": {}}
    for scheduler in schedulers:
        utility = result.utility_summary(scheduler.name)
        raw["series"][scheduler.name] = utility
        rows.append([scheduler.name, format_stat(utility)])

    return ExperimentOutput(
        experiment_id="ablation_neighborhood",
        title="Ablation - Algorithm 2 move-probability mix",
        headers=headers,
        rows=rows,
        raw=raw,
    )
