"""Extension experiment — episodic operation under server outages.

Runs the slot-based operational wrapper (`repro.sim.episodes`) for
several schedulers across a sweep of per-slot server-outage
probabilities, reporting the mean per-slot utility.  The question: how
gracefully does each scheme degrade when infrastructure faults shrink
the usable server set?  TSAJS and hJTORA re-optimise around dead
machines; Greedy's fixed signal-strength rule cannot distinguish a
strong-channel dead server from a live one until the utility check
rejects the placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.baselines import GreedyScheduler, HJtoraScheduler
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import Scheduler, TsajsScheduler
from repro.experiments.common import default_seeds
from repro.experiments.report import ExperimentOutput, format_stat
from repro.sim.config import SimulationConfig
from repro.sim.episodes import EpisodeConfig, run_episode
from repro.sim.runner import Sweep
from repro.sim.stats import summarize


@dataclass(frozen=True)
class ExtEpisodesSettings:
    """Settings for the episodic-outage experiment."""

    outage_probabilities: Sequence[float] = (0.0, 0.1, 0.25, 0.5)
    pool_size: int = 20
    n_slots: int = 10
    n_servers: int = 4
    n_subbands: int = 3
    activity_probability: float = 0.7
    chain_length: int = 30
    min_temperature: float = 1e-3
    n_seeds: int = 3

    @classmethod
    def quick(cls) -> "ExtEpisodesSettings":
        return cls(
            outage_probabilities=(0.0, 0.5),
            pool_size=10,
            n_slots=4,
            n_seeds=2,
            min_temperature=1e-1,
        )

    @classmethod
    def reference(cls) -> "ExtEpisodesSettings":
        return cls(n_seeds=3)


def _schedulers(settings: ExtEpisodesSettings) -> List[Scheduler]:
    return [
        TsajsScheduler(
            schedule=AnnealingSchedule(
                chain_length=settings.chain_length,
                min_temperature=settings.min_temperature,
            )
        ),
        HJtoraScheduler(),
        GreedyScheduler(),
    ]


def run(
    settings: ExtEpisodesSettings = ExtEpisodesSettings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Mean per-slot utility per scheme across outage probabilities.

    ``sweep`` is unused: this driver runs no multi-seed sweep.
    """
    seeds = default_seeds(settings.n_seeds)
    scheduler_names = [s.name for s in _schedulers(settings)]

    headers = ["outage prob"] + [f"{name} J/slot" for name in scheduler_names]
    rows: List[List[str]] = []
    raw: dict = {
        "outage_probabilities": list(settings.outage_probabilities),
        "series": {name: [] for name in scheduler_names},
    }
    for outage in settings.outage_probabilities:
        config = EpisodeConfig(
            base=SimulationConfig(
                n_users=0,
                n_servers=settings.n_servers,
                n_subbands=settings.n_subbands,
            ),
            pool_size=settings.pool_size,
            n_slots=settings.n_slots,
            activity_probability=settings.activity_probability,
            server_outage_probability=outage,
        )
        row = [f"{outage:.2f}"]
        for scheduler in _schedulers(settings):
            means = [
                run_episode(config, scheduler, seed=seed).utility_summary().mean
                for seed in seeds
            ]
            stat = summarize(means)
            raw["series"][scheduler.name].append(stat)
            row.append(format_stat(stat, precision=3))
        rows.append(row)

    return ExperimentOutput(
        experiment_id="ext_episodes",
        title="Extension - episodic operation under server outages",
        headers=headers,
        rows=rows,
        raw=raw,
    )
