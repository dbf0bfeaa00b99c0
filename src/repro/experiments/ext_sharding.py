"""Extension experiment — utility gap of spatial sharding vs cluster radius.

For each cluster radius, every seed's scenario is solved twice: once by
the global TSAJS annealer and once by the spatially sharded solver
(:class:`~repro.core.sharding.ShardedScheduler`) under that radius.  The
reported quantity is the **relative utility gap**
``(global - sharded) / |global|`` averaged over seeds, next to the mean
cluster count the radius induces — the quality side of the
quality-vs-cost trade the radius knob controls.  The largest radius in
the sweep collapses the partition to a single cluster, where the sharded
solve is bitwise identical to the global one and the gap is exactly
zero, anchoring the table.

The driver is cache-aware: with a result cache in its :class:`Sweep`
(``tsajs run --cache DIR``) every completed (scheme, seed) cell is
checkpointed under a :func:`~repro.experiments.cache.digest_key` and a
resumed run recomputes only the missing cells.  The global solve is
radius-independent, so it is cached once under its own digest and
reused by every radius row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.annealing import AnnealingSchedule
from repro.core.partition import partition_scenario
from repro.core.scheduler import TsajsScheduler
from repro.core.sharding import ShardedScheduler
from repro.experiments.cache import digest_key
from repro.experiments.common import default_seeds
from repro.experiments.persistence import sweep_digest
from repro.experiments.report import ExperimentOutput
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SolutionMetrics, solution_metrics
from repro.sim.rng import child_rng
from repro.sim.runner import Sweep
from repro.sim.scenario import Scenario
from repro.sim.stats import summarize


@dataclass(frozen=True)
class ExtShardingSettings:
    """Settings for the sharding gap-vs-radius sweep."""

    #: Grid-tile sides to sweep; the last collapses to one cluster.
    cluster_radii_km: Sequence[float] = (0.75, 1.5, 3.0, 1000.0)
    interference_radius_km: float = 1.0
    max_reconcile_rounds: int = 2
    n_users: int = 30
    n_servers: int = 9
    n_subbands: int = 3
    chain_length: int = 40
    min_temperature: float = 1e-3
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "ExtShardingSettings":
        return cls(
            cluster_radii_km=(1.2, 1000.0),
            n_users=8,
            chain_length=10,
            min_temperature=1e-1,
            n_seeds=2,
        )

    @classmethod
    def reference(cls) -> "ExtShardingSettings":
        return cls()


def run(
    settings: ExtShardingSettings = ExtShardingSettings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Relative utility gap and cluster count per cluster radius."""
    seeds = default_seeds(settings.n_seeds)
    journal = sweep.journal
    schedule = AnnealingSchedule(
        chain_length=settings.chain_length,
        min_temperature=settings.min_temperature,
    )
    config = SimulationConfig(
        n_users=settings.n_users,
        n_servers=settings.n_servers,
        n_subbands=settings.n_subbands,
    )
    planner = TsajsScheduler(schedule=schedule)

    # The global reference is radius-independent: cache it once.
    global_digest = sweep_digest(
        config, [planner], extra={"experiment": "ext_sharding", "role": "global"}
    )
    global_metrics: Dict[int, SolutionMetrics] = {}
    for seed in seeds:
        key = digest_key(global_digest, "TSAJS", seed)
        hit = journal.get(key) if journal is not None else None
        if hit is None:
            scenario = Scenario.build(config, seed=seed)
            result = planner.schedule(scenario, child_rng(seed, 100))
            hit = solution_metrics(scenario, result)
            if journal is not None:
                journal.put(key, hit)
        global_metrics[seed] = hit

    headers = [
        "cluster radius (km)",
        "clusters",
        "TSAJS utility",
        "TSAJS-Shard utility",
        "gap (%)",
    ]
    rows: List[List[str]] = []
    raw: dict = {
        "cluster_radii_km": list(settings.cluster_radii_km),
        "interference_radius_km": settings.interference_radius_km,
        "n_clusters": [],
        "global_utility": [],
        "sharded_utility": [],
        "gap_percent": [],
    }

    for radius in settings.cluster_radii_km:
        sharder = ShardedScheduler(
            cluster_radius_km=radius,
            interference_radius_km=settings.interference_radius_km,
            max_reconcile_rounds=settings.max_reconcile_rounds,
            schedule=schedule,
        )
        digest = sweep_digest(
            config,
            [sharder],
            extra={"experiment": "ext_sharding", "role": "sharded"},
        )
        samples: List[SolutionMetrics] = []
        cluster_counts: List[float] = []
        gaps: List[float] = []
        for seed in seeds:
            scenario = Scenario.build(config, seed=seed)
            cluster_counts.append(
                float(
                    partition_scenario(
                        scenario, radius, settings.interference_radius_km
                    ).n_clusters
                )
            )
            key = digest_key(digest, "TSAJS-Shard", seed)
            hit = journal.get(key) if journal is not None else None
            if hit is None:
                result = sharder.schedule(scenario, child_rng(seed, 100))
                hit = solution_metrics(scenario, result)
                if journal is not None:
                    journal.put(key, hit)
            samples.append(hit)
            reference = global_metrics[seed].system_utility
            gaps.append(
                100.0
                * (reference - hit.system_utility)
                / abs(reference)
            )

        global_stat = summarize(
            [global_metrics[seed].system_utility for seed in seeds]
        )
        shard_stat = summarize([m.system_utility for m in samples])
        gap_stat = summarize(gaps)
        mean_clusters = summarize(cluster_counts).mean
        raw["n_clusters"].append(mean_clusters)
        raw["global_utility"].append(global_stat)
        raw["sharded_utility"].append(shard_stat)
        raw["gap_percent"].append(gap_stat)
        rows.append(
            [
                f"{radius:g}",
                f"{mean_clusters:.1f}",
                f"{global_stat.mean:.4f}",
                f"{shard_stat.mean:.4f}",
                f"{gap_stat.mean:+.2f}",
            ]
        )

    return ExperimentOutput(
        experiment_id="ext_sharding",
        title="Extension - sharded-vs-global utility gap vs cluster radius",
        headers=headers,
        rows=rows,
        raw=raw,
    )
