"""Fig. 8 — average computation time versus the number of sub-channels.

Two panels, chain lengths L in {10, 50}, same sub-channel sweep as Fig. 7
but reporting each scheme's scheduling wall-clock time.  The panels are
interleaved (N outer, L inner) so a cross-panel comparison is not
confounded by host drift between two back-to-back sweeps.

Expected shape: "with the increase in the number of sub-channels, the
average computation time also extends, attributed to the expansion of the
search scope.  Notably, the computation time of the hJTORA scheme
increases more significantly, while the average computation time of the
LocalSearch and Greedy schemes remains relatively stable."  hJTORA's
steepest-ascent rounds each scan all U*S*N single-user moves, so its cost
scales directly with N; LocalSearch and Greedy use a fixed search budget.

The wall times plotted here originate in the schedulers themselves, which
time their runs with :class:`repro.obs.clock.Stopwatch` (the repo-wide
clock seam) rather than ad-hoc ``time.perf_counter()`` calls; this module
only aggregates them.  Under ``tsajs run --telemetry`` each sweep point
additionally opens an ``experiment.point`` span, so a trace shows where a
slow sweep spends its time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import default_seeds, standard_schedulers
from repro.experiments.report import ExperimentOutput, format_stat
from repro.obs.recorder import get_recorder
from repro.sim.config import SimulationConfig
from repro.sim.runner import Sweep


@dataclass(frozen=True)
class Fig8Settings:
    """Sweep settings for the computation-time figure."""

    subchannel_counts: Sequence[int] = (1, 2, 3, 5, 10, 20, 30, 50)
    chain_lengths: Sequence[int] = (10, 50)
    n_users: int = 50
    workload_megacycles: float = 1000.0
    n_seeds: int = 3
    min_temperature: float = 1e-9

    @classmethod
    def quick(cls) -> "Fig8Settings":
        return cls(
            subchannel_counts=(2, 10),
            chain_lengths=(10,),
            n_users=20,
            n_seeds=2,
            min_temperature=1e-2,
        )

    @classmethod
    def reference(cls) -> "Fig8Settings":
        return cls(
            subchannel_counts=(1, 2, 5, 10, 20, 30),
            chain_lengths=(10, 50),
            n_users=40,
            # Ten seeds per point: with two, each 95 % CI used t(1) = 12.7
            # and many half-widths exceeded their means.
            n_seeds=10,
            min_temperature=1e-4,
        )


def run(
    settings: Fig8Settings = Fig8Settings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Average scheduling wall time per scheme over the sub-channel sweep."""
    seeds = default_seeds(settings.n_seeds)
    rec = get_recorder()
    headers: List[str] = ["L", "N"]
    rows: List[List[str]] = []
    raw: dict = {"panels": []}

    # Both chain-length panels run inside one loop over N, so host speed
    # drift during the sweep lands on both panels alike; the rows are
    # still rendered L-major.
    panels = {
        chain_length: standard_schedulers(
            chain_length=chain_length,
            min_temperature=settings.min_temperature,
        )
        for chain_length in settings.chain_lengths
    }
    names = [s.name for s in next(iter(panels.values()))]
    headers = headers + [f"{n} [s]" for n in names]
    cells: dict = {}
    for n_subbands in settings.subchannel_counts:
        config = SimulationConfig(
            n_users=settings.n_users,
            n_subbands=n_subbands,
            workload_megacycles=settings.workload_megacycles,
        )
        for chain_length, schedulers in panels.items():
            with rec.span(
                "experiment.point",
                experiment="fig8",
                chain_length=chain_length,
                n_subbands=n_subbands,
            ):
                result = sweep.run(config, schedulers, seeds)
            cells[chain_length, n_subbands] = [
                result.wall_time_summary(name) for name in names
            ]
    for chain_length in settings.chain_lengths:
        panel = {
            "chain_length": chain_length,
            "subchannel_counts": list(settings.subchannel_counts),
            "series": {n: [] for n in names},
        }
        for n_subbands in settings.subchannel_counts:
            row = [str(chain_length), str(n_subbands)]
            for name, stat in zip(names, cells[chain_length, n_subbands]):
                row.append(format_stat(stat, precision=4))
                panel["series"][name].append(stat)
            rows.append(row)
        raw["panels"].append(panel)

    return ExperimentOutput(
        experiment_id="fig8",
        title="Fig. 8 - Average computation time vs number of sub-channels",
        headers=headers,
        rows=rows,
        raw=raw,
    )
