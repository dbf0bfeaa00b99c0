"""Shared helpers for the experiment drivers.

All figures compare the same scheme set (TSAJS, hJTORA, LocalSearch,
Greedy — plus Exhaustive on the small network), built here with one knob
for the annealer's chain length ``L`` (the paper sweeps L in Figs. 4, 7
and 8) and one for the stopping temperature (used by the ``quick()``
presets so CI does not pay the full 1e-9 cool-down on every point).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines import (
    ExhaustiveScheduler,
    GreedyScheduler,
    HJtoraScheduler,
    LocalSearchScheduler,
)
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import Scheduler, TsajsScheduler

#: Scheme display order used by every comparison figure.
SCHEME_ORDER = ("Exhaustive", "TSAJS", "hJTORA", "LocalSearch", "Greedy")


def make_tsajs(
    chain_length: int = 30,
    min_temperature: float = 1e-9,
    use_delta: Optional[bool] = None,
) -> TsajsScheduler:
    """A TSAJS instance with the paper's schedule except ``L``/``T_min``.

    Moves are scored with the incremental evaluator unless
    ``use_delta=False`` selects the scalar oracle; the results are bit
    for bit the same either way.
    """
    return TsajsScheduler(
        schedule=AnnealingSchedule(
            chain_length=chain_length, min_temperature=min_temperature
        ),
        use_delta=use_delta,
    )


def standard_schedulers(
    chain_length: int = 30,
    min_temperature: float = 1e-9,
    include_exhaustive: bool = False,
    use_delta: Optional[bool] = None,
) -> List[Scheduler]:
    """The paper's comparison set, in :data:`SCHEME_ORDER`."""
    schedulers: List[Scheduler] = []
    if include_exhaustive:
        schedulers.append(ExhaustiveScheduler())
    schedulers.extend(
        [
            make_tsajs(chain_length, min_temperature, use_delta=use_delta),
            HJtoraScheduler(),
            LocalSearchScheduler(),
            GreedyScheduler(),
        ]
    )
    return schedulers


def default_seeds(n_seeds: int, base: int = 2025) -> List[int]:
    """Deterministic seed list shared by all drivers."""
    return [base + i for i in range(n_seeds)]


def scheme_names(schedulers: Sequence[Scheduler]) -> List[str]:
    return [s.name for s in schedulers]
