"""Name-to-scheduler registry for the CLI and user scripts.

Maps the scheme names used throughout the paper (and this library's
extensions) to constructor callables, with a ``quick`` knob for the
annealer-based schemes and ``use_delta`` / ``use_batch`` knobs selecting
the evaluation path of the TSAJS variants (delta by default; the scalar
oracle with ``use_delta=False``; all bitwise-equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.baselines import (
    AllLocalScheduler,
    ExhaustiveScheduler,
    GeneticScheduler,
    GreedyScheduler,
    HJtoraScheduler,
    LocalSearchScheduler,
    RandomScheduler,
)
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import DEFAULT_BATCH_SIZE, Scheduler, TsajsScheduler
from repro.core.sharding import (
    DEFAULT_CLUSTER_RADIUS_KM,
    DEFAULT_RECONCILE_ROUNDS,
    ShardedScheduler,
)
from repro.errors import ConfigurationError
from repro.extensions.power_control import TsajsWithPowerControl

#: Stop temperature used by annealer-based schemes in quick mode.
QUICK_MIN_TEMPERATURE = 1e-2


@dataclass(frozen=True)
class SchemeOptions:
    """Construction knobs shared by every scheme factory.

    ``quick`` shortens the annealing schedule; ``use_delta``,
    ``use_batch`` and ``batch_size`` pick the evaluation path of the
    TSAJS variants (see :class:`~repro.core.scheduler.TsajsScheduler`,
    which checks them); ``cluster_radius_km``,
    ``interference_radius_km`` and ``max_reconcile_rounds`` configure
    ``TSAJS-Shard`` (see :class:`~repro.core.sharding.ShardedScheduler`).
    Schemes that do not use a knob ignore it.
    """

    quick: bool = False
    use_delta: Optional[bool] = None
    use_batch: bool = False
    batch_size: int = DEFAULT_BATCH_SIZE
    cluster_radius_km: float = DEFAULT_CLUSTER_RADIUS_KM
    interference_radius_km: Optional[float] = None
    max_reconcile_rounds: int = DEFAULT_RECONCILE_ROUNDS


def _annealing(quick: bool) -> AnnealingSchedule:
    return AnnealingSchedule(
        min_temperature=QUICK_MIN_TEMPERATURE if quick else 1e-9
    )


#: Scheme name -> factory taking a :class:`SchemeOptions`.
SCHEME_FACTORIES: Dict[str, Callable[[SchemeOptions], Scheduler]] = {
    "TSAJS": lambda opts: TsajsScheduler(
        schedule=_annealing(opts.quick),
        use_delta=opts.use_delta,
        use_batch=opts.use_batch,
        batch_size=opts.batch_size,
    ),
    "TSAJS-Shard": lambda opts: ShardedScheduler(
        cluster_radius_km=opts.cluster_radius_km,
        interference_radius_km=opts.interference_radius_km,
        max_reconcile_rounds=opts.max_reconcile_rounds,
        schedule=_annealing(opts.quick),
        use_delta=opts.use_delta,
        use_batch=opts.use_batch,
        batch_size=opts.batch_size,
    ),
    "hJTORA": lambda opts: HJtoraScheduler(),
    "LocalSearch": lambda opts: LocalSearchScheduler(),
    "Greedy": lambda opts: GreedyScheduler(),
    "Exhaustive": lambda opts: ExhaustiveScheduler(),
    "GA": lambda opts: GeneticScheduler(generations=20 if opts.quick else 80),
    "TSAJS-PC": lambda opts: TsajsWithPowerControl(
        schedule=_annealing(opts.quick),
        use_delta=opts.use_delta,
        use_batch=opts.use_batch,
        batch_size=opts.batch_size,
    ),
    "AllLocal": lambda opts: AllLocalScheduler(),
    "Random": lambda opts: RandomScheduler(samples=10),
}


def available_schemes() -> List[str]:
    """All registered scheme names, in display order."""
    return list(SCHEME_FACTORIES.keys())


def build_schemes(names: List[str], **options: Any) -> List[Scheduler]:
    """Instantiate schedulers for the given scheme names.

    ``options`` are :class:`SchemeOptions` fields.  Raises
    :class:`ConfigurationError` for unknown or duplicate names.
    """
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheme names: {names}")
    opts = SchemeOptions(**options)
    schedulers = []
    for name in names:
        try:
            factory = SCHEME_FACTORIES[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
            ) from None
        schedulers.append(factory(opts))
    return schedulers
