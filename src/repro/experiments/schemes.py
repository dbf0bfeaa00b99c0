"""Name-to-scheduler registry for the CLI and user scripts.

Maps the scheme names used throughout the paper (and this library's
extensions) to constructor callables, with a ``quick`` knob for the
annealer-based schemes and ``use_delta`` / ``use_batch`` knobs selecting
the evaluation path of the TSAJS variants (delta by default; the scalar
oracle with ``use_delta=False``; all bitwise-equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

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
from repro.core.scheduler import Scheduler, TsajsScheduler, resolve_use_delta
from repro.core.sharding import ShardedScheduler
from repro.errors import ConfigurationError
from repro.extensions.power_control import TsajsWithPowerControl

#: Stop temperature used by annealer-based schemes in quick mode.
QUICK_MIN_TEMPERATURE = 1e-2


@dataclass(frozen=True)
class SchemeOptions:
    """Construction knobs shared by every scheme factory.

    ``quick`` shortens the annealing schedule; ``use_delta`` and
    ``use_batch`` pick the evaluation path for the TSAJS variants
    (``use_delta=None`` means delta unless ``use_batch``; ``False`` is the
    scalar oracle; all bitwise-equal, and ``use_delta=True`` excludes
    ``use_batch``); ``batch_size`` sizes the speculative batches of
    the vectorized path and the parallel-tempering scheme.  Baselines
    without an annealer inner loop ignore the evaluation knobs.

    ``use_sharding`` swaps the TSAJS factory for the spatially sharded
    solver (``TSAJS-Shard`` always builds it); ``cluster_radius_km``,
    ``interference_radius_km`` and ``max_reconcile_rounds`` forward to
    :class:`~repro.core.sharding.ShardedScheduler`.
    """

    quick: bool = False
    use_delta: Optional[bool] = None
    use_batch: bool = False
    batch_size: int = 64
    use_sharding: bool = False
    cluster_radius_km: float = 2.0
    interference_radius_km: Optional[float] = None
    max_reconcile_rounds: int = 2

    def __post_init__(self) -> None:
        resolve_use_delta(self.use_delta, self.use_batch)
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


def _annealing(quick: bool) -> AnnealingSchedule:
    return AnnealingSchedule(
        min_temperature=QUICK_MIN_TEMPERATURE if quick else 1e-9
    )


def _sharded(opts: SchemeOptions) -> ShardedScheduler:
    return ShardedScheduler(
        cluster_radius_km=opts.cluster_radius_km,
        interference_radius_km=opts.interference_radius_km,
        max_reconcile_rounds=opts.max_reconcile_rounds,
        schedule=_annealing(opts.quick),
        use_delta=opts.use_delta,
        use_batch=opts.use_batch,
        batch_size=opts.batch_size,
    )


#: Scheme name -> factory taking a :class:`SchemeOptions`.
SCHEME_FACTORIES: Dict[str, Callable[[SchemeOptions], Scheduler]] = {
    "TSAJS": lambda opts: _sharded(opts)
    if opts.use_sharding
    else TsajsScheduler(
        schedule=_annealing(opts.quick),
        use_delta=opts.use_delta,
        use_batch=opts.use_batch,
        batch_size=opts.batch_size,
    ),
    "TSAJS-Shard": _sharded,
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


def build_schemes(
    names: List[str],
    quick: bool = False,
    use_delta: Optional[bool] = None,
    use_batch: bool = False,
    batch_size: int = 64,
    use_sharding: bool = False,
    cluster_radius_km: float = 2.0,
    interference_radius_km: Optional[float] = None,
    max_reconcile_rounds: int = 2,
) -> List[Scheduler]:
    """Instantiate schedulers for the given scheme names.

    Raises :class:`ConfigurationError` for unknown or duplicate names.
    """
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheme names: {names}")
    opts = SchemeOptions(
        quick=quick,
        use_delta=use_delta,
        use_batch=use_batch,
        batch_size=batch_size,
        use_sharding=use_sharding,
        cluster_radius_km=cluster_radius_km,
        interference_radius_km=interference_radius_km,
        max_reconcile_rounds=max_reconcile_rounds,
    )
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
