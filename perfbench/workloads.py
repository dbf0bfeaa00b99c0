"""The three workloads: what they feed the program and how they check it.

Every workload is a closed loop with one caller: the next operation
starts only after the previous one returned.  Inputs derive from the
workload seed alone; the program only ever receives the generated
instances (a ``SimulationConfig`` plus instance seeds, exactly what a
``tsajs run`` sweep hands it).

* ``solve-paper`` — default ``TsajsScheduler()`` solves at the paper's
  scale (U=40, S=5, N=20), scalar evaluation rung, one distinct instance
  per operation.
* ``solve-metro`` — ``TSAJS-Shard`` (quick schedule, 2 km tiles) at
  S=16, U=160, N=3: four clusters plus boundary reconciliation.
* ``sweep-cache`` — the ``fig4 --quick`` comparison set through
  ``run_schemes(..., journal=ResultCache(dir))`` on the serial executor:
  one cold pass (compute and write) then warm passes (read only).

Instances come from a fixed catalog recorded in ``reference_utility.json``
with the utility every cell reached when the catalog was made; the
workload seed picks the order in which a run draws them.  ``utility_mean``
compares a run's utilities with those recorded constants, so a change
that moves every scheme's utility alike still shows.

A solve workload's operation is one *sweep cell*: the solve, its
``SolutionMetrics`` and the cache write, which is the runner's per-seed
work unit minus the scenario build (done at set-up).  After the timed
loop the solved cells are read back through ``run_schemes``, which gives
the solve workloads a warm-sweep figure too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from perfbench import calibration
from repro.baselines import GreedyScheduler
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import Scheduler, TsajsScheduler
from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.common import standard_schedulers
from repro.experiments.persistence import code_fingerprint
from repro.experiments.schemes import build_schemes
from repro.sim import metrics as sim_metrics
from repro.sim import runner
from repro.sim.config import SimulationConfig
from repro.sim.executors.serial import SerialExecutor
from repro.sim.metrics import SolutionMetrics
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

#: RNG stream of the scheduler at index 0 in ``run_schemes``; solving a
#: cell with it reproduces the sweep's result for that seed exactly.
SCHEDULER_STREAM = 100
#: Stream of the Greedy reference solve that screens out degenerate
#: instances (unused by Greedy today, fixed so that stays true).
REFERENCE_STREAM = 99
#: Instance catalog with the recorded utility of every cell
#: (written by ``perfbench/reference.py``).
CATALOG_PATH = Path(__file__).resolve().parent / "reference_utility.json"


def non_degenerate(scenario: Scenario, seed: int) -> bool:
    """Whether a Greedy reference solve offloads someone with utility > 0.

    A degenerate instance has an all-local optimum: timing a solver on
    it would time a solver that has nothing to schedule.
    """
    ref = GreedyScheduler().schedule(scenario, child_rng(seed, REFERENCE_STREAM))
    return ref.utility > 0.0 and ref.decision.n_offloaded() > 0


def load_catalog(name: str) -> Dict[str, List[float]]:
    """The workload's instance seeds (in catalog order) -> recorded utilities."""
    return json.loads(CATALOG_PATH.read_text(encoding="utf-8"))[name]


@contextlib.contextmanager
def timing_calls(cls: type, name: str, sink: List[Tuple[int, float]]) -> Iterator[None]:
    """Time every ``cls.name(scenario, ...)`` call from outside the program.

    Appends ``(scenario.n_users, seconds)`` per call to ``sink`` while the
    context is open, then restores the method.
    """
    original = cls.__dict__[name]

    @functools.wraps(original)
    def timed(self, scenario, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(self, scenario, *args, **kwargs)
        finally:
            sink.append((scenario.n_users, time.perf_counter() - t0))

    setattr(cls, name, timed)
    try:
        yield
    finally:
        setattr(cls, name, original)


def metrics_equal(a: SolutionMetrics, b: SolutionMetrics) -> bool:
    """Equality that treats the NaN of an all-local solution as equal."""
    for f in dataclasses.fields(SolutionMetrics):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x != y and not (isinstance(x, float) and math.isnan(x) and math.isnan(y)):
            return False
    return True


def same_metrics(a: Sequence[SolutionMetrics], b: Sequence[SolutionMetrics]) -> bool:
    return len(a) == len(b) and all(metrics_equal(x, y) for x, y in zip(a, b))


def without_wall_time(m: SolutionMetrics) -> SolutionMetrics:
    return dataclasses.replace(m, wall_time_s=0.0, reschedule_wall_time_s=0.0)


class CountingCache(ResultCache):
    """``ResultCache`` that counts seed lookups and hits (the hit-ratio check)."""

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.lookups = 0
        self.hits = 0

    def lookup_seed(self, config, schedulers, seed):  # type: ignore[override]
        found = super().lookup_seed(config, schedulers, seed)
        self.lookups += 1
        self.hits += found is not None
        return found


@dataclass
class Instance:
    """One instance seed with its scenario per config and recorded utilities."""

    seed: int
    scenarios: List[Scenario]
    #: Catalog utility of every cell of this instance, in ``cells`` order.
    reference: List[float]


@dataclass
class Timing:
    """One calibrated sample: raw seconds and the kernel around them."""

    raw_s: float
    kernel_s: float

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * calibration.K_NOMINAL / self.kernel_s


@dataclass
class OpResult:
    """What one operation measured and whether its checks passed."""

    ok: bool
    solve: List[Timing] = field(default_factory=list)
    cold: List[Timing] = field(default_factory=list)
    warm: List[Timing] = field(default_factory=list)
    #: Utility of every cell solved, and the catalog's utility of each.
    utilities: List[float] = field(default_factory=list)
    reference: List[float] = field(default_factory=list)
    #: Comparable output (for traced-vs-untraced equality).
    fingerprint: object = None
    #: Op duration in raw seconds (root of the per-layer accounting).
    raw_s: float = 0.0
    kernel_s: float = 0.0
    bytes_written: int = 0
    #: Evaluations the solver reported (solve workloads).
    evaluations: int = 0
    problems: List[str] = field(default_factory=list)


class Workload:
    """Interface shared by the three workloads."""

    name: str
    #: The configs every instance is built under.
    configs: List[SimulationConfig]
    #: Operations always run, whatever ``--seconds`` says; utility_mean
    #: averages exactly these so it is deterministic per seed.
    min_ops: int
    #: Catalog instances made when the catalog is written (an upper
    #: bound on operations).
    catalog_size: int

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.rejected = 0
        #: Scenario builds at set-up and the seconds they took.
        self.builds = 0
        self.build_s = 0.0
        #: Per-layer clock of a traced run; brackets each timed region.
        self.layers = None

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def available(self) -> int:
        """Operations the set-up pool can feed."""
        raise NotImplementedError

    def _begin(self) -> None:
        if self.layers is not None:
            self.layers.enter("harness")

    def _end(self) -> None:
        if self.layers is not None:
            self.layers.exit()

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def cells(self, seed: int) -> List[float]:
        """Utility of every cell of instance ``seed``, solved as an op does
        (what the catalog records)."""
        raise NotImplementedError

    def _instances(self, seed: int) -> List[Instance]:
        """The catalog instances in the workload seed's order, each built
        under every config and kept only if non-degenerate under all."""
        catalog = load_catalog(self.name)
        keys = list(catalog)
        out: List[Instance] = []
        for i in np.random.default_rng(seed).permutation(len(keys)):
            s = int(keys[i])
            t0 = time.perf_counter()
            scenarios = [Scenario.build(c, seed=s) for c in self.configs]
            self.build_s += time.perf_counter() - t0
            self.builds += len(self.configs)
            if all(non_degenerate(sc, s) for sc in scenarios):
                out.append(Instance(s, scenarios, catalog[keys[i]]))
            else:
                self.rejected += 1
        return out


class SolveWorkload(Workload):
    """Repeated single-scheduler solves, one distinct instance per operation.

    Once the first ``warm_cells`` cells are cold, every operation also
    times a block of warm reads of exactly those cells through
    ``run_schemes``, so the warm figure has a fixed shape and is sampled
    across the run.  ``warm_cells <= min_ops``, so every run times at
    least one warm block.
    """

    def __init__(
        self,
        workdir: Path,
        name: str,
        config: SimulationConfig,
        make_scheduler: Callable[[], Scheduler],
        min_ops: int,
        catalog_size: int,
        warm_cells: int,
        warm_reads: int,
    ) -> None:
        super().__init__(workdir)
        self.name = name
        self.config = config
        self.configs = [config]
        self.scheduler = make_scheduler()
        self.min_ops = min_ops
        self.catalog_size = catalog_size
        self.warm_cells = warm_cells
        #: Cell reads per timed warm block (about 0.2-0.3 s of reads).
        self.warm_reads = warm_reads

    def cells(self, seed: int) -> List[float]:
        scenario = Scenario.build(self.config, seed=seed)
        return [self.scheduler.schedule(scenario, child_rng(seed, SCHEDULER_STREAM)).utility]

    def setup(self, seed: int) -> None:
        self.instances = self._instances(seed)
        self.cache = CountingCache(Path(tempfile.mkdtemp(dir=self.workdir)))
        self.cold: Dict[int, SolutionMetrics] = {}

    def available(self) -> int:
        return len(self.instances)

    def op(self, index: int) -> OpResult:
        inst = self.instances[index]
        scenario = inst.scenarios[0]
        rng = child_rng(inst.seed, SCHEDULER_STREAM)
        k0 = calibration.bracket()
        t0 = time.perf_counter()
        self._begin()
        result = self.scheduler.schedule(scenario, rng)
        t1 = time.perf_counter()
        metrics = sim_metrics.solution_metrics(scenario, result)
        self.cache.record_seed(self.config, [self.scheduler], inst.seed, [metrics])
        self._end()
        t2 = time.perf_counter()
        k = 0.5 * (k0 + calibration.bracket())
        self.cold[inst.seed] = metrics
        # Entry layout documented by ResultCache: root/<key[:2]>/<key>.json.
        key = cell_key(self.config, self.scheduler, inst.seed)
        bytes_written = (self.cache.root / key[:2] / f"{key}.json").stat().st_size
        problems = []
        if not result.decision.is_feasible():
            problems.append(f"seed {inst.seed}: decision infeasible")
        recomputed = ObjectiveEvaluator(scenario).evaluate(result.decision)
        if recomputed != result.utility:
            problems.append(
                f"seed {inst.seed}: utility {result.utility!r} != re-evaluated {recomputed!r}"
            )
        if not result.utility > 0.0:
            problems.append(f"seed {inst.seed}: utility {result.utility!r} <= 0")
        out = OpResult(
            ok=False,
            solve=[Timing(t1 - t0, k)],
            cold=[Timing(t2 - t0, k)],
            utilities=[result.utility],
            reference=inst.reference,
            fingerprint=(
                result.utility,
                result.decision.server.tobytes(),
                result.decision.channel.tobytes(),
            ),
            raw_s=t2 - t0,
            kernel_s=k,
            evaluations=result.evaluations,
            bytes_written=bytes_written,
            problems=problems,
        )
        if index + 1 >= self.warm_cells:
            self._warm_block(out)
        out.ok = not out.problems
        return out

    def _warm_block(self, out: OpResult) -> None:
        """Time warm reads of the first ``warm_cells`` cells; check them."""
        seeds = [inst.seed for inst in self.instances[: self.warm_cells]]
        expected = [self.cold[s] for s in seeds]
        passes = max(1, self.warm_reads // len(seeds))
        lookups, hits = self.cache.lookups, self.cache.hits
        k0 = calibration.bracket()
        t0 = time.perf_counter()
        self._begin()
        got = [
            runner.run_schemes(
                self.config, [self.scheduler], seeds, journal=self.cache,
                executor=SerialExecutor(),
            ).metrics[self.scheduler.name]
            for _ in range(passes)
        ]
        self._end()
        t1 = time.perf_counter()
        k = 0.5 * (k0 + calibration.bracket())
        out.warm.append(Timing((t1 - t0) / (passes * len(seeds)), k))
        out.raw_s += t1 - t0
        n_lookups = self.cache.lookups - lookups
        if self.cache.hits - hits != n_lookups or n_lookups != passes * len(seeds):
            out.problems.append("warm sweep missed the cache")
        if not all(same_metrics(cell, expected) for cell in got):
            out.problems.append("warm sweep differs from its cold cells")


class SweepWorkload(Workload):
    """``fig4 --quick`` passes through the result cache: cold, then warm.

    ``solve_p50_s``/``solve_tail_s`` come from the TSAJS solves at
    ``solve_users`` users inside the cold passes, timed from outside.
    """

    name = "sweep-cache"
    user_counts = (10, 30)
    solve_users = 30
    seeds_per_pass = 2
    workload_megacycles = 1000.0
    #: Warm passes timed as one block after each cold pass.
    warm_passes = 40
    min_ops = 6
    catalog_size = 48

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.schedulers = standard_schedulers(chain_length=10, min_temperature=1e-2)
        self.names = [s.name for s in self.schedulers]
        self.configs = [
            SimulationConfig(n_users=u, workload_megacycles=self.workload_megacycles)
            for u in self.user_counts
        ]

    def cells(self, seed: int) -> List[float]:
        """Config-major, then scheme, as :meth:`op` lists an instance's cells."""
        out = []
        for config in self.configs:
            result = runner.run_schemes(config, self.schedulers, [seed], executor=SerialExecutor())
            out.extend(result.metrics[name][0].system_utility for name in self.names)
        return out

    def setup(self, seed: int) -> None:
        accepted = self._instances(seed)
        self.passes = [
            accepted[i : i + self.seeds_per_pass]
            for i in range(0, len(accepted) - self.seeds_per_pass + 1, self.seeds_per_pass)
        ]
        # Memoized once per process; a user's first sweep pays it too,
        # but it is set-up, not per-pass work.
        code_fingerprint()

    def available(self) -> int:
        return len(self.passes)

    def _sweep(self, seeds: Sequence[int], cache: ResultCache) -> List[List[SolutionMetrics]]:
        """One pass over the grid, summarised per scheme as the figure does."""
        out = []
        for config in self.configs:
            result = runner.run_schemes(
                config, self.schedulers, seeds, journal=cache, executor=SerialExecutor()
            )
            for name in self.names:
                result.utility_summary(name)
            out.append([m for name in self.names for m in result.metrics[name]])
        return out

    def op(self, index: int) -> OpResult:
        seeds = [inst.seed for inst in self.passes[index]]
        root = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            cache = CountingCache(root)
            solves: List[Tuple[int, float]] = []
            k0 = calibration.bracket()
            with timing_calls(TsajsScheduler, "schedule", solves):
                t0 = time.perf_counter()
                self._begin()
                cold = self._sweep(seeds, cache)
                self._end()
                t1 = time.perf_counter()
            k_cold = 0.5 * (k0 + calibration.bracket())
            bytes_written = sum(p.stat().st_size for p in root.rglob("*.json"))
            problems = []
            if cache.hits:
                problems.append(f"pass {index}: cold pass hit an empty cache")
            cold_lookups = cache.lookups
            k0 = calibration.bracket()
            t2 = time.perf_counter()
            self._begin()
            warm = [self._sweep(seeds, cache) for _ in range(self.warm_passes)]
            self._end()
            t3 = time.perf_counter()
            k_warm = 0.5 * (k0 + calibration.bracket())
            if cache.hits != cache.lookups - cold_lookups:
                problems.append(f"pass {index}: warm pass missed the cache")
            if not all(
                same_metrics(passed[c], cold[c]) for passed in warm for c in range(len(cold))
            ):
                problems.append(f"pass {index}: warm pass differs from cold")
            # cold[c] is scheme-major: scheme i on seed j sits at i * n + j.
            n = len(seeds)
            utilities = [
                cold[c][i * n + j].system_utility
                for j in range(n)
                for c in range(len(self.configs))
                for i in range(len(self.names))
            ]
            flat_cold = [m for cell in cold for m in cell]
            return OpResult(
                ok=not problems,
                solve=[Timing(s, k_cold) for users, s in solves if users == self.solve_users],
                cold=[Timing(t1 - t0, k_cold)],
                warm=[Timing((t3 - t2) / self.warm_passes, k_warm)],
                utilities=utilities,
                reference=[u for inst in self.passes[index] for u in inst.reference],
                fingerprint=[repr(without_wall_time(m)) for m in flat_cold],
                raw_s=(t1 - t0) + (t3 - t2),
                kernel_s=0.5 * (k_cold + k_warm),
                bytes_written=bytes_written,
                problems=problems,
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)


PAPER_CONFIG = SimulationConfig(n_users=40, n_servers=5, n_subbands=20)
METRO_CONFIG = SimulationConfig(n_users=160, n_servers=16, n_subbands=3)


def make(name: str, workdir: Path) -> Workload:
    """The named workload, ready for :meth:`Workload.setup`."""
    if name == "solve-paper":
        return SolveWorkload(
            workdir, name, PAPER_CONFIG, TsajsScheduler, min_ops=12, catalog_size=32,
            warm_cells=12, warm_reads=480,
        )
    if name == "solve-metro":
        return SolveWorkload(
            workdir,
            name,
            METRO_CONFIG,
            lambda: build_schemes(["TSAJS-Shard"], quick=True)[0],
            min_ops=4,
            catalog_size=12,
            warm_cells=2,
            warm_reads=1000,
        )
    if name == "sweep-cache":
        return SweepWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("solve-paper", "solve-metro", "sweep-cache")
