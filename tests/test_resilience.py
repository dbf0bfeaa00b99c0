"""Tests for the sweep runner's failure policy: fail fast, resume from
the journal.

Exercises :func:`repro.sim.runner.run_schemes`: the first failed seed
re-raises its own exception on both backends, the seeds completed before
it are checkpointed into the result cache, and an interrupted or failed
sweep re-run with the same cache reproduces an uninterrupted run's
metrics exactly.

The fault-injecting schedulers below coordinate across processes through
marker files (the only channel that survives a worker being killed), so
every scenario — crash once, fail one seed forever — is deterministic.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.baselines import GreedyScheduler
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor
from repro.sim.runner import ExperimentResult, Sweep, run_schemes

CONFIG = SimulationConfig(n_users=4, n_servers=2, n_subbands=2)


def _touch_unique(directory: str, prefix: str) -> None:
    fd, _ = tempfile.mkstemp(prefix=prefix, dir=directory)
    os.close(fd)


def _calls(directory: str, prefix: str = "call_") -> int:
    return len([p for p in os.listdir(directory) if p.startswith(prefix)])


@dataclass(frozen=True)
class CountingScheduler:
    """Greedy, plus a marker file per ``schedule`` call (crash-proof)."""

    marker_dir: str
    name: str = "Counting"

    def schedule(self, scenario, rng):
        _touch_unique(self.marker_dir, "call_")
        return GreedyScheduler().schedule(scenario, rng)


@dataclass(frozen=True)
class CrashOnceScheduler:
    """Kills its worker process on the first call ever; clean afterwards.

    ``os._exit`` bypasses every exception handler — exactly what a
    SIGKILL'd or OOM-killed worker looks like to the pool.
    """

    marker_dir: str
    name: str = "CrashOnce"

    def schedule(self, scenario, rng):
        _touch_unique(self.marker_dir, "call_")
        crashed = Path(self.marker_dir) / "crashed"
        if not crashed.exists():
            crashed.touch()
            os._exit(13)
        return GreedyScheduler().schedule(scenario, rng)


@dataclass(frozen=True)
class PoisonScheduler:
    """Raises forever on the scenario whose ``gains[0,0,0]`` matches."""

    poison: float
    name: str = "Poison"

    def schedule(self, scenario, rng):
        if float(scenario.gains[0, 0, 0]) == self.poison:
            raise RuntimeError("poisoned seed")
        return GreedyScheduler().schedule(scenario, rng)


@dataclass(frozen=True)
class AlwaysFailScheduler:
    name: str = "AlwaysFail"

    def schedule(self, scenario, rng):
        raise RuntimeError("this scheduler never works")


def _poison_value(seed: int) -> float:
    from repro.sim.scenario import Scenario

    return float(Scenario.build(CONFIG, seed=seed).gains[0, 0, 0])


def assert_identical_metrics(a: ExperimentResult, b: ExperimentResult) -> None:
    assert a.schemes == b.schemes
    for name in a.schemes:
        assert len(a.metrics[name]) == len(b.metrics[name])
        for x, y in zip(a.metrics[name], b.metrics[name]):
            for fieldname in (f.name for f in dataclasses.fields(type(x))):
                if fieldname == "wall_time_s":
                    continue
                u, v = getattr(x, fieldname), getattr(y, fieldname)
                if isinstance(u, float) and math.isnan(u):
                    assert math.isnan(v), (name, fieldname)
                else:
                    assert u == v, (name, fieldname, u, v)


class TestResultAccessors:
    """Satellite: unknown schemes raise a descriptive error, not KeyError."""

    def _result(self):
        return run_schemes(CONFIG, [GreedyScheduler()], [0, 1])

    def test_unknown_scheme_names_known_ones(self):
        result = self._result()
        with pytest.raises(ConfigurationError, match="known schemes: Greedy"):
            result.utilities("TSAJS")

    @pytest.mark.parametrize(
        "accessor",
        [
            "utilities",
            "wall_times",
            "mean_times",
            "mean_energies",
            "utility_summary",
            "wall_time_summary",
        ],
    )
    def test_every_accessor_validates(self, accessor):
        result = self._result()
        with pytest.raises(ConfigurationError, match="unknown scheme 'nope'"):
            getattr(result, accessor)("nope")

    def test_no_keyerror_leaks(self):
        result = self._result()
        try:
            result.utilities("nope")
        except ConfigurationError:
            pass
        else:  # pragma: no cover - the assertion above must fire
            pytest.fail("expected ConfigurationError")

    def test_empty_result_error_message(self):
        result = ExperimentResult(config=CONFIG, seeds=[0])
        with pytest.raises(ConfigurationError, match="none recorded"):
            result.utilities("Greedy")


class TestResilientSerial:
    def test_default_policy_fails_fast(self):
        with pytest.raises(RuntimeError, match="never works"):
            run_schemes(CONFIG, [AlwaysFailScheduler()], [0, 1])

    def test_fail_fast_still_checkpoints_completed_seeds(self, tmp_path):
        """No policy: the failed seed's own error propagates, and the
        seeds that completed before it are still cached."""
        poison = PoisonScheduler(poison=_poison_value(1))
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="poisoned seed"):
            run_schemes(CONFIG, [poison], [0, 1, 2], journal=cache)
        assert cache.lookup_seed(CONFIG, [poison], 0) is not None
        assert len(cache) == 1

    def test_fail_fast_serial_stops_at_the_first_failure(self, tmp_path):
        """On the serial backend no seed after the failed one runs, so a
        long sweep reports its first error without finishing first."""
        markers = tmp_path / "markers"
        markers.mkdir()
        counting = CountingScheduler(marker_dir=str(markers))
        poison = PoisonScheduler(poison=_poison_value(1))
        with pytest.raises(RuntimeError, match="poisoned seed"):
            run_schemes(CONFIG, [counting, poison], [0, 1, 2, 3])
        assert _calls(str(markers)) == 2

    def test_fail_fast_on_the_pool_backend(self):
        with pytest.raises(RuntimeError, match="never works"):
            run_schemes(
                CONFIG,
                [AlwaysFailScheduler()],
                [0, 1],
                executor=ProcessPoolSweepExecutor(n_jobs=2),
            )


@pytest.mark.slow
class TestResilientPool:
    def test_worker_death_raises_and_the_cache_resumes(self, tmp_path):
        """A worker killed mid-sweep fails the run with BrokenProcessPool;
        re-running with the same cache finishes it, with every metric
        equal to a serial run's."""
        markers = tmp_path / "markers"
        markers.mkdir()
        scheduler = CrashOnceScheduler(marker_dir=str(markers))
        seeds = [0, 1, 2]
        with pytest.raises(BrokenProcessPool):
            run_schemes(
                CONFIG,
                [scheduler],
                seeds,
                journal=ResultCache(tmp_path / "cache"),
                executor=ProcessPoolSweepExecutor(n_jobs=2),
            )
        assert (markers / "crashed").exists()
        resumed = run_schemes(
            CONFIG,
            [scheduler],
            seeds,
            journal=ResultCache(tmp_path / "cache"),
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        assert_identical_metrics(run_schemes(CONFIG, [scheduler], seeds), resumed)


class TestJournalIntegration:
    """Seed checkpoints in the content-addressed :class:`ResultCache`."""

    def test_journal_records_every_seed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_schemes(CONFIG, [GreedyScheduler()], [0, 1, 2], journal=cache)
        assert len(cache) == 3

    def test_resume_skips_completed_seeds(self, tmp_path):
        root = tmp_path / "cache"
        marker_first = tmp_path / "first"
        marker_second = tmp_path / "second"
        marker_first.mkdir()
        marker_second.mkdir()
        seeds = [0, 1, 2]

        first = run_schemes(
            CONFIG,
            [CountingScheduler(marker_dir=str(marker_first))],
            seeds,
            journal=ResultCache(root),
        )
        assert _calls(str(marker_first)) == 3

        # The resumed run must not call the scheduler at all: the key
        # depends on the scheduler's state, so it must match the first
        # run's (same marker dir).
        resumed = run_schemes(
            CONFIG,
            [CountingScheduler(marker_dir=str(marker_first))],
            seeds,
            journal=ResultCache(root),
        )
        assert _calls(str(marker_first)) == 3
        assert_identical_metrics(first, resumed)

        # A different scheduler state is a different sweep: full re-run.
        run_schemes(
            CONFIG,
            [CountingScheduler(marker_dir=str(marker_second))],
            seeds,
            journal=ResultCache(root),
        )
        assert _calls(str(marker_second)) == 3

    def test_interrupted_sweep_resumes_exactly(self, tmp_path):
        """Acceptance: kill mid-sweep, resume, get identical metrics."""
        root = tmp_path / "cache"
        markers = tmp_path / "markers"
        markers.mkdir()
        seeds = [0, 1, 2, 3]
        scheduler = CountingScheduler(marker_dir=str(markers))

        uninterrupted = run_schemes(
            CONFIG, [scheduler], seeds, journal=ResultCache(root)
        )
        # Simulate a crash after two seeds: the last two entries were
        # never written, and the second one was torn mid-write.
        entries = sorted(
            (p for p in root.glob("??/*.json")), key=lambda p: p.name
        )
        assert len(entries) == 4
        for path in entries[2:]:
            path.unlink()
        torn = entries[1]
        torn.write_text(torn.read_text()[: torn.stat().st_size // 2])

        before = _calls(str(markers))
        resumed = run_schemes(
            CONFIG, [scheduler], seeds, journal=ResultCache(root)
        )
        # Exactly the one intact entry is served; the torn entry is
        # quarantined and its seed recomputed with the two missing ones.
        assert _calls(str(markers)) - before == 3
        assert len(ResultCache(root).corrupt_entries()) == 1
        assert_identical_metrics(uninterrupted, resumed)

    def test_runner_object_passthrough(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep = Sweep(journal=cache)
        result = sweep.run(CONFIG, [GreedyScheduler()], [0, 1])
        assert result.seeds == [0, 1]
        assert len(cache) == 2

    def test_module_default_journal_installed_and_cleared(self, tmp_path):
        """A journal is scoped to the call that was given it: the next
        plain run neither reads nor writes it."""
        cache = ResultCache(tmp_path / "cache")
        Sweep(journal=cache).run(CONFIG, [GreedyScheduler()], [0])
        assert len(cache) == 1
        run_schemes(CONFIG, [GreedyScheduler()], [1])
        assert len(cache) == 1

    def test_failed_seed_never_journaled(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        poison = PoisonScheduler(poison=_poison_value(1))
        with pytest.raises(RuntimeError, match="poisoned seed"):
            run_schemes(CONFIG, [poison], [0, 1], journal=cache)
        assert cache.lookup_seed(CONFIG, [poison], 1) is None
        assert len(cache) == 1
