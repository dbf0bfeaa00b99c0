"""Stream-level determinism: which RNG streams a run creates, and where
each one ends.

The streams are recorded with :func:`tests.streams.recorded_streams`.
Equal snapshots mean two runs created the same streams and drew the same
amount from each, which is stricter than equal results: a draw that does
not move the final plan still shows.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.schemes import build_schemes
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng, make_rng
from repro.sim.runner import run_schemes
from repro.sim.scenario import Scenario
from tests.streams import recorded_streams


class TestSanitizedGenerator:
    """Recording hands out the generator itself, not a proxy."""

    def test_values_match_unwrapped_generator(self):
        with recorded_streams():
            recorded = make_rng(42)
        plain = make_rng(42)
        assert type(recorded) is np.random.Generator
        assert recorded.random() == plain.random()
        assert np.array_equal(
            recorded.integers(0, 99, size=8), plain.integers(0, 99, size=8)
        )


class TestObserverSeam:
    def test_context_manager_installs_and_restores(self):
        original = np.random.default_rng
        with recorded_streams() as streams:
            assert np.random.default_rng is not original
            make_rng(5).random()
        assert np.random.default_rng is original
        assert list(streams.streams) == ["root:5"]
        assert len(streams.streams["root:5"]) == 1
        # Outside the block, nothing more is recorded.
        make_rng(5)
        assert len(streams.streams["root:5"]) == 1

    def test_child_rng_labels(self):
        with recorded_streams() as streams:
            child_rng(3, 100)
        assert "child:3:100" in streams.streams


def _solve_snapshot(seed, use_delta, use_batch):
    config = SimulationConfig(n_users=8, n_servers=3)
    with recorded_streams() as streams:
        scenario = Scenario.build(config, seed=seed)
        schedulers = build_schemes(
            ["TSAJS"],
            quick=True,
            use_delta=use_delta,
            use_batch=use_batch,
            batch_size=16,
        )
        utilities = {}
        for index, scheduler in enumerate(schedulers):
            rng = child_rng(seed, 100 + index)
            result = scheduler.schedule(scenario, rng)
            utilities[scheduler.name] = repr(result.utility)
    return streams.snapshot(), utilities


class TestTriModeSolve:
    def test_scalar_delta_batch_ledgers_agree(self):
        scalar, scalar_util = _solve_snapshot(11, False, False)
        delta, delta_util = _solve_snapshot(11, True, False)
        batch, batch_util = _solve_snapshot(11, False, True)
        assert "child:11:100" in scalar
        # The batch path draws and rewinds: its streams end where the
        # scalar ones do.
        assert scalar == delta == batch
        assert scalar_util == delta_util == batch_util

    def test_different_seeds_diverge(self):
        scalar, _ = _solve_snapshot(11, False, False)
        other, _ = _solve_snapshot(12, False, False)
        assert scalar != other
        # Not only the labels: the scheduler chains end in other states.
        assert scalar["child:11:100"] != other["child:12:100"]


class TestJournalResume:
    SEEDS = [1, 2, 3, 4]

    def _config(self):
        return SimulationConfig(n_users=6, n_servers=2)

    def _schedulers(self):
        return build_schemes(["Greedy"], quick=True)

    def test_resumed_sweep_matches_fresh(self, tmp_path):
        config = self._config()
        with recorded_streams() as fresh:
            fresh_result = run_schemes(config, self._schedulers(), self.SEEDS)

        # Interrupted run: only the first two seeds reached the cache
        # (the entries of seeds 3 and 4 were never written)...
        cache = ResultCache(tmp_path / "cache")
        run_schemes(config, self._schedulers(), self.SEEDS, journal=cache)
        for seed in (3, 4):
            for scheduler in self._schedulers():
                cache._entry_path(cell_key(config, scheduler, seed)).unlink()
        # ...then the resumed process reads the cache and only
        # computes (and draws for) the remaining seeds.
        with recorded_streams() as resumed:
            resumed_result = run_schemes(
                config,
                self._schedulers(),
                self.SEEDS,
                journal=ResultCache(tmp_path / "cache"),
            )

        fresh_snapshot = fresh.snapshot()
        resumed_snapshot = resumed.snapshot()
        # Only seeds 3 and 4 (scenario streams 0-1, scheduler stream
        # 100) may have been re-drawn on the resumed run.
        expected = {
            f"child:{seed}:{stream}"
            for seed in (3, 4)
            for stream in (0, 1, 100)
        }
        assert set(resumed_snapshot) == expected
        for label, states in resumed_snapshot.items():
            assert states == fresh_snapshot[label]
        # And the cache-backed metrics are bitwise the fresh ones.
        assert (
            resumed_result.utilities("Greedy")
            == fresh_result.utilities("Greedy")
        )
