"""Tests for the runtime determinism sanitizer (repro.sanitize)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeterminismViolation
from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.schemes import build_schemes
from repro.sanitize import (
    DeterminismSanitizer,
    SanitizedGenerator,
    assert_ledgers_match,
    sanitized,
    state_digest,
)
from repro.sim import rng as rng_module
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng, make_rng
from repro.sim.runner import run_schemes
from repro.sim.scenario import Scenario


class TestSanitizedGenerator:
    def test_draws_are_counted(self):
        sanitizer = DeterminismSanitizer()
        proxy = sanitizer.wrap(np.random.default_rng(0), "t")
        proxy.random()
        proxy.integers(0, 10, size=5)
        proxy.normal()
        assert sanitizer.ledgers["t"].draws == 3

    def test_values_match_unwrapped_generator(self):
        sanitizer = DeterminismSanitizer()
        proxy = sanitizer.wrap(np.random.default_rng(42), "t")
        plain = np.random.default_rng(42)
        assert proxy.random() == plain.random()
        assert np.array_equal(proxy.integers(0, 99, size=8), plain.integers(0, 99, size=8))

    def test_spawn_children_are_ledgered(self):
        sanitizer = DeterminismSanitizer()
        proxy = sanitizer.wrap(np.random.default_rng(0), "root")
        children = proxy.spawn(3)
        assert all(isinstance(c, SanitizedGenerator) for c in children)
        children[1].random()
        assert sanitizer.ledgers["root/spawn1"].draws == 1
        assert sanitizer.ledgers["root/spawn0"].draws == 0
        # spawn itself is bookkeeping, not a draw
        assert sanitizer.ledgers["root"].draws == 0

    def test_bit_generator_passthrough_supports_rewind(self):
        sanitizer = DeterminismSanitizer()
        proxy = sanitizer.wrap(np.random.default_rng(7), "t")
        saved = proxy.bit_generator.state
        before = state_digest(proxy.bit_generator)
        proxy.random()
        assert state_digest(proxy.bit_generator) != before
        proxy.bit_generator.state = saved
        assert state_digest(proxy.bit_generator) == before
        # The rewind advanced no ledger, only the draw did.
        assert sanitizer.ledgers["t"].draws == 1

    def test_double_wrap_is_idempotent(self):
        sanitizer = DeterminismSanitizer()
        proxy = sanitizer.wrap(np.random.default_rng(0), "t")
        assert sanitizer.wrap(proxy, "t") is proxy

    def test_same_label_reuses_ledger(self):
        sanitizer = DeterminismSanitizer()
        first = sanitizer.wrap(np.random.default_rng(0), "t")
        first.random()
        second = sanitizer.wrap(np.random.default_rng(0), "t")
        second.random()
        assert sanitizer.ledgers["t"].draws == 2


class TestLedgerComparison:
    def _snapshot_after(self, draws):
        sanitizer = DeterminismSanitizer()
        proxy = sanitizer.wrap(np.random.default_rng(3), "s")
        for _ in range(draws):
            proxy.random()
        sanitizer.checkpoint()
        return sanitizer.snapshot()

    def test_identical_replays_match(self):
        assert_ledgers_match(
            self._snapshot_after(5), self._snapshot_after(5), compare_draws=True
        )

    def test_state_divergence_raises(self):
        with pytest.raises(DeterminismViolation, match="final state"):
            assert_ledgers_match(self._snapshot_after(5), self._snapshot_after(6))

    def test_missing_stream_raises(self):
        reference = self._snapshot_after(2)
        with pytest.raises(DeterminismViolation, match="missing"):
            assert_ledgers_match(reference, {})

    def test_extra_stream_raises(self):
        candidate = self._snapshot_after(2)
        with pytest.raises(DeterminismViolation, match="unexpected"):
            assert_ledgers_match({}, candidate)

    def test_draw_count_divergence_with_equal_states(self):
        # Draw-and-rewind: state identical, counts differ.
        def run(extra_rewound):
            sanitizer = DeterminismSanitizer()
            proxy = sanitizer.wrap(np.random.default_rng(9), "s")
            proxy.random()
            if extra_rewound:
                saved = proxy.bit_generator.state
                proxy.random()
                proxy.bit_generator.state = saved
            return sanitizer.snapshot()

        reference, candidate = run(False), run(True)
        assert_ledgers_match(reference, candidate)  # digest-only: fine
        with pytest.raises(DeterminismViolation, match="draw count"):
            assert_ledgers_match(reference, candidate, compare_draws=True)

    def test_checkpoint_sequence_divergence_raises(self):
        def run(checkpoint_midway):
            sanitizer = DeterminismSanitizer()
            proxy = sanitizer.wrap(np.random.default_rng(4), "s")
            proxy.random()
            if checkpoint_midway:
                sanitizer.checkpoint()
            proxy.random()
            saved = proxy.bit_generator.state
            proxy.bit_generator.state = saved
            return sanitizer.snapshot()

        with pytest.raises(DeterminismViolation, match="checkpoint"):
            assert_ledgers_match(run(True), run(False))


class TestObserverSeam:
    def test_context_manager_installs_and_restores(self):
        assert rng_module._STREAM_OBSERVER is None
        with sanitized() as sanitizer:
            assert rng_module._STREAM_OBSERVER is not None
            rng = make_rng(5)
            assert isinstance(rng, SanitizedGenerator)
            rng.random()
        assert rng_module._STREAM_OBSERVER is None
        assert sanitizer.ledgers["root:5"].draws == 1
        # Outside the block, factories hand back plain Generators again.
        assert isinstance(make_rng(5), np.random.Generator)

    def test_child_rng_labels(self):
        with sanitized() as sanitizer:
            child_rng(3, 100)
        assert "child:3:100" in sanitizer.ledgers

    def test_nested_sanitizers_are_independent(self):
        with sanitized() as outer:
            make_rng(1).random()
            with sanitized() as inner:
                make_rng(2).random()
            make_rng(1).random()
        assert set(outer.ledgers) == {"root:1"}
        assert outer.ledgers["root:1"].draws == 2
        assert set(inner.ledgers) == {"root:2"}


def _solve_snapshot(seed, use_delta, use_batch):
    config = SimulationConfig(n_users=8, n_servers=3)
    with sanitized() as sanitizer:
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
    return sanitizer.snapshot(), utilities


class TestTriModeSolve:
    def test_scalar_delta_batch_ledgers_agree(self):
        scalar, scalar_util = _solve_snapshot(11, False, False)
        delta, delta_util = _solve_snapshot(11, True, False)
        batch, batch_util = _solve_snapshot(11, False, True)
        # Scalar vs delta: identical draw-for-draw.
        assert_ledgers_match(scalar, delta, compare_draws=True, context="delta")
        # Batch draws-and-rewinds: states must match, counts may not.
        assert_ledgers_match(scalar, batch, context="batch")
        assert scalar_util == delta_util == batch_util

    def test_different_seeds_diverge(self):
        scalar, _ = _solve_snapshot(11, False, False)
        other, _ = _solve_snapshot(12, False, False)
        with pytest.raises(DeterminismViolation):
            assert_ledgers_match(scalar, other)


class TestJournalResume:
    SEEDS = [1, 2, 3, 4]

    def _config(self):
        return SimulationConfig(n_users=6, n_servers=2)

    def _schedulers(self):
        return build_schemes(["Greedy"], quick=True)

    def test_resumed_sweep_matches_fresh(self, tmp_path):
        config = self._config()
        with sanitized() as fresh:
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
        with sanitized() as resumed:
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
        for label, account in resumed_snapshot.items():
            assert account["state"] == fresh_snapshot[label]["state"]
            assert account["draws"] == fresh_snapshot[label]["draws"]
        # And the cache-backed metrics are bitwise the fresh ones.
        assert (
            resumed_result.utilities("Greedy")
            == fresh_result.utilities("Greedy")
        )
