"""Tests for the baseline schedulers."""

import itertools

import numpy as np
import pytest

from repro.baselines import (
    AllLocalScheduler,
    ExhaustiveScheduler,
    GreedyScheduler,
    HJtoraScheduler,
    LocalSearchScheduler,
    RandomScheduler,
)
from repro.core.decision import LOCAL
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError, SolverError
from repro.sim.validation import validate_result
from tests.conftest import make_scenario

ALL_BASELINES = [
    ExhaustiveScheduler,
    HJtoraScheduler,
    GreedyScheduler,
    LocalSearchScheduler,
    AllLocalScheduler,
    RandomScheduler,
]


class TestCommonContract:
    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    def test_protocol_and_feasibility(self, scheduler_cls, small_random_scenario, rng):
        scheduler = scheduler_cls()
        assert isinstance(scheduler, Scheduler)
        result = scheduler.schedule(small_random_scenario, rng)
        validate_result(small_random_scenario, result)

    @pytest.mark.parametrize("scheduler_cls", ALL_BASELINES)
    def test_reported_utility_matches_decision(
        self, scheduler_cls, small_random_scenario, rng
    ):
        result = scheduler_cls().schedule(small_random_scenario, rng)
        evaluator = ObjectiveEvaluator(small_random_scenario)
        assert evaluator.evaluate(result.decision) == pytest.approx(result.utility)


class TestExhaustive:
    def test_matches_explicit_enumeration(self, rng):
        """Cross-check the DFS against itertools-based enumeration."""
        scenario = make_scenario(
            n_users=3,
            n_servers=2,
            n_subbands=1,
            gains=np.random.default_rng(0).uniform(1e-10, 1e-8, size=(3, 2, 1)),
        )
        evaluator = ObjectiveEvaluator(scenario)
        options = [LOCAL] + [(s, 0) for s in range(2)]
        best = -np.inf
        for combo in itertools.product(options, repeat=3):
            slots = [c for c in combo if c != LOCAL]
            if len(slots) != len(set(slots)):
                continue  # slot conflict
            server = np.array(
                [c[0] if c != LOCAL else LOCAL for c in combo], dtype=np.int64
            )
            channel = np.array(
                [c[1] if c != LOCAL else LOCAL for c in combo], dtype=np.int64
            )
            best = max(best, evaluator.evaluate_assignment(server, channel))

        result = ExhaustiveScheduler().schedule(scenario)
        assert result.utility == pytest.approx(best)

    def test_optimum_at_least_every_heuristic(self, rng):
        scenario = make_scenario(
            n_users=4,
            n_servers=2,
            n_subbands=2,
            gains=np.random.default_rng(1).uniform(1e-10, 1e-8, size=(4, 2, 2)),
        )
        optimum = ExhaustiveScheduler().schedule(scenario).utility
        for scheduler in (HJtoraScheduler(), GreedyScheduler(), LocalSearchScheduler()):
            assert scheduler.schedule(scenario, rng).utility <= optimum + 1e-9

    def test_max_leaves_guard(self, small_random_scenario):
        with pytest.raises(SolverError):
            ExhaustiveScheduler(max_leaves=10).schedule(small_random_scenario)

    def test_rejects_bad_max_leaves(self):
        with pytest.raises(ConfigurationError):
            ExhaustiveScheduler(max_leaves=0)

    def test_deterministic(self, tiny_scenario):
        a = ExhaustiveScheduler().schedule(tiny_scenario)
        b = ExhaustiveScheduler().schedule(tiny_scenario)
        assert a.utility == b.utility
        assert a.decision == b.decision


class TestHJtora:
    def test_improves_over_all_local(self, tiny_scenario):
        result = HJtoraScheduler().schedule(tiny_scenario)
        assert result.utility > 0.0

    def test_is_single_move_local_optimum(self, small_random_scenario):
        """No single-user reassignment may improve the returned plan."""
        result = HJtoraScheduler().schedule(small_random_scenario)
        evaluator = ObjectiveEvaluator(small_random_scenario)
        base = evaluator.evaluate(result.decision)
        scenario = small_random_scenario
        for u in range(scenario.n_users):
            probe = result.decision.copy()
            probe.set_local(u)
            assert evaluator.evaluate(probe) <= base + 1e-9
            for s in range(scenario.n_servers):
                for j in range(scenario.n_subbands):
                    if result.decision.occupant_of(s, j) != LOCAL:
                        continue
                    probe = result.decision.copy()
                    probe.assign(u, s, j)
                    assert evaluator.evaluate(probe) <= base + 1e-9

    def test_deterministic(self, small_random_scenario):
        a = HJtoraScheduler().schedule(small_random_scenario)
        b = HJtoraScheduler().schedule(small_random_scenario)
        assert a.decision == b.decision

    def test_rejects_bad_rounds(self):
        with pytest.raises(ConfigurationError):
            HJtoraScheduler(max_rounds=0)

    def test_round_limit_respected(self, tiny_scenario):
        limited = HJtoraScheduler(max_rounds=1).schedule(tiny_scenario)
        # One round applies at most one move.
        assert limited.decision.n_offloaded() <= 1


class TestGreedy:
    def test_never_negative_utility(self, small_random_scenario):
        result = GreedyScheduler().schedule(small_random_scenario)
        assert result.utility >= 0.0

    def test_offloads_when_beneficial(self, tiny_scenario):
        result = GreedyScheduler().schedule(tiny_scenario)
        assert result.decision.n_offloaded() >= 1

    def test_respects_slot_capacity(self):
        scenario = make_scenario(n_users=10, n_servers=1, n_subbands=2)
        result = GreedyScheduler().schedule(scenario)
        assert result.decision.n_offloaded() <= 2

    def test_strongest_user_served_first(self):
        gains = np.full((2, 1, 1), 1e-10)
        gains[1] = 1e-8  # user 1 much stronger
        scenario = make_scenario(n_users=2, n_servers=1, n_subbands=1, gains=gains)
        result = GreedyScheduler().schedule(scenario)
        # Only one slot: the stronger user must hold it.
        assert result.decision.is_offloaded(1)
        assert not result.decision.is_offloaded(0)

    def test_deterministic(self, small_random_scenario):
        a = GreedyScheduler().schedule(small_random_scenario)
        b = GreedyScheduler().schedule(small_random_scenario)
        assert a.decision == b.decision


class TestLocalSearch:
    def test_never_negative_utility(self, small_random_scenario, rng):
        result = LocalSearchScheduler().schedule(small_random_scenario, rng)
        assert result.utility >= 0.0

    def test_improves_over_time(self, tiny_scenario, rng):
        result = LocalSearchScheduler(max_iterations=2000).schedule(
            tiny_scenario, rng
        )
        assert result.utility > 0.0

    def test_budget_caps_evaluations(self, small_random_scenario, rng):
        result = LocalSearchScheduler(max_iterations=50, patience=100).schedule(
            small_random_scenario, rng
        )
        # initial evaluation + at most max_iterations proposals
        # (+1 if the negative-utility fallback re-evaluates).
        assert result.evaluations <= 52

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LocalSearchScheduler(max_iterations=0)
        with pytest.raises(ConfigurationError):
            LocalSearchScheduler(patience=0)

    def test_deterministic_given_seed(self, small_random_scenario):
        a = LocalSearchScheduler().schedule(
            small_random_scenario, np.random.default_rng(5)
        )
        b = LocalSearchScheduler().schedule(
            small_random_scenario, np.random.default_rng(5)
        )
        assert a.decision == b.decision


class TestTrivial:
    def test_all_local_utility_zero(self, small_random_scenario):
        result = AllLocalScheduler().schedule(small_random_scenario)
        assert result.utility == 0.0
        assert result.decision.n_offloaded() == 0
        assert result.allocation.sum() == 0.0

    def test_random_feasible(self, small_random_scenario, rng):
        result = RandomScheduler(samples=5).schedule(small_random_scenario, rng)
        validate_result(small_random_scenario, result)

    def test_random_more_samples_never_worse(self, small_random_scenario):
        one = RandomScheduler(samples=1).schedule(
            small_random_scenario, np.random.default_rng(3)
        )
        many = RandomScheduler(samples=30).schedule(
            small_random_scenario, np.random.default_rng(3)
        )
        assert many.utility >= one.utility - 1e-12

    def test_random_validation(self):
        with pytest.raises(ConfigurationError):
            RandomScheduler(samples=0)
        with pytest.raises(ConfigurationError):
            RandomScheduler(offload_probability=-0.5)
