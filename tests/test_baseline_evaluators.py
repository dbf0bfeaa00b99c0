"""Every baseline runs on the delta evaluator, bitwise equal to the oracle.

hJTORA, LocalSearch, Exhaustive, Greedy and GA default to
:class:`~repro.core.delta.DeltaEvaluator`.  The first three pass exact
touched sets (hJTORA the previous and the applied user, LocalSearch the
annealer's carry protocol, the exhaustive DFS the users it set or reset
since the last leaf); Greedy and GA fall back to the ``O(U)`` vector diff.
Each default must reproduce ``evaluator_factory=ObjectiveEvaluator`` bit
for bit: utility, decision bytes, evaluation count and the final RNG
state.  A checking evaluator compares every single value against the
oracle, and a deliberately short touched set must trip it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
import pytest

from repro.baselines import (
    ExhaustiveScheduler,
    GeneticScheduler,
    GreedyScheduler,
    HJtoraScheduler,
    LocalSearchScheduler,
)
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from repro.sim.config import SimulationConfig, small_network_config
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

SEED = 2025

#: Plentiful and contended slots (U=10/30, S=9, N=3), the paper scale
#: with many sub-bands (U=40, S=5, N=20) and a slot-scarce grid (U=60, N=2).
CONFIGS = {
    "U10-S9-N3": SimulationConfig(n_users=10, n_subbands=3),
    "U30-S9-N3": SimulationConfig(n_users=30, n_subbands=3),
    "U40-S5-N20": SimulationConfig(n_users=40, n_servers=5, n_subbands=20),
    "U60-S9-N2": SimulationConfig(n_users=60, n_subbands=2),
}
#: Exhaustive search only scales to a tiny network.
TINY = small_network_config(n_users=4)

HEURISTICS = {
    "hJTORA": HJtoraScheduler,
    "LocalSearch": LocalSearchScheduler,
    "Greedy": GreedyScheduler,
    "GA": GeneticScheduler,
}
ALL = {**HEURISTICS, "Exhaustive": ExhaustiveScheduler}
#: The baselines that pass touched sets rather than full vectors.
TOUCHED_SET_BASELINES = ["hJTORA", "LocalSearch", "Exhaustive"]

CASES = [(name, config) for name in HEURISTICS for config in CONFIGS] + [
    ("Exhaustive", "tiny")
]


class CheckingDeltaEvaluator(DeltaEvaluator):
    """Delta evaluator that asserts every value equals the oracle's."""

    def _score_assignment(
        self,
        server_of_user: np.ndarray,
        channel_of_user: np.ndarray,
        touched: Optional[Iterable[int]],
    ) -> float:
        got = super()._score_assignment(server_of_user, channel_of_user, touched)
        want = ObjectiveEvaluator._score_assignment(
            self, server_of_user, channel_of_user, None
        )
        assert got.hex() == want.hex(), (
            f"delta {got!r} != oracle {want!r} (touched={touched!r})"
        )
        return got


class ShortTouchedEvaluator(CheckingDeltaEvaluator):
    """Drops all but the first user of every touched set."""

    def _score_assignment(self, server_of_user, channel_of_user, touched):
        if touched is not None:
            touched = list(touched)[:1]
        return super()._score_assignment(server_of_user, channel_of_user, touched)


def _scenario(config_name: str) -> Scenario:
    return Scenario.build(TINY if config_name == "tiny" else CONFIGS[config_name], SEED)


def _solve(name: str, scenario: Scenario, **kwargs):
    rng = child_rng(SEED, 101)
    result = ALL[name](**kwargs).schedule(scenario, rng)
    return (
        result.utility.hex(),
        result.decision.server.tobytes(),
        result.decision.channel.tobytes(),
        result.evaluations,
        rng.bit_generator.state,
    )


@pytest.mark.parametrize("name, config_name", CASES)
def test_default_matches_oracle(name, config_name):
    scenario = _scenario(config_name)
    default = _solve(name, scenario)
    assert default == _solve(name, scenario, evaluator_factory=ObjectiveEvaluator)
    # Stronger than equal end results: every single value on the way.
    assert default == _solve(name, scenario, evaluator_factory=CheckingDeltaEvaluator)


def test_checker_trips_on_a_short_touched_set():
    scenario = _scenario("U10-S9-N3")
    evaluator = CheckingDeltaEvaluator(scenario)
    server = np.full(scenario.n_users, -1, dtype=np.int64)
    channel = np.full(scenario.n_users, -1, dtype=np.int64)
    evaluator.evaluate_assignment(server, channel)
    server[:2] = (0, 1)
    channel[:2] = (0, 0)
    with pytest.raises(AssertionError, match="oracle"):
        evaluator.evaluate_assignment(server, channel, touched=(0,))


@pytest.mark.parametrize("name", TOUCHED_SET_BASELINES)
def test_short_touched_sets_fail_a_baseline_run(name):
    config_name = "tiny" if name == "Exhaustive" else "U10-S9-N3"
    with pytest.raises(AssertionError, match="oracle"):
        _solve(name, _scenario(config_name), evaluator_factory=ShortTouchedEvaluator)


@pytest.mark.parametrize("name", ALL)
def test_two_argument_spy_counts_every_evaluation(name, monkeypatch):
    """Fig. 8's counts and profilers hook the one counted entry point."""
    calls = []
    original = ObjectiveEvaluator.evaluate_assignment

    # Two-argument on purpose: touched sets travel through evaluate_move.
    def counting(self, server_of_user, channel_of_user):
        calls.append(type(self))
        return original(self, server_of_user, channel_of_user)

    monkeypatch.setattr(ObjectiveEvaluator, "evaluate_assignment", counting)
    config_name = "tiny" if name == "Exhaustive" else "U10-S9-N3"
    evaluations = _solve(name, _scenario(config_name))[3]
    assert len(calls) == evaluations
    assert set(calls) == {DeltaEvaluator}
