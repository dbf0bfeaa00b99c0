"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    allocation_cost,
    kkt_allocation,
    optimal_allocation_cost,
)
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.neighborhood import NeighborhoodSampler, displacing_move, swap_move
from repro.core.objective import ObjectiveEvaluator
from repro.net.sinr import compute_link_stats
from repro.sim.stats import summarize
from tests.conftest import make_scenario

# --- Strategies ------------------------------------------------------------

dims = st.tuples(
    st.integers(min_value=1, max_value=6),  # users
    st.integers(min_value=1, max_value=3),  # servers
    st.integers(min_value=1, max_value=3),  # channels
)


@st.composite
def decision_with_ops(draw):
    """A decision plus a random mutation script."""
    n_users, n_servers, n_channels = draw(dims)
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # op code
                st.integers(min_value=0, max_value=n_users - 1),
                st.integers(min_value=0, max_value=n_servers - 1),
                st.integers(min_value=0, max_value=n_channels - 1),
                st.integers(min_value=0, max_value=n_users - 1),
            ),
            max_size=30,
        )
    )
    return n_users, n_servers, n_channels, ops


@st.composite
def random_scenario_and_decision(draw):
    """A small scenario with random gains and a random feasible decision."""
    n_users, n_servers, n_channels = draw(dims)
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    gains = rng.uniform(1e-12, 1e-7, size=(n_users, n_servers, n_channels))
    beta_time = draw(
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
    )
    scenario = make_scenario(
        n_users=n_users,
        n_servers=n_servers,
        n_subbands=n_channels,
        gains=gains,
        beta_time=beta_time,
    )
    decision = OffloadingDecision.random_feasible(
        n_users, n_servers, n_channels, rng
    )
    return scenario, decision


# --- Decision invariants -----------------------------------------------------


@given(decision_with_ops())
@settings(max_examples=200, deadline=None)
def test_mutations_always_preserve_feasibility(script):
    n_users, n_servers, n_channels, ops = script
    decision = OffloadingDecision.all_local(n_users, n_servers, n_channels)
    for op, user, server, channel, other in ops:
        if op == 0:
            decision = decision.with_move(
                displacing_move(decision, user, server, channel)
            )
        elif op == 1:
            decision.set_local(user)
        elif op == 2:
            decision = decision.with_move(swap_move(decision, user, other))
        else:
            occupant = decision.occupant_of(server, channel)
            if occupant in (LOCAL, user):
                decision.assign(user, server, channel)
        assert decision.is_feasible()
        # Slot map and vectors agree after every mutation.
        for u in range(n_users):
            if decision.is_offloaded(u):
                assert decision.occupant_of(
                    int(decision.server[u]), int(decision.channel[u])
                ) == u


@given(decision_with_ops())
@settings(max_examples=100, deadline=None)
def test_dense_roundtrip_after_mutations(script):
    n_users, n_servers, n_channels, ops = script
    decision = OffloadingDecision.all_local(n_users, n_servers, n_channels)
    for op, user, server, channel, other in ops:
        if op % 2 == 0:
            decision = decision.with_move(
                displacing_move(decision, user, server, channel)
            )
        else:
            decision.set_local(user)
    assert OffloadingDecision.from_dense(decision.to_dense()) == decision


# --- Objective identity -------------------------------------------------------


@given(random_scenario_and_decision())
@settings(max_examples=60, deadline=None)
def test_closed_form_equals_explicit_utility(pair):
    """Eq. (24) == Eq. (11) with the KKT allocation, for any decision."""
    scenario, decision = pair
    evaluator = ObjectiveEvaluator(scenario)
    fast = evaluator.evaluate(decision)
    explicit = evaluator.breakdown(decision).system_utility
    assert explicit == pytest.approx(fast, rel=1e-9, abs=1e-12)


@given(random_scenario_and_decision())
@settings(max_examples=60, deadline=None)
def test_kkt_allocation_feasible_and_optimal(pair):
    scenario, decision = pair
    allocation = kkt_allocation(scenario, decision)
    # Feasibility (12e)-(12f).
    assert np.all(allocation >= 0.0)
    for s in range(scenario.n_servers):
        users = decision.users_on_server(s)
        assert allocation[:, s].sum() <= scenario.server_cpu_hz[s] * (1 + 1e-9)
        if users.size:
            assert np.all(allocation[users, s] > 0.0)
    # Consistency of Eq. (23) with direct evaluation of Eq. (20a).
    if decision.n_offloaded():
        direct = allocation_cost(scenario, decision, allocation)
        assert optimal_allocation_cost(scenario, decision) == pytest.approx(direct)


@given(
    random_scenario_and_decision(),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_kkt_never_beaten_by_random_split(pair, perturb_seed):
    """No random feasible allocation can undercut the closed form."""
    scenario, decision = pair
    offloaded = decision.offloaded_users()
    if offloaded.size == 0:
        return
    optimal = optimal_allocation_cost(scenario, decision)
    rng = np.random.default_rng(perturb_seed)
    allocation = np.zeros((scenario.n_users, scenario.n_servers))
    for s in range(scenario.n_servers):
        users = decision.users_on_server(s)
        if users.size == 0:
            continue
        weights = rng.uniform(0.1, 1.0, size=users.size)
        allocation[users, s] = (
            scenario.server_cpu_hz[s] * weights / weights.sum()
        )
    assert allocation_cost(scenario, decision, allocation) >= optimal - 1e-9


# --- SINR monotonicity ---------------------------------------------------------


@given(random_scenario_and_decision())
@settings(max_examples=60, deadline=None)
def test_removing_a_user_never_hurts_others(pair):
    """Dropping any offloader weakly improves every other user's SINR."""
    scenario, decision = pair
    offloaded = decision.offloaded_users()
    if offloaded.size < 2:
        return
    base = compute_link_stats(
        scenario.gains,
        scenario.tx_power_watts,
        scenario.noise_watts,
        scenario.subband_width_hz,
        decision.server,
        decision.channel,
    )
    victim = int(offloaded[0])
    reduced = decision.copy()
    reduced.set_local(victim)
    after = compute_link_stats(
        scenario.gains,
        scenario.tx_power_watts,
        scenario.noise_watts,
        scenario.subband_width_hz,
        reduced.server,
        reduced.channel,
    )
    others = [int(u) for u in offloaded if u != victim]
    assert np.all(after.sinr[others] >= base.sinr[others] - 1e-18)


@given(random_scenario_and_decision())
@settings(max_examples=40, deadline=None)
def test_utility_bounded_by_weighted_user_count(pair):
    """J*(X) <= sum of operator weights of offloaded users (J_u <= 1)."""
    scenario, decision = pair
    evaluator = ObjectiveEvaluator(scenario)
    value = evaluator.evaluate(decision)
    cap = float(scenario.operator_weight[decision.offloaded_users()].sum())
    assert value <= cap + 1e-9


# --- Neighborhood ---------------------------------------------------------------


@given(
    dims,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=100, deadline=None)
def test_proposal_chain_feasible(dimensions, seed, steps):
    n_users, n_servers, n_channels = dimensions
    rng = np.random.default_rng(seed)
    decision = OffloadingDecision.random_feasible(
        n_users, n_servers, n_channels, rng
    )
    sampler = NeighborhoodSampler()
    for _ in range(steps):
        decision = sampler.propose(decision, rng)
        assert decision.is_feasible()


# --- Statistics -------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=150, deadline=None)
def test_confidence_interval_brackets_mean(samples):
    stats = summarize(samples)
    assert stats.ci_halfwidth >= 0.0
    assert stats.ci_low <= stats.mean + 1e-9
    assert stats.mean <= stats.ci_high + 1e-9
    assert stats.n == len(samples)
