"""Equivalence suite locking the delta evaluator to the full objective.

Every test drives :class:`DeltaEvaluator` through long random move
sequences and checks, after *every* move, that it agrees with a fresh
:meth:`ObjectiveEvaluator.evaluate` — exactly, since the delta path is
specified to be bit-for-bit equal — and with :meth:`breakdown` within
1e-9.  The sequences exercise the touched-set protocol exactly as the
annealer uses it (rejections leave the cache on the rejected candidate,
so the next evaluation carries the rejected touched set), plus unhinted
``touched=None`` diffs and mid-sequence :meth:`rebuild` checkpoints.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.batch import BatchEvaluator
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import LAMBDA_MEMO_CAP, DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.errors import ConfigurationError
from repro.net.sinr import total_received_power
from repro.sim.config import SimulationConfig, small_network_config
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario
from tests.conftest import make_scenario

#: (U, S, N, scenario seed) grid — 10 randomized scenarios x 60 moves
#: each = 600 checked moves in the main sequence test alone.
SCENARIO_GRID = [
    (1, 1, 1, 0),
    (2, 1, 2, 1),
    (4, 2, 2, 2),
    (5, 3, 1, 3),
    (6, 2, 3, 4),
    (8, 3, 2, 5),
    (9, 4, 3, 6),
    (10, 2, 4, 7),
    (12, 5, 2, 8),
    (15, 3, 3, 9),
]

MOVES_PER_SCENARIO = 60
REBUILD_EVERY = 25


def random_scenario(n_users, n_servers, n_subbands, seed):
    config = SimulationConfig(
        n_users=n_users, n_servers=n_servers, n_subbands=n_subbands
    )
    return Scenario.build(config, seed=seed)


def assert_breakdown_close(full: ObjectiveEvaluator, delta_value, decision):
    detailed = full.breakdown(decision).system_utility
    if detailed == float("-inf") or delta_value == float("-inf"):
        assert detailed == delta_value
    else:
        assert delta_value == pytest.approx(detailed, rel=1e-9, abs=1e-12)


class TestMoveSequences:
    @pytest.mark.parametrize("n_users,n_servers,n_subbands,seed", SCENARIO_GRID)
    def test_annealer_style_sequence(self, n_users, n_servers, n_subbands, seed):
        """Accept/reject walks with carry, hints and rebuild checkpoints."""
        scenario = random_scenario(n_users, n_servers, n_subbands, seed)
        rng = np.random.default_rng(1000 + seed)
        sampler = NeighborhoodSampler()
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)

        current = OffloadingDecision.random_feasible(
            n_users, n_servers, n_subbands, rng
        )
        # Sync the cache onto the random start the way the annealer does:
        # one unhinted evaluation.
        assert delta.evaluate(current) == full.evaluate(current)

        carry = ()
        for step in range(MOVES_PER_SCENARIO):
            candidate, touched = sampler.propose_move(current, rng)
            if step % 7 == 3:
                # Unhinted call: must self-diff, regardless of carry.
                got = delta.evaluate_assignment(
                    candidate.server, candidate.channel
                )
            else:
                got = delta.evaluate_move(candidate, touched + carry)
            expected = full.evaluate(candidate)
            assert got == expected, f"step {step}"
            assert_breakdown_close(full, got, candidate)

            if rng.random() < 0.5:  # accept
                current = candidate
                carry = ()
            else:
                # Reject: the cache stays on the rejected candidate, so
                # the next evaluation must also cover its touched users
                # (even when this evaluation was the unhinted kind).
                carry = touched

            if step % REBUILD_EVERY == REBUILD_EVERY - 1:
                delta.rebuild()
                assert delta.evaluate(current) == full.evaluate(current)

    @pytest.mark.parametrize("n_users,n_servers,n_subbands,seed", SCENARIO_GRID)
    def test_touched_superset_is_allowed(self, n_users, n_servers, n_subbands, seed):
        """Extra users in the touched set (even duplicated) are harmless."""
        scenario = random_scenario(n_users, n_servers, n_subbands, seed)
        rng = np.random.default_rng(2000 + seed)
        sampler = NeighborhoodSampler()
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        current = OffloadingDecision.random_feasible(
            n_users, n_servers, n_subbands, rng
        )
        delta.evaluate(current)
        for _ in range(20):
            candidate, touched = sampler.propose_move(current, rng)
            extra = tuple(
                int(u) for u in rng.integers(0, n_users, size=3)
            )
            got = delta.evaluate_move(candidate, touched + touched + extra)
            assert got == full.evaluate(candidate)
            current = candidate

    def test_touched_sets_cover_actual_changes(self):
        """propose_move's touched set covers every differing user."""
        scenario = random_scenario(10, 3, 2, 42)
        rng = np.random.default_rng(42)
        sampler = NeighborhoodSampler()
        current = OffloadingDecision.random_feasible(10, 3, 2, rng)
        for _ in range(300):
            candidate, touched = sampler.propose_move(current, rng)
            changed = set(int(u) for u in current.changed_users(candidate))
            assert changed <= set(touched)
            current = candidate


class TestDropInUsage:
    def test_unhinted_mutated_arrays(self):
        """hJTORA-style callers mutate scratch vectors between calls."""
        scenario = random_scenario(8, 3, 2, 11)
        rng = np.random.default_rng(11)
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        server = np.full(8, LOCAL, dtype=np.int64)
        channel = np.full(8, LOCAL, dtype=np.int64)
        for _ in range(120):
            u = int(rng.integers(0, 8))
            if rng.random() < 0.3:
                server[u] = LOCAL
                channel[u] = LOCAL
            else:
                s = int(rng.integers(0, 3))
                j = int(rng.integers(0, 2))
                # Clear any other occupant of the slot to stay feasible.
                for v in range(8):
                    if v != u and server[v] == s and channel[v] == j:
                        server[v] = LOCAL
                        channel[v] = LOCAL
                server[u] = s
                channel[u] = j
            got = delta.evaluate_assignment(server, channel)
            assert got == full.evaluate_assignment(server, channel)

    def test_constant_gains_scenario(self):
        """Degenerate equal-gain channels (exercises ties and cancellation)."""
        scenario = make_scenario(n_users=6, n_servers=2, n_subbands=2)
        rng = np.random.default_rng(0)
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        sampler = NeighborhoodSampler()
        current = OffloadingDecision.random_feasible(6, 2, 2, rng)
        delta.evaluate(current)
        for _ in range(60):
            candidate, touched = sampler.propose_move(current, rng)
            assert delta.evaluate_move(candidate, touched) == full.evaluate(candidate)
            current = candidate


class TestEdgeCases:
    def test_all_local_is_zero(self):
        scenario = random_scenario(5, 2, 2, 3)
        delta = DeltaEvaluator(scenario)
        decision = OffloadingDecision.all_local(5, 2, 2)
        assert delta.evaluate(decision) == 0.0
        # Offload someone, then back to all-local.
        decision.assign(2, 1, 0)
        assert delta.evaluate(decision) == ObjectiveEvaluator(scenario).evaluate(
            decision
        )
        decision.set_local(2)
        assert delta.evaluate(decision) == 0.0

    def test_no_users(self):
        scenario = make_scenario(n_users=0, n_servers=2, n_subbands=2)
        delta = DeltaEvaluator(scenario)
        decision = OffloadingDecision.all_local(0, 2, 2)
        assert delta.evaluate(decision) == 0.0

    def test_dead_link_matches_full_minus_inf(self):
        """Subnormal gains give se == 0, so both paths return -inf."""
        gains = np.full((3, 2, 2), 1e-300)
        scenario = make_scenario(n_users=3, n_servers=2, n_subbands=2, gains=gains)
        full = ObjectiveEvaluator(scenario)
        delta = DeltaEvaluator(scenario)
        decision = OffloadingDecision.all_local(3, 2, 2)
        decision.assign(0, 0, 0)
        assert full.evaluate(decision) == float("-inf")
        assert delta.evaluate(decision) == float("-inf")
        # Recovery: back to all-local must return exactly 0 again.
        decision.set_local(0)
        assert delta.evaluate(decision) == 0.0

    def test_breakdown_unaffected_by_cache(self):
        """breakdown() is inherited and never reads the delta cache."""
        scenario = random_scenario(6, 2, 2, 21)
        rng = np.random.default_rng(21)
        delta = DeltaEvaluator(scenario)
        full = ObjectiveEvaluator(scenario)
        a = OffloadingDecision.random_feasible(6, 2, 2, rng)
        b = OffloadingDecision.random_feasible(6, 2, 2, rng)
        delta.evaluate(a)  # cache points at `a`
        assert delta.breakdown(b).system_utility == pytest.approx(
            full.breakdown(b).system_utility, rel=1e-12
        )
        # ... and breakdown did not corrupt the cache.
        assert delta.evaluate(a) == full.evaluate(a)


def random_external_rx(scenario, rng):
    """Frozen out-of-instance power on the scale of in-instance rows."""
    scale = float(np.median(scenario.gains)) * float(np.max(scenario.tx_power_watts))
    return rng.uniform(0.0, 3.0 * scale, size=(scenario.n_subbands, scenario.n_servers))


class TestExternalInterference:
    """``external_rx`` (the sharded re-anneal's frozen boundary power)."""

    @pytest.mark.parametrize("n_users,n_servers,n_subbands,seed", SCENARIO_GRID)
    def test_move_sequence_matches_full_path(self, n_users, n_servers, n_subbands, seed):
        scenario = random_scenario(n_users, n_servers, n_subbands, seed)
        rng = np.random.default_rng(3000 + seed)
        external_rx = random_external_rx(scenario, rng)
        sampler = NeighborhoodSampler()
        full = ObjectiveEvaluator(scenario, external_rx=external_rx)
        delta = DeltaEvaluator(scenario, external_rx=external_rx)
        current = OffloadingDecision.random_feasible(n_users, n_servers, n_subbands, rng)
        assert delta.evaluate(current) == full.evaluate(current)
        carry = ()
        for step in range(MOVES_PER_SCENARIO):
            candidate, touched = sampler.propose_move(current, rng)
            expected = full.evaluate(candidate)
            if step % 7 == 3:
                got = delta.evaluate_assignment(candidate.server, candidate.channel)
            else:
                got = delta.evaluate_move(candidate, touched + carry)
            assert got == expected, f"step {step}"
            # Buckets hold the occupant sum plus the external row, in
            # compute_link_stats' order (SINR values alone hide the
            # order: thermal noise swamps last-bit differences).
            cached = np.asarray(delta._total_rx)
            assert np.array_equal(cached, total_received_power(
                scenario.gains, scenario.tx_power_watts, candidate.server, candidate.channel
            ) + external_rx)
            if rng.random() < 0.5:
                current = candidate
                carry = ()
            else:
                carry = touched
            if step % REBUILD_EVERY == REBUILD_EVERY - 1:
                delta.rebuild()
                assert delta.evaluate(current) == full.evaluate(current)
        # Every call is counted once: the start, each move, each rebuild check.
        assert delta.evaluations == 1 + MOVES_PER_SCENARIO + MOVES_PER_SCENARIO // REBUILD_EVERY

    def test_external_power_changes_the_value(self):
        """The term is really applied (not silently dropped)."""
        scenario = random_scenario(10, 3, 2, 5)
        rng = np.random.default_rng(5)
        decision = OffloadingDecision.random_feasible(10, 3, 2, rng, offload_probability=1.0)
        external_rx = random_external_rx(scenario, rng)
        plain = DeltaEvaluator(scenario).evaluate(decision)
        coupled = DeltaEvaluator(scenario, external_rx=external_rx).evaluate(decision)
        assert coupled < plain
        assert coupled == ObjectiveEvaluator(scenario, external_rx=external_rx).evaluate(
            decision
        )

    def test_wrong_shape_rejected(self):
        scenario = random_scenario(4, 2, 3, 1)
        with pytest.raises(ConfigurationError):
            DeltaEvaluator(scenario, external_rx=np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            ObjectiveEvaluator(scenario, external_rx=np.zeros((2, 3)))

    def test_batch_evaluator_rejects_external_rx(self):
        scenario = random_scenario(4, 2, 3, 1)
        with pytest.raises(ConfigurationError):
            BatchEvaluator(scenario, external_rx=np.zeros((3, 2)))


def full_path_lambda(scenario, decision):
    """``Λ(X, F*)`` by the full path's own expression (``_score_assignment``)."""
    mask = decision.server != LOCAL
    root_sums = np.bincount(
        np.where(mask, decision.server, 0),
        weights=np.where(mask, scenario.sqrt_eta, 0.0),
        minlength=scenario.n_servers,
    )
    return float((root_sums * root_sums / scenario.server_cpu_hz).sum())


def heterogeneous_scenario(n_users, n_servers, n_subbands, seed):
    """A random instance whose users differ in CPU speed, so their ``√η``
    differ and the order of a server's root sum shows in its bits (the
    paper's identical tasks give every user the same ``√η``)."""
    base = random_scenario(n_users, n_servers, n_subbands, seed)
    scale = np.random.default_rng(seed).uniform(0.5, 2.0, size=n_users)
    users = [replace(u, cpu_hz=u.cpu_hz * f) for u, f in zip(base.users, scale.tolist())]
    return Scenario.from_parts(
        users, base.servers, base.gains, base.ofdma.total_bandwidth_hz, base.noise_watts
    )


def settled_lambda(delta):
    delta._settle_kkt()
    return delta._lambda_cost


class TestLambdaMemo:
    """Per-server root sums and the exact ``Λ`` memo (invariant 3)."""

    @pytest.mark.parametrize("with_external", [False, True], ids=["plain", "external"])
    @pytest.mark.parametrize("cap_reached", [False, True], ids=["memo", "capped"])
    def test_memo_hit_equals_miss(self, with_external, cap_reached):
        scenario = heterogeneous_scenario(12, 4, 3, 17)
        rng = np.random.default_rng(17)
        external_rx = random_external_rx(scenario, rng) if with_external else None
        sampler = NeighborhoodSampler()
        full = ObjectiveEvaluator(scenario, external_rx=external_rx)
        delta = DeltaEvaluator(scenario, external_rx=external_rx)
        memo = delta._lambda_memo
        if cap_reached:
            # Keys no walk can produce (root sums are never negative).
            memo.update(
                ((-1.0 - i,) * scenario.n_servers, 0.0) for i in range(LAMBDA_MEMO_CAP)
            )
        current = OffloadingDecision.random_feasible(12, 4, 3, rng)
        delta.evaluate(current)
        delta_server = current.server
        carry = ()
        kinds = {"server": 0, "channel": 0}
        hits = 0
        for step in range(300):
            candidate, touched = sampler.propose_move(current, rng)
            # The cache sits on the last evaluated candidate, not on
            # ``current``, after a rejection.
            server_move = not np.array_equal(candidate.server, delta_server)
            kinds["server" if server_move else "channel"] += 1
            size_before = len(memo)
            got = delta.evaluate_move(candidate, touched + carry)
            assert got == full.evaluate(candidate), f"step {step}"
            np.testing.assert_array_equal(
                np.asarray(delta._root_sums),
                np.bincount(delta._idx, weights=delta._w, minlength=scenario.n_servers),
            )
            fresh = DeltaEvaluator(scenario, external_rx=external_rx)
            fresh.evaluate(candidate)
            cost = settled_lambda(delta)
            assert cost == settled_lambda(fresh) == full_path_lambda(scenario, candidate)
            if server_move and tuple(delta._root_sums) in memo:
                hits += len(memo) == size_before
            delta_server = candidate.server
            if rng.random() < 0.5:
                current, carry = candidate, ()
            else:
                carry = touched
        assert kinds["server"] and kinds["channel"]
        if cap_reached:
            # Full: every server move is a miss, computed and not kept.
            assert len(memo) == LAMBDA_MEMO_CAP and not hits
        else:
            assert hits and 0 < len(memo) < LAMBDA_MEMO_CAP


class TestSchedulerTrajectoryEquality:
    """The acceptance check: use_delta=True reproduces the exact run."""

    @pytest.mark.parametrize(
        "config",
        [small_network_config(), SimulationConfig(n_users=30)],
        ids=["fig3", "fig4"],
    )
    def test_exact_same_best_decision_and_objective(self, config):
        scenario = Scenario.build(config, seed=7)
        schedule = AnnealingSchedule(chain_length=10, min_temperature=1e-3)
        full = TsajsScheduler(schedule=schedule, use_delta=False).schedule(
            scenario, child_rng(7, 100)
        )
        fast = TsajsScheduler(schedule=schedule, use_delta=True).schedule(
            scenario, child_rng(7, 100)
        )
        assert fast.decision == full.decision
        assert fast.utility == full.utility
        assert fast.evaluations == full.evaluations
        assert fast.accepted_moves == full.accepted_moves
        np.testing.assert_array_equal(fast.allocation, full.allocation)
