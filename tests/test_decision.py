"""Tests for the offloading decision representation and constraints."""

import numpy as np
import pytest

from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.neighborhood import displacing_move, swap_move, touched_users
from repro.errors import ConfigurationError, InfeasibleDecisionError


def fresh(n_users=4, n_servers=2, n_channels=2):
    return OffloadingDecision.all_local(n_users, n_servers, n_channels)


class TestConstruction:
    def test_all_local(self):
        decision = fresh()
        assert decision.n_offloaded() == 0
        assert not decision.is_offloaded(0)
        assert decision.is_feasible()

    def test_explicit_vectors(self):
        decision = OffloadingDecision(
            3, 2, 2,
            server_of_user=np.array([0, LOCAL, 1]),
            channel_of_user=np.array([1, LOCAL, 0]),
        )
        assert decision.n_offloaded() == 2
        assert decision.occupant_of(0, 1) == 0
        assert decision.occupant_of(1, 0) == 2

    def test_rejects_missing_channel_vector(self):
        with pytest.raises(ConfigurationError):
            OffloadingDecision(3, 2, 2, server_of_user=np.zeros(3, dtype=int))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            OffloadingDecision(
                3, 2, 2,
                server_of_user=np.zeros(2, dtype=int),
                channel_of_user=np.zeros(2, dtype=int),
            )

    def test_rejects_slot_collision(self):
        with pytest.raises(InfeasibleDecisionError):
            OffloadingDecision(
                2, 2, 2,
                server_of_user=np.array([0, 0]),
                channel_of_user=np.array([0, 0]),
            )

    def test_rejects_half_local(self):
        with pytest.raises(InfeasibleDecisionError):
            OffloadingDecision(
                1, 2, 2,
                server_of_user=np.array([0]),
                channel_of_user=np.array([LOCAL]),
            )

    def test_rejects_out_of_range_slot(self):
        with pytest.raises(InfeasibleDecisionError):
            OffloadingDecision(
                1, 2, 2,
                server_of_user=np.array([5]),
                channel_of_user=np.array([0]),
            )

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            OffloadingDecision(-1, 2, 2)
        with pytest.raises(ConfigurationError):
            OffloadingDecision(2, 0, 2)
        with pytest.raises(ConfigurationError):
            OffloadingDecision(2, 2, 0)


class TestMutations:
    def test_assign_and_query(self):
        decision = fresh()
        decision.assign(1, 0, 1)
        assert decision.is_offloaded(1)
        assert decision.occupant_of(0, 1) == 1
        assert decision.server[1] == 0
        assert decision.channel[1] == 1

    def test_assign_moves_user(self):
        decision = fresh()
        decision.assign(0, 0, 0)
        decision.assign(0, 1, 1)
        assert decision.occupant_of(0, 0) == LOCAL  # old slot freed
        assert decision.occupant_of(1, 1) == 0

    def test_assign_to_occupied_slot_raises(self):
        decision = fresh()
        decision.assign(0, 0, 0)
        with pytest.raises(InfeasibleDecisionError):
            decision.assign(1, 0, 0)

    def test_reassign_same_user_same_slot_ok(self):
        decision = fresh()
        decision.assign(0, 0, 0)
        decision.assign(0, 0, 0)
        assert decision.occupant_of(0, 0) == 0

    def test_assign_out_of_range_raises(self):
        decision = fresh()
        with pytest.raises(InfeasibleDecisionError):
            decision.assign(0, 5, 0)
        with pytest.raises(InfeasibleDecisionError):
            decision.assign(0, 0, 9)

    def test_set_local_frees_slot(self):
        decision = fresh()
        decision.assign(2, 1, 0)
        decision.set_local(2)
        assert not decision.is_offloaded(2)
        assert decision.occupant_of(1, 0) == LOCAL

    def test_set_local_idempotent(self):
        decision = fresh()
        decision.set_local(0)
        decision.set_local(0)
        assert decision.n_offloaded() == 0

    def test_displace_and_assign_free_slot(self):
        decision = fresh()
        move = displacing_move(decision, 0, 0, 0)
        assert touched_users(move) == (0,)  # nobody displaced
        assert decision.with_move(move).occupant_of(0, 0) == 0
        assert decision.occupant_of(0, 0) == LOCAL  # the input is unchanged

    def test_displace_and_assign_occupied_slot(self):
        decision = fresh()
        decision.assign(1, 0, 0)
        move = displacing_move(decision, 0, 0, 0)
        assert touched_users(move) == (0, 1)
        moved = decision.with_move(move)
        assert moved.occupant_of(0, 0) == 0
        assert not moved.is_offloaded(1)
        assert decision.occupant_of(0, 0) == 1

    def test_swap_two_offloaded(self):
        decision = fresh()
        decision.assign(0, 0, 0)
        decision.assign(1, 1, 1)
        swapped = decision.with_move(swap_move(decision, 0, 1))
        assert swapped.occupant_of(0, 0) == 1
        assert swapped.occupant_of(1, 1) == 0

    def test_swap_offloaded_with_local(self):
        decision = fresh()
        decision.assign(0, 0, 0)
        swapped = decision.with_move(swap_move(decision, 0, 3))
        assert not swapped.is_offloaded(0)
        assert swapped.occupant_of(0, 0) == 3

    def test_swap_two_local_is_noop(self):
        decision = fresh()
        assert decision.with_move(swap_move(decision, 0, 1)) == decision

    def test_mutations_preserve_feasibility(self, rng):
        decision = fresh(n_users=8, n_servers=3, n_channels=2)
        for _ in range(500):
            op = rng.integers(4)
            u = int(rng.integers(8))
            if op == 0:
                server, channel = int(rng.integers(3)), int(rng.integers(2))
                decision = decision.with_move(
                    displacing_move(decision, u, server, channel)
                )
            elif op == 1:
                decision.set_local(u)
            elif op == 2:
                decision = decision.with_move(
                    swap_move(decision, u, int(rng.integers(8)))
                )
            else:
                free = decision.free_channels(int(rng.integers(3)))
                if free:
                    try:
                        decision.assign(u, 0, free[0])
                    except InfeasibleDecisionError:
                        pass
            assert decision.is_feasible()


class TestQueries:
    def test_users_on_server(self):
        decision = fresh(n_users=5, n_servers=2, n_channels=3)
        decision.assign(0, 0, 0)
        decision.assign(2, 0, 1)
        decision.assign(3, 1, 0)
        np.testing.assert_array_equal(decision.users_on_server(0), [0, 2])
        np.testing.assert_array_equal(decision.users_on_server(1), [3])

    def test_offloaded_users(self):
        decision = fresh()
        decision.assign(1, 0, 0)
        decision.assign(3, 1, 1)
        np.testing.assert_array_equal(decision.offloaded_users(), [1, 3])

    def test_free_channels(self):
        decision = fresh(n_channels=3)
        decision.assign(0, 0, 1)
        assert decision.free_channels(0) == [0, 2]
        assert decision.free_channels(1) == [0, 1, 2]

    def test_iter_assignments(self):
        decision = fresh()
        decision.assign(0, 1, 0)
        decision.assign(2, 0, 1)
        assignments = set(decision.iter_assignments())
        assert assignments == {(0, 1, 0), (2, 0, 1)}

    def test_is_offloaded_and_occupant_of_return_python_scalars(self):
        decision = fresh()
        decision.assign(1, 0, 0)
        assert decision.is_offloaded(1) is True
        assert decision.is_offloaded(0) is False
        assert decision.is_offloaded(np.int64(1)) is True
        assert type(decision.occupant_of(0, 0)) is int
        assert type(decision.occupant_of(1, 1)) is int


class TestDenseConversion:
    def test_roundtrip(self):
        decision = fresh(n_users=5, n_servers=3, n_channels=2)
        decision.assign(0, 2, 1)
        decision.assign(4, 0, 0)
        rebuilt = OffloadingDecision.from_dense(decision.to_dense())
        assert rebuilt == decision

    def test_dense_shape_and_sum(self):
        decision = fresh()
        decision.assign(0, 0, 0)
        dense = decision.to_dense()
        assert dense.shape == (4, 2, 2)
        assert dense.sum() == 1
        assert dense[0, 0, 0] == 1

    def test_from_dense_rejects_nonbinary(self):
        dense = np.zeros((2, 2, 2), dtype=int)
        dense[0, 0, 0] = 2
        with pytest.raises(InfeasibleDecisionError):
            OffloadingDecision.from_dense(dense)

    def test_from_dense_rejects_multi_slot_user(self):
        dense = np.zeros((2, 2, 2), dtype=int)
        dense[0, 0, 0] = 1
        dense[0, 1, 1] = 1
        with pytest.raises(InfeasibleDecisionError):
            OffloadingDecision.from_dense(dense)

    def test_from_dense_rejects_shared_slot(self):
        dense = np.zeros((2, 2, 2), dtype=int)
        dense[0, 0, 0] = 1
        dense[1, 0, 0] = 1
        with pytest.raises(InfeasibleDecisionError):
            OffloadingDecision.from_dense(dense)

    def test_from_dense_rejects_bad_rank(self):
        with pytest.raises(ConfigurationError):
            OffloadingDecision.from_dense(np.zeros((2, 2)))


class TestCopyEqualityHash:
    def test_copy_is_independent(self):
        decision = fresh()
        decision.assign(0, 0, 0)
        clone = decision.copy()
        clone.set_local(0)
        assert decision.is_offloaded(0)
        assert not clone.is_offloaded(0)

    def test_equality(self):
        a = fresh()
        b = fresh()
        assert a == b
        a.assign(0, 0, 0)
        assert a != b
        b.assign(0, 0, 0)
        assert a == b

    def test_hash_consistent_with_equality(self):
        a = fresh()
        b = fresh()
        a.assign(1, 1, 1)
        b.assign(1, 1, 1)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equality_with_other_type(self):
        assert fresh() != "not a decision"

    def test_repr_mentions_dimensions(self):
        text = repr(fresh())
        assert "U=4" in text and "S=2" in text and "N=2" in text


class TestRandomFeasible:
    def test_always_feasible(self, rng):
        for _ in range(50):
            decision = OffloadingDecision.random_feasible(10, 3, 2, rng)
            assert decision.is_feasible()

    def test_respects_slot_capacity(self, rng):
        # 10 users but only 2 slots.
        decision = OffloadingDecision.random_feasible(
            10, 1, 2, rng, offload_probability=1.0
        )
        assert decision.n_offloaded() <= 2

    def test_probability_zero_keeps_all_local(self, rng):
        decision = OffloadingDecision.random_feasible(
            10, 3, 2, rng, offload_probability=0.0
        )
        assert decision.n_offloaded() == 0

    def test_probability_one_fills_up(self, rng):
        decision = OffloadingDecision.random_feasible(
            3, 3, 2, rng, offload_probability=1.0
        )
        assert decision.n_offloaded() == 3

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(ConfigurationError):
            OffloadingDecision.random_feasible(3, 2, 2, rng, offload_probability=1.5)
