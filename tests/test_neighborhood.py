"""Tests for Algorithm 2's neighbourhood sampler."""

import numpy as np
import pytest

from repro.core.decision import OffloadingDecision
from repro.core.neighborhood import NeighborhoodSampler
from repro.errors import ConfigurationError


def offloaded_decision(n_users=4, n_servers=3, n_channels=2):
    decision = OffloadingDecision.all_local(n_users, n_servers, n_channels)
    decision.assign(0, 0, 0)
    decision.assign(1, 1, 1)
    return decision


#: Samplers that deterministically select one branch of Algorithm 2.
ONLY_TOGGLE = NeighborhoodSampler(toggle_below=1.0, swap_below=1.0, server_move_below=1.0)
ONLY_SWAP = NeighborhoodSampler(toggle_below=0.0, swap_below=1.0, server_move_below=1.0)
ONLY_SERVER_MOVE = NeighborhoodSampler(
    toggle_below=0.0, swap_below=0.0, server_move_below=1.0
)
ONLY_CHANNEL_MOVE = NeighborhoodSampler(
    toggle_below=0.0, swap_below=0.0, server_move_below=0.0
)


class TestValidation:
    def test_paper_defaults(self):
        sampler = NeighborhoodSampler()
        assert sampler.toggle_below == 0.05
        assert sampler.swap_below == 0.20
        assert sampler.server_move_below == 0.75

    def test_rejects_unordered_thresholds(self):
        with pytest.raises(ConfigurationError):
            NeighborhoodSampler(toggle_below=0.5, swap_below=0.2)
        with pytest.raises(ConfigurationError):
            NeighborhoodSampler(swap_below=0.8, server_move_below=0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            NeighborhoodSampler(toggle_below=-0.1)
        with pytest.raises(ConfigurationError):
            NeighborhoodSampler(server_move_below=1.5)


class TestBranches:
    def test_input_never_mutated(self, rng):
        decision = offloaded_decision()
        frozen = decision.copy()
        for _ in range(100):
            NeighborhoodSampler().propose(decision, rng)
        assert decision == frozen

    def test_toggle_flips_offload_state(self, rng):
        decision = offloaded_decision()
        for _ in range(50):
            new = ONLY_TOGGLE.propose(decision, rng)
            # Exactly one user changed offload state, except when the
            # toggled-in user displaced an occupant (two changes).
            changed = int(np.sum((new.server >= 0) != (decision.server >= 0)))
            assert changed in (1, 2)

    def test_toggle_on_local_user_offloads_it(self, rng):
        decision = OffloadingDecision.all_local(1, 2, 2)
        new = ONLY_TOGGLE.propose(decision, rng)
        assert new.n_offloaded() == 1

    def test_toggle_on_offloaded_user_localises_it(self, rng):
        decision = OffloadingDecision.all_local(1, 2, 2)
        decision.assign(0, 0, 0)
        new = ONLY_TOGGLE.propose(decision, rng)
        assert new.n_offloaded() == 0

    def test_server_move_changes_server(self, rng):
        decision = OffloadingDecision.all_local(1, 3, 2)
        decision.assign(0, 0, 0)
        for _ in range(50):
            new = ONLY_SERVER_MOVE.propose(decision, rng)
            assert new.is_offloaded(0)
            assert new.server[0] != 0

    def test_server_move_single_server_offloaded_is_noop(self, rng):
        decision = OffloadingDecision.all_local(1, 1, 2)
        decision.assign(0, 0, 0)
        new = ONLY_SERVER_MOVE.propose(decision, rng)
        assert new == decision

    def test_channel_move_keeps_server(self, rng):
        decision = OffloadingDecision.all_local(1, 2, 3)
        decision.assign(0, 1, 0)
        for _ in range(50):
            new = ONLY_CHANNEL_MOVE.propose(decision, rng)
            assert new.server[0] == 1
            assert new.channel[0] != 0

    def test_channel_move_single_band_is_noop(self, rng):
        decision = OffloadingDecision.all_local(2, 2, 1)
        decision.assign(0, 0, 0)
        new = ONLY_CHANNEL_MOVE.propose(decision, rng)
        assert new == decision

    def test_channel_move_on_local_user_assigns_slot(self, rng):
        decision = OffloadingDecision.all_local(1, 2, 3)
        new = ONLY_CHANNEL_MOVE.propose(decision, rng)
        assert new.n_offloaded() == 1

    def test_swap_exchanges_assignments(self, rng):
        decision = OffloadingDecision.all_local(2, 2, 2)
        decision.assign(0, 0, 0)
        decision.assign(1, 1, 1)
        new = ONLY_SWAP.propose(decision, rng)
        assert new.server[0] == 1 and new.channel[0] == 1
        assert new.server[1] == 0 and new.channel[1] == 0

    def test_swap_single_user_is_noop(self, rng):
        decision = OffloadingDecision.all_local(1, 2, 2)
        decision.assign(0, 0, 0)
        new = ONLY_SWAP.propose(decision, rng)
        assert new == decision

    def test_displacement_when_target_full(self, rng):
        # Both single-band servers occupied: any server move displaces
        # the other user to local (the target user is random).
        decision = OffloadingDecision.all_local(2, 2, 1)
        decision.assign(0, 0, 0)
        decision.assign(1, 1, 0)
        for _ in range(20):
            new = ONLY_SERVER_MOVE.propose(decision, rng)
            assert new.n_offloaded() == 1
            moved = int(new.offloaded_users()[0])
            # The mover landed on the other server; the occupant went local.
            assert new.server[moved] == 1 - decision.server[moved]
            assert not new.is_offloaded(1 - moved)


class TestFeasibilityInvariant:
    @pytest.mark.parametrize("sampler", [
        NeighborhoodSampler(),
        ONLY_TOGGLE,
        ONLY_SWAP,
        ONLY_SERVER_MOVE,
        ONLY_CHANNEL_MOVE,
    ])
    def test_chain_of_proposals_stays_feasible(self, sampler, rng):
        decision = OffloadingDecision.random_feasible(8, 3, 2, rng)
        for _ in range(300):
            decision = sampler.propose(decision, rng)
            assert decision.is_feasible()

    def test_all_branches_reachable_with_paper_mix(self, rng):
        """Over many proposals the default mix must exercise every move."""
        decision = OffloadingDecision.random_feasible(6, 3, 3, rng)
        sampler = NeighborhoodSampler()
        seen_offload_counts = set()
        for _ in range(600):
            new = sampler.propose(decision, rng)
            seen_offload_counts.add(new.n_offloaded() - decision.n_offloaded())
            decision = new
        # Toggle can both grow and shrink the offload set.
        assert {-1, 0, 1} & seen_offload_counts == {-1, 0, 1}
