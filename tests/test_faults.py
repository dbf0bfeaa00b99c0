"""Tests for the fault-injection subsystem and graceful degradation.

Covers the seeded fault models (``repro.faults.models``), scenario
injection (``repro.faults.inject``), the slot-restricted repair sampler
and degradation policies (``repro.core.degradation``), and the zero-rate
bitwise-identity property: a fault config whose every rate is zero must
leave every code path bit-for-bit identical to the fault-free one.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.decision import OffloadingDecision
from repro.core.degradation import (
    DEGRADATION_POLICIES,
    SlotRestrictedSampler,
    degrade,
    fallback_decision,
    restricted_sampler_for,
)
from repro.core.neighborhood import touched_users
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_STREAM,
    OUTAGE_CAPACITY_HZ,
    OUTAGE_GAIN_FACTOR,
    FaultConfig,
    FaultSet,
    apply_faults,
    draw_faults,
    draw_faults_for_seed,
    faulted_solution_metrics,
)
from repro.sim.config import SimulationConfig
from repro.sim.episodes import EpisodeConfig, run_episode
from repro.sim.rng import DirectDraws, child_rng
from repro.sim.scenario import Scenario
from repro.tasks.server import MecServer


def small_scenario(seed: int = 0, n_users: int = 6) -> Scenario:
    config = SimulationConfig(n_users=n_users, n_servers=3, n_subbands=2)
    return Scenario.build(config, seed=seed)


class TestFaultConfig:
    def test_defaults_are_trivial(self):
        assert FaultConfig().is_trivial

    def test_any_positive_rate_is_non_trivial(self):
        assert not FaultConfig(server_outage_probability=0.1).is_trivial
        assert not FaultConfig(server_degradation_probability=0.1).is_trivial
        assert not FaultConfig(band_outage_probability=0.1).is_trivial
        assert not FaultConfig(arrival_churn_probability=0.1).is_trivial

    @pytest.mark.parametrize(
        "field",
        [
            "server_outage_probability",
            "server_degradation_probability",
            "band_outage_probability",
            "arrival_churn_probability",
        ],
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rejects_out_of_range_rates(self, field, value):
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: value})

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.1])
    def test_rejects_bad_degraded_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            FaultConfig(degraded_capacity_fraction=fraction)


class TestFaultSet:
    def test_empty_is_empty(self):
        assert FaultSet.empty(3, 2).is_empty

    def test_non_empty(self):
        assert not FaultSet(3, 2, failed_servers=frozenset({1})).is_empty
        assert not FaultSet(3, 2, churned_users=frozenset({0})).is_empty

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ConfigurationError):
            FaultSet(0, 2)
        with pytest.raises(ConfigurationError):
            FaultSet(3, 0)

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ConfigurationError):
            FaultSet(3, 2, failed_servers=frozenset({3}))
        with pytest.raises(ConfigurationError):
            FaultSet(3, 2, degraded_servers=((5, 0.5),))
        with pytest.raises(ConfigurationError):
            FaultSet(3, 2, failed_bands=frozenset({(0, 2)}))
        with pytest.raises(ConfigurationError):
            FaultSet(3, 2, churned_users=frozenset({-1}))

    def test_rejects_failed_and_degraded_conflict(self):
        with pytest.raises(ConfigurationError):
            FaultSet(
                3,
                2,
                failed_servers=frozenset({1}),
                degraded_servers=((1, 0.5),),
            )

    def test_rejects_duplicate_degradation(self):
        with pytest.raises(ConfigurationError):
            FaultSet(3, 2, degraded_servers=((1, 0.5), (1, 0.25)))

    def test_rejects_bad_degraded_fraction(self):
        with pytest.raises(ConfigurationError):
            FaultSet(3, 2, degraded_servers=((1, 0.0),))

    def test_slot_is_dead(self):
        faults = FaultSet(
            3,
            2,
            failed_servers=frozenset({0}),
            failed_bands=frozenset({(1, 1)}),
        )
        assert faults.slot_is_dead(0, 0) and faults.slot_is_dead(0, 1)
        assert faults.slot_is_dead(1, 1)
        assert not faults.slot_is_dead(1, 0)
        assert not faults.slot_is_dead(2, 0)

    def test_alive_channels(self):
        faults = FaultSet(
            3,
            2,
            failed_servers=frozenset({0}),
            failed_bands=frozenset({(1, 0)}),
        )
        assert faults.alive_channels() == ((), (1,), (0, 1))


class TestDrawFaults:
    CONFIG = FaultConfig(
        server_outage_probability=0.3,
        server_degradation_probability=0.3,
        band_outage_probability=0.3,
        arrival_churn_probability=0.3,
    )

    def test_deterministic_per_seed(self):
        a = draw_faults_for_seed(self.CONFIG, 10, 4, 3, seed=7)
        b = draw_faults_for_seed(self.CONFIG, 10, 4, 3, seed=7)
        assert a == b

    def test_different_seeds_eventually_differ(self):
        draws = {
            draw_faults_for_seed(self.CONFIG, 10, 4, 3, seed=s)
            for s in range(20)
        }
        assert len(draws) > 1

    def test_trivial_config_consumes_no_randomness(self):
        rng = child_rng(0, FAULT_STREAM)
        untouched = child_rng(0, FAULT_STREAM)
        faults = draw_faults(FaultConfig(), 10, 4, 3, rng)
        assert faults.is_empty
        # The generator was never advanced: its next draw matches a
        # fresh generator's first draw bit for bit.
        assert rng.random() == untouched.random()

    def test_certain_outage_kills_everything(self):
        faults = draw_faults(
            FaultConfig(server_outage_probability=1.0),
            5,
            4,
            3,
            child_rng(0, FAULT_STREAM),
        )
        assert faults.failed_servers == frozenset(range(4))
        assert faults.degraded_servers == ()
        assert faults.failed_bands == frozenset()

    def test_certain_churn_withdraws_every_user(self):
        faults = draw_faults(
            FaultConfig(arrival_churn_probability=1.0),
            5,
            4,
            3,
            child_rng(0, FAULT_STREAM),
        )
        assert faults.churned_users == frozenset(range(5))

    def test_rejects_negative_user_count(self):
        with pytest.raises(ConfigurationError):
            draw_faults(FaultConfig(), -1, 4, 3, child_rng(0, FAULT_STREAM))


class TestApplyFaults:
    def test_empty_fault_set_returns_same_object(self):
        scenario = small_scenario()
        faults = FaultSet.empty(scenario.n_servers, scenario.n_subbands)
        assert apply_faults(scenario, faults) is scenario

    def test_rejects_grid_mismatch(self):
        scenario = small_scenario()
        with pytest.raises(ConfigurationError):
            apply_faults(scenario, FaultSet.empty(99, 2))

    def test_failed_server_loses_capacity_and_gains(self):
        scenario = small_scenario()
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            failed_servers=frozenset({1}),
        )
        faulted = apply_faults(scenario, faults)
        assert faulted is not scenario
        assert faulted.servers[1].cpu_hz == OUTAGE_CAPACITY_HZ
        assert faulted.servers[0].cpu_hz == scenario.servers[0].cpu_hz
        np.testing.assert_allclose(
            faulted.gains[:, 1, :], scenario.gains[:, 1, :] * OUTAGE_GAIN_FACTOR
        )
        np.testing.assert_array_equal(
            faulted.gains[:, 0, :], scenario.gains[:, 0, :]
        )

    def test_degraded_server_keeps_gains(self):
        scenario = small_scenario()
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            degraded_servers=((2, 0.25),),
        )
        faulted = apply_faults(scenario, faults)
        assert faulted.servers[2].cpu_hz == pytest.approx(
            scenario.servers[2].cpu_hz * 0.25
        )
        np.testing.assert_array_equal(faulted.gains, scenario.gains)

    def test_failed_band_scales_only_that_slot(self):
        scenario = small_scenario()
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            failed_bands=frozenset({(0, 1)}),
        )
        faulted = apply_faults(scenario, faults)
        np.testing.assert_allclose(
            faulted.gains[:, 0, 1], scenario.gains[:, 0, 1] * OUTAGE_GAIN_FACTOR
        )
        np.testing.assert_array_equal(
            faulted.gains[:, 0, 0], scenario.gains[:, 0, 0]
        )
        assert faulted.servers[0].cpu_hz == scenario.servers[0].cpu_hz

    def test_original_scenario_untouched(self):
        scenario = small_scenario()
        before = scenario.gains.copy()
        apply_faults(
            scenario,
            FaultSet(
                scenario.n_servers,
                scenario.n_subbands,
                failed_servers=frozenset({0}),
            ),
        )
        np.testing.assert_array_equal(scenario.gains, before)


class TestMecServerDegraded:
    def test_capacity_scaled(self):
        server = MecServer(cpu_hz=10e9)
        assert server.degraded(0.25).cpu_hz == pytest.approx(2.5e9)

    def test_full_fraction_is_identity_capacity(self):
        assert MecServer(cpu_hz=10e9).degraded(1.0).cpu_hz == 10e9

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            MecServer(cpu_hz=10e9).degraded(fraction)


class TestFallbackDecision:
    def _decision(self) -> OffloadingDecision:
        decision = OffloadingDecision.all_local(4, 3, 2)
        decision.assign(0, 0, 0)
        decision.assign(1, 1, 1)
        decision.assign(2, 2, 0)
        return decision

    def test_dead_slot_forces_local(self):
        faults = FaultSet(3, 2, failed_servers=frozenset({0}))
        repaired, n_fallback, n_churned = fallback_decision(
            self._decision(), faults
        )
        assert not repaired.is_offloaded(0)
        assert repaired.is_offloaded(1) and repaired.is_offloaded(2)
        assert (n_fallback, n_churned) == (1, 0)

    def test_failed_band_forces_local(self):
        faults = FaultSet(3, 2, failed_bands=frozenset({(1, 1)}))
        repaired, n_fallback, n_churned = fallback_decision(
            self._decision(), faults
        )
        assert not repaired.is_offloaded(1)
        assert (n_fallback, n_churned) == (1, 0)

    def test_churn_wins_tie_over_dead_slot(self):
        faults = FaultSet(
            3,
            2,
            failed_servers=frozenset({0}),
            churned_users=frozenset({0}),
        )
        repaired, n_fallback, n_churned = fallback_decision(
            self._decision(), faults
        )
        assert not repaired.is_offloaded(0)
        assert (n_fallback, n_churned) == (0, 1)

    def test_churned_local_user_counted_without_fallback(self):
        faults = FaultSet(3, 2, churned_users=frozenset({3}))
        repaired, n_fallback, n_churned = fallback_decision(
            self._decision(), faults
        )
        assert (n_fallback, n_churned) == (0, 1)
        assert repaired.is_offloaded(0)

    def test_input_decision_is_not_mutated(self):
        decision = self._decision()
        faults = FaultSet(3, 2, failed_servers=frozenset({0}))
        fallback_decision(decision, faults)
        assert decision.is_offloaded(0)


class TestRestrictedSampler:
    FAULTS = FaultSet(
        3,
        2,
        failed_servers=frozenset({1}),
        failed_bands=frozenset({(0, 1)}),
        churned_users=frozenset({2}),
    )

    def test_builder_mirrors_fault_set(self):
        sampler = restricted_sampler_for(self.FAULTS)
        assert sampler.alive_channels == ((0,), (), (0, 1))
        assert sampler.pinned_users == (2,)

    def test_never_proposes_dead_slots_or_pinned_offloads(self):
        sampler = restricted_sampler_for(self.FAULTS)
        rng = np.random.default_rng(1)
        decision = OffloadingDecision.all_local(5, 3, 2)
        for _ in range(500):
            proposal, touched = sampler.propose_move(decision, rng)
            for user, server, band in proposal.iter_assignments():
                assert not self.FAULTS.slot_is_dead(server, band), (
                    user,
                    server,
                    band,
                )
                assert user not in self.FAULTS.churned_users
            if touched:
                decision = proposal

    def test_all_dead_degenerates_to_noop(self):
        faults = FaultSet(2, 1, failed_servers=frozenset({0, 1}))
        sampler = restricted_sampler_for(faults)
        rng = np.random.default_rng(0)
        decision = OffloadingDecision.all_local(3, 2, 1)
        for _ in range(100):
            proposal, touched = sampler.propose_move(decision, rng)
            assert proposal.n_offloaded() == 0

    def test_moves_equal_the_copy_and_mutate_proposals(self):
        """Read-only moves rebuild the proposals of the copy-and-mutate sampler.

        The digest covers 3000 proposals (assignment bytes and touched set)
        of a walk on a faulted 8-user grid.  It was recorded with the
        sampler that copied the incumbent and mutated the copy, before
        moves were computed from the unmodified incumbent.  ``move`` must
        leave the incumbent as it was, build the same proposal and slot
        map, and draw the same stream as ``propose_move``.
        """
        faults = FaultSet(
            3,
            3,
            failed_servers=frozenset({1}),
            failed_bands=frozenset({(0, 1), (2, 2)}),
            churned_users=frozenset({2}),
        )
        sampler = restricted_sampler_for(faults)
        rng = np.random.default_rng(2025)
        mirrored = np.random.default_rng(2025)
        decision = OffloadingDecision.all_local(8, 3, 3)
        digest = hashlib.sha256()
        sizes = set()
        with DirectDraws(mirrored) as draws:
            for step in range(3000):
                proposal, touched = sampler.propose_move(decision, rng)
                before = (decision.server.tobytes(), decision.channel.tobytes())
                move = sampler.move(decision, draws)
                assert (decision.server.tobytes(), decision.channel.tobytes()) == before
                rebuilt = decision.with_move(move)
                assert rebuilt == proposal and touched_users(move) == touched
                assert np.array_equal(rebuilt.free_slot_mask(), proposal.free_slot_mask())
                assert proposal.is_feasible()
                digest.update(
                    proposal.server.tobytes() + proposal.channel.tobytes() + bytes(touched)
                )
                sizes.add(len(touched))
                if step % 3 != 2:
                    decision = proposal
        assert digest.hexdigest() == (
            "e7d9b0a3c916c9e0ad4a9318af642e4e0255ff22e5bb9586ab935cd687c14e76"
        )
        # No-ops (pinned target, no surviving slot), single-user moves and
        # displacements or swaps all occur.
        assert sizes == {0, 1, 2}
        assert rng.bit_generator.state == mirrored.bit_generator.state

    def test_dispatch_matches_base_sampler_thresholds(self):
        sampler = SlotRestrictedSampler(alive_channels=((0, 1), (0, 1)))
        assert sampler.toggle_below == restricted_sampler_for(
            FaultSet.empty(2, 2)
        ).toggle_below


class TestDegrade:
    def _planned(self, scenario):
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-1)
        )
        return scheduler.schedule(scenario, child_rng(0, 100))

    def test_rejects_unknown_policy(self):
        scenario = small_scenario()
        planned = self._planned(scenario)
        faults = FaultSet.empty(scenario.n_servers, scenario.n_subbands)
        with pytest.raises(ConfigurationError):
            degrade(scenario, planned, faults, policy="pray")

    def test_no_faults_full_retention(self):
        scenario = small_scenario()
        planned = self._planned(scenario)
        faults = FaultSet.empty(scenario.n_servers, scenario.n_subbands)
        plan = degrade(scenario, planned, faults, "local_fallback")
        assert plan.utility_retention == pytest.approx(1.0)
        assert plan.n_fallback == 0 and plan.n_churned == 0
        assert plan.degraded_utility == pytest.approx(planned.utility)

    def test_local_fallback_repairs_dead_slots(self):
        scenario = small_scenario()
        planned = self._planned(scenario)
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            failed_servers=frozenset({0, 1}),
        )
        faulted = apply_faults(scenario, faults)
        plan = degrade(faulted, planned, faults, "local_fallback")
        for user, server, band in plan.result.decision.iter_assignments():
            assert not faults.slot_is_dead(server, band)
        assert plan.degraded_utility >= 0.0
        assert plan.utility_retention <= 1.0 + 1e-12

    def test_reschedule_never_worse_than_fallback(self):
        scenario = small_scenario(seed=3, n_users=8)
        planned = self._planned(scenario)
        faults = draw_faults_for_seed(
            FaultConfig(
                server_outage_probability=0.5,
                arrival_churn_probability=0.2,
            ),
            scenario.n_users,
            scenario.n_servers,
            scenario.n_subbands,
            seed=3,
        )
        faulted = apply_faults(scenario, faults)
        fallback = degrade(faulted, planned, faults, "local_fallback")
        repaired = degrade(
            faulted,
            planned,
            faults,
            "reschedule",
            rng=child_rng(3, 200),
            schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-1),
        )
        assert repaired.degraded_utility >= fallback.degraded_utility - 1e-12
        for user, server, band in repaired.result.decision.iter_assignments():
            assert not faults.slot_is_dead(server, band)
            assert user not in faults.churned_users

    def test_reschedule_is_deterministic(self):
        scenario = small_scenario(seed=5)
        planned = self._planned(scenario)
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            failed_servers=frozenset({2}),
        )
        faulted = apply_faults(scenario, faults)
        schedule = AnnealingSchedule(chain_length=10, min_temperature=1e-1)
        a = degrade(
            faulted, planned, faults, "reschedule",
            rng=child_rng(5, 200), schedule=schedule,
        )
        b = degrade(
            faulted, planned, faults, "reschedule",
            rng=child_rng(5, 200), schedule=schedule,
        )
        assert a.degraded_utility == b.degraded_utility
        assert a.result.decision == b.result.decision

    def test_non_positive_plan_retains_everything(self):
        scenario = small_scenario()
        decision = OffloadingDecision.all_local(
            scenario.n_users, scenario.n_servers, scenario.n_subbands
        )
        evaluator = ObjectiveEvaluator(scenario)
        from repro.core.allocation import kkt_allocation
        from repro.core.scheduler import ScheduleResult

        planned = ScheduleResult(
            decision=decision,
            allocation=kkt_allocation(scenario, decision),
            utility=evaluator.evaluate(decision),
            evaluations=1,
            wall_time_s=0.0,
        )
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            failed_servers=frozenset({0}),
        )
        plan = degrade(apply_faults(scenario, faults), planned, faults)
        assert plan.utility_retention == 1.0

    def test_policy_registry_is_exhaustive(self):
        assert DEGRADATION_POLICIES == ("local_fallback", "reschedule")


class TestFaultedSolutionMetrics:
    def test_fields_propagate(self):
        scenario = small_scenario()
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-1)
        )
        result = scheduler.schedule(scenario, child_rng(0, 100))
        metrics = faulted_solution_metrics(
            scenario,
            result,
            planned_utility=2.0 * result.utility if result.utility > 0 else 1.0,
            n_fallback=3,
            n_churned=1,
            reschedule_wall_time_s=0.25,
        )
        assert metrics.n_fallback == 3
        assert metrics.n_churned == 1
        assert metrics.reschedule_wall_time_s == 0.25
        assert 0.0 <= metrics.utility_retention <= 1.0 + 1e-12

    def test_defaults_on_plain_metrics(self):
        from repro.sim.metrics import solution_metrics

        scenario = small_scenario()
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-1)
        )
        result = scheduler.schedule(scenario, child_rng(0, 100))
        metrics = solution_metrics(scenario, result)
        assert metrics.utility_retention == 1.0
        assert metrics.n_fallback == 0
        assert metrics.n_churned == 0
        assert metrics.reschedule_wall_time_s == 0.0


class TestZeroRateBitwiseIdentity:
    """FaultConfig with all-zero rates must be invisible everywhere."""

    def test_scheduler_path_identical(self):
        scenario = small_scenario()
        faults = draw_faults_for_seed(
            FaultConfig(), scenario.n_users, scenario.n_servers,
            scenario.n_subbands, seed=0,
        )
        assert faults.is_empty
        assert apply_faults(scenario, faults) is scenario
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-1)
        )
        plain = scheduler.schedule(scenario, child_rng(0, 100))
        through_faults = scheduler.schedule(
            apply_faults(scenario, faults), child_rng(0, 100)
        )
        assert plain.utility == through_faults.utility
        assert plain.evaluations == through_faults.evaluations
        assert plain.decision == through_faults.decision

    def test_episode_path_identical(self):
        base = SimulationConfig(n_users=0, n_servers=3, n_subbands=2)
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(chain_length=5, min_temperature=1e-1)
        )
        common = dict(
            base=base,
            pool_size=6,
            n_slots=4,
            activity_probability=0.7,
            reposition_probability=0.1,
        )
        plain = run_episode(EpisodeConfig(**common), scheduler, seed=11)
        zero = run_episode(
            EpisodeConfig(**common, faults=FaultConfig()), scheduler, seed=11
        )
        assert plain.utilities() == zero.utilities()
        for a, b in zip(plain.slots, zero.slots):
            assert a.active_users == b.active_users
            assert a.failed_servers == b.failed_servers
            assert a.churned_users == b.churned_users == []
            for name, x in dataclasses.asdict(a.metrics).items():
                if name == "wall_time_s":
                    continue  # the one field determinism does not cover
                y = getattr(b.metrics, name)
                if isinstance(x, float) and np.isnan(x):
                    assert np.isnan(y), name
                else:
                    assert x == y, name

    def test_episode_faults_actually_fire_at_positive_rates(self):
        base = SimulationConfig(n_users=0, n_servers=3, n_subbands=2)
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(chain_length=5, min_temperature=1e-1)
        )
        result = run_episode(
            EpisodeConfig(
                base=base,
                pool_size=6,
                n_slots=6,
                activity_probability=0.9,
                faults=FaultConfig(
                    server_outage_probability=0.5,
                    arrival_churn_probability=0.5,
                ),
            ),
            scheduler,
            seed=1,
        )
        assert result.total_outage_slots() > 0
        assert any(record.churned_users for record in result.slots)
