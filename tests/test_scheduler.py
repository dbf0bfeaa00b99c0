"""Tests for the TSAJS scheduler (Algorithm 1 end to end)."""

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import Scheduler, TsajsScheduler
from repro.sim.validation import validate_result
from tests.conftest import make_scenario

QUICK = AnnealingSchedule(min_temperature=1e-2)


class TestTsajsScheduler:
    def test_satisfies_scheduler_protocol(self):
        assert isinstance(TsajsScheduler(), Scheduler)
        assert TsajsScheduler.name == "TSAJS"

    def test_result_is_feasible(self, small_random_scenario, rng):
        result = TsajsScheduler(schedule=QUICK).schedule(small_random_scenario, rng)
        validate_result(small_random_scenario, result)

    def test_utility_matches_reevaluation(self, small_random_scenario, rng):
        result = TsajsScheduler(schedule=QUICK).schedule(small_random_scenario, rng)
        evaluator = ObjectiveEvaluator(small_random_scenario)
        assert evaluator.evaluate(result.decision) == pytest.approx(result.utility)

    def test_never_below_all_local(self, small_random_scenario, rng):
        result = TsajsScheduler(schedule=QUICK).schedule(small_random_scenario, rng)
        assert result.utility >= 0.0

    def test_offloads_attractive_tiny_instance(self, tiny_scenario, rng):
        # Constant strong gains: offloading is clearly beneficial.
        result = TsajsScheduler(schedule=QUICK).schedule(tiny_scenario, rng)
        assert result.decision.n_offloaded() >= 1
        assert result.utility > 0.0

    def test_deterministic_given_rng_seed(self, small_random_scenario):
        results = [
            TsajsScheduler(schedule=QUICK).schedule(
                small_random_scenario, np.random.default_rng(7)
            )
            for _ in range(2)
        ]
        assert results[0].utility == results[1].utility
        assert results[0].decision == results[1].decision

    def test_reports_positive_metadata(self, small_random_scenario, rng):
        result = TsajsScheduler(schedule=QUICK).schedule(small_random_scenario, rng)
        assert result.evaluations > 0
        assert result.wall_time_s > 0.0

    def test_trace_recorded_when_requested(self, small_random_scenario, rng):
        scheduler = TsajsScheduler(schedule=QUICK, record_trace=True)
        result = scheduler.schedule(small_random_scenario, rng)
        assert len(result.trace) > 0
        # Best-so-far trace is non-decreasing.
        assert all(
            earlier <= later for earlier, later in zip(result.trace, result.trace[1:])
        )

    def test_trace_empty_by_default(self, small_random_scenario, rng):
        result = TsajsScheduler(schedule=QUICK).schedule(small_random_scenario, rng)
        assert result.trace == []

    def test_falls_back_to_all_local_when_offloading_hurts(self, rng):
        # Abysmal channels: every offload has huge upload cost.
        scenario = make_scenario(gains=np.full((4, 2, 2), 1e-16))
        result = TsajsScheduler(schedule=QUICK).schedule(scenario, rng)
        assert result.decision.n_offloaded() == 0
        assert result.utility == 0.0

    def test_longer_chain_never_hurts_on_average(self):
        scenario = make_scenario(n_users=8, n_servers=2, n_subbands=2)
        utilities = {}
        for chain in (5, 40):
            values = [
                TsajsScheduler(
                    schedule=AnnealingSchedule(
                        chain_length=chain, min_temperature=1e-2
                    )
                ).schedule(scenario, np.random.default_rng(seed)).utility
                for seed in range(5)
            ]
            utilities[chain] = np.mean(values)
        assert utilities[40] >= utilities[5] - 1e-6

    def test_default_rng_works(self, tiny_scenario):
        result = TsajsScheduler(schedule=QUICK).schedule(tiny_scenario)
        assert result.utility >= 0.0

    def test_allocation_respects_capacity(self, small_random_scenario, rng):
        result = TsajsScheduler(schedule=QUICK).schedule(small_random_scenario, rng)
        for s in range(small_random_scenario.n_servers):
            assert result.allocation[:, s].sum() <= (
                small_random_scenario.server_cpu_hz[s] * (1 + 1e-9)
            )

    def test_default_initial_temperature_is_subband_count(self, tiny_scenario, rng):
        # Indirect check: scheduling must work with the paper's default
        # schedule, whose T0 resolves to N at run time.
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(min_temperature=1e-1)
        )
        result = scheduler.schedule(tiny_scenario, rng)
        assert result.utility >= 0.0

    def test_empty_scenario_returns_empty_plan(self, rng):
        scenario = make_scenario(n_users=0)
        result = TsajsScheduler(schedule=QUICK).schedule(scenario, rng)
        assert result.utility == 0.0
        assert result.decision.n_offloaded() == 0
        assert result.allocation.shape == (0, 2)
