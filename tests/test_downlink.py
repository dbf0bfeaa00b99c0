"""Tests for the downlink-aware evaluation extension."""

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.decision import OffloadingDecision
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.errors import ConfigurationError
from repro.extensions.downlink import DownlinkAwareEvaluator, DownlinkModel


class TestDownlinkModel:
    def test_rate_matrix_shape(self, tiny_scenario):
        rates = DownlinkModel().rates_bps(tiny_scenario)
        assert rates.shape == (4, 2)
        assert np.all(rates > 0.0)

    def test_rate_hand_computation(self, tiny_scenario):
        model = DownlinkModel(bs_tx_power_dbm=46.0)
        rates = model.rates_bps(tiny_scenario)
        p_bs = 10 ** (46.0 / 10.0) / 1000.0
        expected = 20e6 * np.log2(1.0 + p_bs * 1e-9 / 1e-13)
        assert rates[0, 0] == pytest.approx(expected)

    def test_output_bits_fraction(self, tiny_scenario):
        model = DownlinkModel(output_fraction=0.25)
        np.testing.assert_allclose(
            model.output_bits(tiny_scenario), 0.25 * tiny_scenario.input_bits
        )

    def test_rejects_nonpositive_fraction(self):
        with pytest.raises(ConfigurationError):
            DownlinkModel(output_fraction=0.0)


class TestDownlinkAwareEvaluator:
    def decision(self):
        decision = OffloadingDecision.all_local(4, 2, 2)
        decision.assign(0, 0, 0)
        decision.assign(1, 1, 1)
        return decision

    def test_all_local_unchanged(self, tiny_scenario):
        evaluator = DownlinkAwareEvaluator(tiny_scenario)
        assert evaluator.evaluate(OffloadingDecision.all_local(4, 2, 2)) == 0.0

    def test_penalises_offloads(self, tiny_scenario):
        base = ObjectiveEvaluator(tiny_scenario)
        aware = DownlinkAwareEvaluator(
            tiny_scenario, DownlinkModel(output_fraction=0.5)
        )
        decision = self.decision()
        assert aware.evaluate(decision) < base.evaluate(decision)

    def test_penalty_matches_hand_computation(self, tiny_scenario):
        model = DownlinkModel(output_fraction=0.5)
        base = ObjectiveEvaluator(tiny_scenario)
        aware = DownlinkAwareEvaluator(tiny_scenario, model)
        decision = OffloadingDecision.all_local(4, 2, 2)
        decision.assign(0, 0, 0)
        t_dl = model.output_bits(tiny_scenario)[0] / model.rates_bps(tiny_scenario)[0, 0]
        # lam * beta_t * t_dl / t_local with lam=1, beta_t=0.5, t_local=1.
        expected_penalty = 0.5 * t_dl
        assert aware.evaluate(decision) == pytest.approx(
            base.evaluate(decision) - expected_penalty
        )

    def test_bigger_output_bigger_penalty(self, tiny_scenario):
        decision = self.decision()
        small = DownlinkAwareEvaluator(
            tiny_scenario, DownlinkModel(output_fraction=0.1)
        ).evaluate(decision)
        large = DownlinkAwareEvaluator(
            tiny_scenario, DownlinkModel(output_fraction=0.9)
        ).evaluate(decision)
        assert large < small

    def test_breakdown_consistent_with_fast_path(self, small_random_scenario, rng):
        evaluator = DownlinkAwareEvaluator(small_random_scenario)
        decision = OffloadingDecision.random_feasible(
            small_random_scenario.n_users,
            small_random_scenario.n_servers,
            small_random_scenario.n_subbands,
            rng,
        )
        fast = evaluator.evaluate(decision)
        breakdown = evaluator.breakdown(decision)
        assert breakdown.system_utility == pytest.approx(fast, rel=1e-10)

    def test_breakdown_adds_download_time(self, tiny_scenario):
        base = ObjectiveEvaluator(tiny_scenario)
        aware = DownlinkAwareEvaluator(tiny_scenario)
        decision = self.decision()
        base_times = base.breakdown(decision).time_s
        aware_times = aware.breakdown(decision).time_s
        offloaded = decision.server >= 0
        assert np.all(aware_times[offloaded] > base_times[offloaded])
        np.testing.assert_array_equal(
            aware_times[~offloaded], base_times[~offloaded]
        )

    def test_energy_unaffected(self, tiny_scenario):
        decision = self.decision()
        base_energy = ObjectiveEvaluator(tiny_scenario).breakdown(decision).energy_j
        aware_energy = DownlinkAwareEvaluator(tiny_scenario).breakdown(decision).energy_j
        np.testing.assert_array_equal(base_energy, aware_energy)

    def test_schedules_through_tsajs(self, small_random_scenario):
        scheduler = TsajsScheduler(
            schedule=AnnealingSchedule(min_temperature=1e-2),
            evaluator_factory=DownlinkAwareEvaluator,
        )
        result = scheduler.schedule(
            small_random_scenario, np.random.default_rng(0)
        )
        assert result.utility >= 0.0
        # The reported utility is the downlink-aware value.
        aware = DownlinkAwareEvaluator(small_random_scenario)
        assert aware.evaluate(result.decision) == pytest.approx(result.utility)

    def test_negligible_output_converges_to_base(self, small_random_scenario, rng):
        decision = OffloadingDecision.random_feasible(
            small_random_scenario.n_users,
            small_random_scenario.n_servers,
            small_random_scenario.n_subbands,
            rng,
        )
        base = ObjectiveEvaluator(small_random_scenario).evaluate(decision)
        aware = DownlinkAwareEvaluator(
            small_random_scenario, DownlinkModel(output_fraction=1e-9)
        ).evaluate(decision)
        assert aware == pytest.approx(base, abs=1e-6)
