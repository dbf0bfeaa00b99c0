"""Tests for the fading models and the robustness experiment."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.fading import RayleighFading, RicianFading, faded_scenario


class TestRayleighFading:
    def test_unit_mean(self):
        factors = RayleighFading().sample_factors(
            (100_000,), np.random.default_rng(0)
        )
        assert factors.mean() == pytest.approx(1.0, rel=0.02)

    def test_positive(self):
        factors = RayleighFading().sample_factors((1000,), np.random.default_rng(1))
        assert np.all(factors > 0.0)

    def test_shape(self):
        factors = RayleighFading().sample_factors((3, 4, 5), np.random.default_rng(2))
        assert factors.shape == (3, 4, 5)


class TestRicianFading:
    def test_unit_mean_any_k(self):
        for k in (0.0, 1.0, 5.0, 20.0):
            factors = RicianFading(k_factor=k).sample_factors(
                (200_000,), np.random.default_rng(0)
            )
            assert factors.mean() == pytest.approx(1.0, rel=0.02), k

    def test_larger_k_less_variance(self):
        rng_soft = np.random.default_rng(0)
        rng_hard = np.random.default_rng(0)
        soft = RicianFading(k_factor=1.0).sample_factors((100_000,), rng_soft)
        hard = RicianFading(k_factor=20.0).sample_factors((100_000,), rng_hard)
        assert hard.var() < soft.var()

    def test_k_zero_close_to_rayleigh_variance(self):
        factors = RicianFading(k_factor=0.0).sample_factors(
            (200_000,), np.random.default_rng(3)
        )
        # Exp(1) has variance 1.
        assert factors.var() == pytest.approx(1.0, rel=0.05)

    def test_rejects_negative_k(self):
        with pytest.raises(ConfigurationError):
            RicianFading(k_factor=-1.0)


class TestFadedScenario:
    def test_preserves_structure(self, tiny_scenario):
        realised = faded_scenario(
            tiny_scenario, RicianFading(), np.random.default_rng(0)
        )
        assert realised.n_users == tiny_scenario.n_users
        assert realised.gains.shape == tiny_scenario.gains.shape
        assert np.all(realised.gains > 0.0)
        # Tasks and radios untouched.
        np.testing.assert_array_equal(realised.cycles, tiny_scenario.cycles)
        assert realised.noise_watts == tiny_scenario.noise_watts

    def test_gains_actually_change(self, tiny_scenario):
        realised = faded_scenario(
            tiny_scenario, RayleighFading(), np.random.default_rng(0)
        )
        assert not np.array_equal(realised.gains, tiny_scenario.gains)

    def test_original_untouched(self, tiny_scenario):
        before = tiny_scenario.gains.copy()
        faded_scenario(tiny_scenario, RayleighFading(), np.random.default_rng(0))
        np.testing.assert_array_equal(tiny_scenario.gains, before)

    def test_flat_fading_constant_across_subbands(self, tiny_scenario):
        realised = faded_scenario(
            tiny_scenario,
            RayleighFading(),
            np.random.default_rng(0),
            per_subband=False,
        )
        np.testing.assert_array_equal(
            realised.gains[:, :, 0], realised.gains[:, :, 1]
        )

    def test_selective_fading_varies_across_subbands(self, tiny_scenario):
        realised = faded_scenario(
            tiny_scenario,
            RayleighFading(),
            np.random.default_rng(0),
            per_subband=True,
        )
        assert not np.array_equal(realised.gains[:, :, 0], realised.gains[:, :, 1])

    def test_hard_channel_small_perturbation(self, tiny_scenario):
        realised = faded_scenario(
            tiny_scenario, RicianFading(k_factor=1000.0), np.random.default_rng(0)
        )
        ratio = realised.gains / tiny_scenario.gains
        assert np.all(np.abs(ratio - 1.0) < 0.3)


@pytest.mark.slow
class TestExtFadingExperiment:
    @pytest.fixture(scope="class")
    def output(self):
        from repro.experiments import ext_fading

        return ext_fading.run(ext_fading.ExtFadingSettings.quick())

    def test_structure(self, output):
        assert output.experiment_id == "ext_fading"
        assert output.raw["models"] == ["Rician K=10", "Rayleigh"]

    def test_rayleigh_hurts_more_than_hard_rician(self, output):
        series = output.raw["series"]
        assert (
            series["Rayleigh"]["loss_percent"]
            >= series["Rician K=10"]["loss_percent"]
        )

    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "ext_fading" in EXPERIMENTS
