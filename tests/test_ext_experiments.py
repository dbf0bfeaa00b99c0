"""Tests for the extension experiment drivers."""

import pytest

from repro.experiments import ext_downlink, ext_power_control
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_text


@pytest.mark.slow
class TestExtPowerControl:
    @pytest.fixture(scope="class")
    def output(self):
        return ext_power_control.run(
            ext_power_control.ExtPowerControlSettings.quick()
        )

    def test_structure(self, output):
        assert output.experiment_id == "ext_power_control"
        assert output.raw["user_counts"] == [10]
        entry = output.raw["series"][10]
        assert {"base", "power", "joint", "gain_percent"} <= set(entry)
        assert render_text(output)

    def test_power_pass_never_loses(self, output):
        entry = output.raw["series"][10]
        assert entry["power"].mean >= entry["base"].mean - 1e-9

    def test_gain_reported_consistently(self, output):
        entry = output.raw["series"][10]
        expected = 100.0 * (entry["joint"].mean - entry["base"].mean) / abs(
            entry["base"].mean
        )
        assert entry["gain_percent"] == pytest.approx(expected)


@pytest.mark.slow
class TestExtDownlink:
    @pytest.fixture(scope="class")
    def output(self):
        return ext_downlink.run(ext_downlink.ExtDownlinkSettings.quick())

    def test_structure(self, output):
        assert output.experiment_id == "ext_downlink"
        assert output.raw["output_fractions"] == [0.01, 2.0]
        assert len(output.raw["utility"]) == 2
        assert len(output.raw["offloaded"]) == 2

    def test_bulkier_output_never_helps(self, output):
        # Utility with 200 % output cannot beat utility with 1 % output.
        assert output.raw["utility"][1].mean <= output.raw["utility"][0].mean + 1e-9


class TestRegistration:
    def test_extension_experiments_registered(self):
        assert "ext_power_control" in EXPERIMENTS
        assert "ext_downlink" in EXPERIMENTS

    def test_quick_entry_points_callable(self):
        for key in ("ext_power_control", "ext_downlink"):
            spec = EXPERIMENTS[key]
            assert callable(spec.run)
            assert callable(spec.settings.quick)


@pytest.mark.slow
class TestExtPartial:
    @pytest.fixture(scope="class")
    def output(self):
        from repro.experiments import ext_partial

        return ext_partial.run(ext_partial.ExtPartialSettings.quick())

    def test_structure(self, output):
        assert output.experiment_id == "ext_partial"
        assert output.raw["workloads"] == [500.0, 4000.0]

    def test_partition_never_loses(self, output):
        for entry in output.raw["series"].values():
            assert entry["partial"].mean >= entry["atomic"].mean - 1e-9

    def test_fractions_valid(self, output):
        for entry in output.raw["series"].values():
            assert 0.0 <= entry["mean_fraction"].mean <= 1.0


@pytest.mark.slow
class TestAblationBudget:
    @pytest.fixture(scope="class")
    def output(self):
        from repro.experiments import ablation_budget

        return ablation_budget.run(
            ablation_budget.AblationBudgetSettings.quick()
        )

    def test_structure(self, output):
        assert output.experiment_id == "ablation_budget"
        assert len(output.raw["series"]) == 2

    def test_budget_monotone_in_temperature(self, output):
        evals = [
            entry["evaluations"].mean
            for entry in output.raw["series"].values()
        ]
        assert evals == sorted(evals)

    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "ablation_budget" in EXPERIMENTS
        assert "ext_partial" in EXPERIMENTS


@pytest.mark.slow
class TestExtEpisodes:
    @pytest.fixture(scope="class")
    def output(self):
        from repro.experiments import ext_episodes

        return ext_episodes.run(ext_episodes.ExtEpisodesSettings.quick())

    def test_structure(self, output):
        assert output.experiment_id == "ext_episodes"
        assert output.raw["outage_probabilities"] == [0.0, 0.5]
        assert set(output.raw["series"]) == {"TSAJS", "hJTORA", "Greedy"}

    def test_outages_hurt_every_scheme(self, output):
        for name, stats in output.raw["series"].items():
            assert stats[-1].mean <= stats[0].mean + 1e-9, name

    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "ext_episodes" in EXPERIMENTS


@pytest.mark.slow
class TestExtFaults:
    @pytest.fixture(scope="class")
    def output(self):
        from repro.experiments import ext_faults

        return ext_faults.run(ext_faults.ExtFaultsSettings.quick())

    def test_structure(self, output):
        assert output.experiment_id == "ext_faults"
        assert output.raw["outage_probabilities"] == [0.0, 0.4]
        assert set(output.raw["series"]) == {"TSAJS+local", "TSAJS+resched"}
        assert set(output.raw["fallbacks"]) == set(output.raw["series"])
        assert render_text(output)

    def test_reschedule_never_retains_less(self, output):
        local = output.raw["series"]["TSAJS+local"]
        resched = output.raw["series"]["TSAJS+resched"]
        for a, b in zip(local, resched):
            assert b.mean >= a.mean - 1e-9

    def test_retention_bounded(self, output):
        for stats in output.raw["series"].values():
            for entry in stats:
                assert entry.mean <= 1.0 + 1e-9

    def test_resumed_run_is_byte_identical(self, tmp_path):
        """Acceptance: interrupt the sweep, resume, compare output bytes."""
        import json as json_module

        from repro.experiments import ext_faults
        from repro.experiments.cache import ResultCache
        from repro.experiments.persistence import output_to_dict
        from repro.sim.runner import Sweep

        settings = ext_faults.ExtFaultsSettings.quick()
        root = tmp_path / "cache"
        full = ext_faults.run(settings, Sweep(journal=ResultCache(root)))
        # Simulate a crash partway through: only half the cells landed.
        entries = sorted(root.glob("??/*.json"), key=lambda p: p.name)
        for path in entries[: len(entries) // 2]:
            path.unlink()
        resumed = ext_faults.run(settings, Sweep(journal=ResultCache(root)))
        assert json_module.dumps(output_to_dict(full)) == json_module.dumps(
            output_to_dict(resumed)
        )

    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "ext_faults" in EXPERIMENTS
