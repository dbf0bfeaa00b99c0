"""Tests for the experiment drivers (quick presets).

These run every figure driver end to end at reduced scale and assert the
structural contract (headers, rows, raw series) plus the cheap shape
properties that must hold even at quick scale.
"""

import pytest

from repro.cli import main
from repro.experiments import (
    ablation_cooling,
    ablation_neighborhood,
    ablation_threshold,
    fig3_suboptimality,
    fig4_user_scale,
    fig5_data_size,
    fig6_workload,
    fig7_subchannels,
    fig8_runtime,
    fig9_preferences,
)
from repro.experiments.common import (
    SCHEME_ORDER,
    default_seeds,
    make_tsajs,
    scheme_names,
    standard_schedulers,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_text
from repro.obs.clock import TickClock
from repro.obs.recorder import use_recorder
from repro.obs.trace import TraceRecorder, read_trace


def traced_fig3_quick(telemetry_dir):
    """``fig3 --quick`` traced into ``telemetry_dir`` as ``run --telemetry``
    records it, but on a TickClock."""
    recorder = TraceRecorder(telemetry_dir / "trace.jsonl", clock=TickClock())
    with recorder, use_recorder(recorder):
        return fig3_suboptimality.run(fig3_suboptimality.Fig3Settings.quick())


class TestCommonHelpers:
    def test_standard_schedulers_order(self):
        names = scheme_names(standard_schedulers(include_exhaustive=True))
        assert tuple(names) == SCHEME_ORDER

    def test_standard_schedulers_without_exhaustive(self):
        names = scheme_names(standard_schedulers())
        assert names == ["TSAJS", "hJTORA", "LocalSearch", "Greedy"]

    def test_default_seeds_deterministic(self):
        assert default_seeds(3) == default_seeds(3)
        assert len(default_seeds(5)) == 5
        assert len(set(default_seeds(5))) == 5

    def test_make_tsajs_applies_parameters(self):
        scheduler = make_tsajs(chain_length=10, min_temperature=1e-3)
        assert scheduler.schedule_params.chain_length == 10
        assert scheduler.schedule_params.min_temperature == 1e-3


@pytest.mark.slow
class TestFig3:
    @pytest.fixture(scope="class")
    def telemetry_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fig3_telemetry")

    @pytest.fixture(scope="class")
    def quick_output(self, telemetry_dir):
        """One traced ``fig3 --quick`` run (exhaustive search included), shared."""
        return traced_fig3_quick(telemetry_dir)

    def test_explain_reads_the_telemetry_directory(
        self, quick_output, telemetry_dir, capsys
    ):
        capsys.readouterr()
        assert main(["obs", "explain", str(telemetry_dir)]) == 0
        report = capsys.readouterr().out
        assert main(["obs", "explain", str(telemetry_dir / "trace.jsonl")]) == 0
        assert capsys.readouterr().out == report
        n_runs = sum(
            1
            for record in read_trace(telemetry_dir / "trace.jsonl")
            if record["kind"] == "span_start" and record["name"] == "anneal.run"
        )
        assert n_runs > 0
        assert f"annealing runs: {n_runs}\n" in report
        for needle in (
            "acceptance rate per level (* = phase switch):",
            "  phase switch fired ",
            "  best ",
            "iterations (",
        ):
            assert report.count(needle) == n_runs, needle

    def test_quick_run_structure(self, quick_output):
        assert quick_output.experiment_id == "fig3"
        assert quick_output.headers[0] == "workload [Mc]"
        assert "Exhaustive" in quick_output.headers
        assert len(quick_output.rows) == 2  # two workloads in quick mode
        for name, series in quick_output.raw["series"].items():
            assert len(series) == 2, name
        assert render_text(quick_output)

    def test_tsajs_close_to_exhaustive(self):
        settings = fig3_suboptimality.Fig3Settings(
            workloads_megacycles=(2000.0,),
            n_seeds=3,
            min_temperature=1e-3,
        )
        output = fig3_suboptimality.run(settings)
        optimum = output.raw["series"]["Exhaustive"][0].mean
        tsajs = output.raw["series"]["TSAJS"][0].mean
        assert tsajs <= optimum + 1e-9
        assert tsajs >= 0.98 * optimum  # near-optimal (paper: ~99%+)

    def test_all_schemes_beat_nothing(self, quick_output):
        for name, series in quick_output.raw["series"].items():
            for stat in series:
                assert stat.mean >= 0.0, name


@pytest.mark.slow
class TestFig4:
    @pytest.fixture(scope="class")
    def output(self):
        return fig4_user_scale.run(fig4_user_scale.Fig4Settings.quick())

    def test_quick_run_structure(self, output):
        assert output.experiment_id == "fig4"
        panel = output.raw["panels"][0]
        assert panel["user_counts"] == [10, 30]
        assert set(panel["series"]) == {"TSAJS", "hJTORA", "LocalSearch", "Greedy"}
        for name, series in panel["series"].items():
            assert len(series) == 2, name

    def test_utility_grows_when_slots_plentiful(self, output):
        # 10 -> 30 users on 27 slots: more offloaders, more utility.
        series = output.raw["panels"][0]["series"]["TSAJS"]
        assert series[1].mean > series[0].mean


@pytest.mark.slow
class TestFig5:
    @pytest.fixture(scope="class")
    def output(self):
        return fig5_data_size.run(fig5_data_size.Fig5Settings.quick())

    def test_utility_decreases_with_data_size(self, output):
        series = output.raw["series"]["TSAJS"]
        assert series[-1].mean < series[0].mean

    def test_structure(self, output):
        assert output.raw["data_sizes_kb"] == [100.0, 1000.0]
        assert len(output.rows) == 2


@pytest.mark.slow
class TestFig6:
    @pytest.fixture(scope="class")
    def output(self):
        return fig6_workload.run(fig6_workload.Fig6Settings.quick())

    def test_utility_increases_with_workload(self, output):
        series = output.raw["panels"][0]["series"]["TSAJS"]
        assert series[-1].mean > series[0].mean

    def test_structure(self, output):
        panel = output.raw["panels"][0]
        assert panel["n_users"] == 50
        for name, series in panel["series"].items():
            assert len(series) == len(panel["workloads"]), name


@pytest.mark.slow
class TestFig7:
    def test_structure(self):
        settings = fig7_subchannels.Fig7Settings.quick()
        output = fig7_subchannels.run(settings)
        panel = output.raw["panels"][0]
        assert panel["subchannel_counts"] == [2, 10]
        assert len(output.rows) == 2
        # Each user contributes at most beta_t + beta_e = 1 to the utility.
        for name, series in panel["series"].items():
            for stat in series:
                assert stat.mean <= settings.n_users, name


@pytest.mark.slow
class TestFig8:
    @pytest.fixture(scope="class")
    def output(self):
        return fig8_runtime.run(fig8_runtime.Fig8Settings.quick())

    def test_reports_wall_times(self, output):
        panel = output.raw["panels"][0]
        for name, series in panel["series"].items():
            for stat in series:
                assert stat.mean > 0.0, name

    def test_hjtora_cost_grows_with_subchannels(self, output):
        series = output.raw["panels"][0]["series"]["hJTORA"]
        assert series[-1].mean > series[0].mean


@pytest.mark.slow
class TestFig9:
    def test_structure(self):
        output = fig9_preferences.run(fig9_preferences.Fig9Settings.quick())
        panel = output.raw["panels"][0]
        assert panel["n_users"] == 30
        assert len(panel["energy"]) == 2
        assert len(panel["delay"]) == 2

    def test_preference_tradeoff_direction(self):
        settings = fig9_preferences.Fig9Settings(
            beta_time_values=(0.05, 0.95),
            user_counts=(20,),
            n_seeds=3,
            min_temperature=1e-3,
        )
        output = fig9_preferences.run(settings)
        panel = output.raw["panels"][0]
        # Stronger time preference: lower delay, higher energy.
        assert panel["delay"][1].mean < panel["delay"][0].mean
        assert panel["energy"][1].mean > panel["energy"][0].mean


@pytest.mark.slow
class TestAblations:
    @pytest.fixture(scope="class")
    def threshold_output(self):
        return ablation_threshold.run(
            ablation_threshold.AblationThresholdSettings.quick()
        )

    def test_threshold_ablation_structure(self, threshold_output):
        assert set(threshold_output.raw["series"]) == {"TTSA", "Vanilla-slow", "Vanilla-fast"}

    def test_ttsa_cheaper_than_vanilla_slow(self, threshold_output):
        series = threshold_output.raw["series"]
        assert (
            series["TTSA"]["evaluations"].mean
            <= series["Vanilla-slow"]["evaluations"].mean
        )

    def test_neighborhood_ablation_structure(self):
        output = ablation_neighborhood.run(
            ablation_neighborhood.AblationNeighborhoodSettings.quick()
        )
        assert set(output.raw["series"]) == set(
            ablation_neighborhood.NEIGHBORHOOD_VARIANTS
        )

    def test_cooling_ablation_structure(self):
        output = ablation_cooling.run(
            ablation_cooling.AblationCoolingSettings.quick()
        )
        assert len(output.raw["series"]) == 2
        for entry in output.raw["series"].values():
            assert entry["utility"].n == 2
        # Slower cooling spends more objective evaluations.
        evals = [entry["evaluations"].mean for entry in output.raw["series"].values()]
        assert evals == sorted(evals)


class TestSettingsValidation:
    def test_quick_presets_exist_for_all(self):
        for spec in EXPERIMENTS.values():
            quick = spec.settings.quick()
            spec.settings.reference()
            full = spec.settings()
            assert quick != full, spec.experiment_id  # quick must reduce something
