"""Tests for the experiment report rendering, the registry and the
report script that regenerates ``results/``."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    get_experiment,
    list_experiments,
)
from repro.experiments.report import (
    ExperimentOutput,
    format_float,
    format_stat,
    render_text,
)
from repro.sim.stats import summarize


class TestFormatting:
    def test_format_stat(self):
        stats = summarize([1.0, 2.0, 3.0])
        text = format_stat(stats, precision=2)
        assert text.startswith("2.00 ±")

    def test_format_stat_zero_width(self):
        stats = summarize([4.0])
        assert format_stat(stats, precision=1) == "4.0 ±0.0"

    def test_format_float(self):
        assert format_float(3.14159, precision=2) == "3.14"


class TestRenderText:
    def output(self):
        return ExperimentOutput(
            experiment_id="demo",
            title="Demo table",
            headers=["x", "value"],
            rows=[["1", "10.0"], ["2", "20.5"]],
        )

    def test_contains_title_and_cells(self):
        text = render_text(self.output())
        assert "Demo table" in text
        assert "20.5" in text

    def test_columns_aligned(self):
        text = render_text(self.output())
        lines = text.splitlines()
        header_line = next(line for line in lines if line.startswith("x"))
        first_row = next(line for line in lines if line.startswith("1"))
        assert header_line.index("value") == first_row.index("10.0")

    def test_header_separator_present(self):
        lines = render_text(self.output()).splitlines()
        assert any(set(line) == {"-"} for line in lines)


class TestRegistry:
    def test_all_figures_registered(self):
        for figure in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert figure in EXPERIMENTS

    def test_ablations_registered(self):
        for ablation in (
            "ablation_threshold",
            "ablation_neighborhood",
            "ablation_cooling",
        ):
            assert ablation in EXPERIMENTS

    def test_list_matches_mapping(self):
        assert set(list_experiments()) == set(EXPERIMENTS)

    def test_get_experiment(self):
        spec = get_experiment("fig3")
        assert spec.experiment_id == "fig3"
        assert callable(spec.run)
        assert callable(spec.settings.reference)

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_descriptions_nonempty(self):
        for spec in EXPERIMENTS.values():
            assert spec.description


def _load_report_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "generate_experiments_report.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_report", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _StubSettings:
    @classmethod
    def reference(cls):
        return cls()


class TestReportScript:
    def test_runs_under_the_cli_float_error_mode(self, tmp_path, monkeypatch, capsys):
        # An overflow that ``tsajs run`` raises must not merely warn while
        # results/ is regenerated.
        seen = []

        def run(settings):
            seen.append(np.geterr())
            return ExperimentOutput("stub", "Stub", ["a"], [["1"]])

        script = _load_report_script()
        stub = ExperimentSpec("stub", "stub experiment", run, _StubSettings)
        monkeypatch.setattr(script, "get_experiment", lambda experiment_id: stub)
        with np.errstate():
            assert script.main(["--only", "stub", "--out", str(tmp_path)]) == 0
        assert [mode["over"] for mode in seen] == ["raise"]
        assert seen[0]["under"] == "ignore"
        assert (tmp_path / "stub.txt").read_text().startswith("Stub")
