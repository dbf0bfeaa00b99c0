"""CLI round-trips for the observability layer.

``tsajs solve --trace [--trace-iterations]`` and ``tsajs run --telemetry``
produce schema-valid artefacts that ``tsajs obs explain`` reads back.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.recorder import NULL_RECORDER, get_recorder, set_recorder
from repro.obs.schema import span_pairs_balanced
from repro.obs.trace import read_trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    set_recorder(None)


SMALL = ["--users", "6", "--servers", "2", "--subbands", "2", "--quick"]


class TestTraceRecordShow:
    """Record a trace with ``solve --trace`` and read it back with
    ``obs explain``."""

    def test_record_then_show_round_trip(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["solve", "--seed", "1", "--trace", str(out)] + SMALL)
        assert code == 0
        recorded = capsys.readouterr().out
        assert "TSAJS" in recorded
        assert f"records written to {out}" in recorded

        records = read_trace(out)  # read_trace validates every line
        assert span_pairs_balanced(records)
        names = {record["name"] for record in records}
        assert {"anneal.run", "anneal.level", "scheduler.schedule"} <= names

        assert main(["obs", "explain", str(out)]) == 0
        shown = capsys.readouterr().out
        assert f"{len(records)} records, schema valid" in shown
        assert "spans balanced: yes" in shown
        assert "scheduler.schedule scheme=TSAJS" in shown

    def test_show_convergence_rebuilds_the_profile(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        main(["solve", "--seed", "1", "--trace", str(out)] + SMALL)
        capsys.readouterr()
        assert main(["obs", "explain", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "run 0: scheme=TSAJS" in shown
        assert "final=" in shown
        assert "auc=" in shown
        assert "acceptance rate per level" in shown

    def test_show_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a record"}\n', encoding="utf-8")
        assert main(["obs", "explain", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 1:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_show_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "explain", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_record_with_iteration_detail_emits_steps(self, tmp_path):
        out = tmp_path / "steps.jsonl"
        main(
            ["solve", "--seed", "1", "--trace", str(out),
             "--trace-iterations"] + SMALL
        )
        records = read_trace(out)
        assert any(record["name"] == "anneal.step" for record in records)


class TestSolveTrace:
    def test_solve_with_trace_writes_valid_jsonl(self, tmp_path, capsys):
        out = tmp_path / "solve.jsonl"
        code = main(
            ["solve", "--seed", "1", "--schemes", "TSAJS,Greedy",
             "--trace", str(out)] + SMALL
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "utility=" in printed
        assert f"records written to {out}" in printed
        records = read_trace(out)
        assert span_pairs_balanced(records)
        schedule_spans = [
            record["attrs"]["scheme"]
            for record in records
            if record["name"] == "scheduler.schedule"
            and record["kind"] == "span_start"
        ]
        # Baselines time themselves through the Stopwatch seam but only
        # the TSAJS scheduler opens spans.
        assert schedule_spans == ["TSAJS"]

    def test_trace_iterations_requires_trace(self, capsys):
        code = main(["solve", "--trace-iterations"] + SMALL)
        assert code == 2
        assert "--trace" in capsys.readouterr().err

    def test_solve_without_trace_leaves_recorder_untouched(self, capsys):
        assert main(["solve", "--seed", "1"] + SMALL) == 0
        assert get_recorder() is NULL_RECORDER


class TestRunTelemetry:
    def test_run_telemetry_writes_trace_and_metrics(self, tmp_path, capsys):
        tel = tmp_path / "tel"
        code = main(["run", "fig8", "--quick", "--telemetry", str(tel)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "telemetry:" in printed

        records = read_trace(tel / "trace.jsonl")
        assert span_pairs_balanced(records)
        names = {record["name"] for record in records}
        assert {"experiment.point", "runner.run_schemes", "runner.seed"} <= names

        metrics = json.loads((tel / "metrics.json").read_text())
        assert set(metrics) == {"counters", "gauges", "histograms"}
        assert any(
            key.startswith("runner.seeds_completed") for key in metrics["counters"]
        )

        assert main(["obs", "explain", str(tel)]) == 0
        shown = capsys.readouterr().out
        assert "schema valid, spans balanced: yes" in shown
        assert "computed seeds (runner.seed)" in shown

    def test_recorder_restored_after_run(self, tmp_path, capsys):
        main(["run", "fig8", "--quick", "--telemetry", str(tmp_path / "t")])
        assert get_recorder() is NULL_RECORDER
