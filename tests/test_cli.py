"""Tests for the ``tsajs`` command-line interface."""

import dataclasses

import numpy as np
import pytest

import repro.cli
from repro.cli import _build_sweep, main
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.registry import get_experiment
from repro.experiments.report import ExperimentOutput
from repro.sim.executors import ProcessPoolSweepExecutor
from repro.sim.scenario import Scenario


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "ablation_cooling" in out


class TestSolve:
    def test_solves_small_instance(self, capsys):
        code = main(
            [
                "solve",
                "--users", "5",
                "--servers", "2",
                "--subbands", "2",
                "--seed", "1",
                "--quick",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TSAJS" in out
        assert "Greedy" in out
        assert "utility=" in out

    def test_parameters_echoed(self, capsys):
        main(["solve", "--users", "4", "--servers", "2", "--subbands", "2",
              "--workload-mc", "2000", "--quick"])
        out = capsys.readouterr().out
        assert "U=4" in out
        assert "w=2000" in out


class TestRun:
    def test_quick_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "fig9.txt"
        code = main(["run", "fig9", "--quick", "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out
        assert out_file.exists()
        assert "Fig. 9" in out_file.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_failing_seed_stops_the_run_without_a_table(self, capsys, monkeypatch):
        """A seed that fails on every attempt is not dropped from the
        table: its exception propagates and nothing reaches stdout."""
        build = Scenario.build.__func__

        def failing_build(cls, config, seed=0):
            if seed == 2025:
                raise RuntimeError("injected failure for seed 2025")
            return build(cls, config, seed=seed)

        monkeypatch.setattr(Scenario, "build", classmethod(failing_build))
        with pytest.raises(RuntimeError, match="seed 2025"):
            main(["run", "fig7", "--quick"])
        assert capsys.readouterr().out == ""

    def test_float_error_mode_does_not_leak(self, monkeypatch):
        """Commands run with numpy raising on overflow; returning from
        ``main`` restores the caller's error mode."""
        import repro.cli

        seen = []
        monkeypatch.setattr(
            repro.cli, "_dispatch", lambda args: seen.append(np.geterr()) or 0
        )
        before = np.geterr()
        assert main(["list"]) == 0
        assert seen[0]["over"] == "raise" and seen[0]["under"] == "ignore"
        assert np.geterr() == before


class TestBuildSweep:
    def test_one_worker_runs_serially(self):
        sweep = _build_sweep(1, None, False)
        assert sweep.executor is None and sweep.journal is None

    def test_several_workers_mean_the_pool(self):
        sweep = _build_sweep(3, None, False)
        assert isinstance(sweep.executor, ProcessPoolSweepExecutor)
        assert sweep.executor.n_jobs == 3

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            _build_sweep(0, None, False)

    def test_queue_flags_are_gone(self):
        for argv in (
            ["run", "fig7", "--backend", "pool"],
            ["run", "fig7", "--queue-dir", "q"],
            ["run", "fig7", "--retries", "2"],
            ["run", "fig7", "--seed-timeout", "1"],
            ["worker", "q"],
        ):
            with pytest.raises(SystemExit):
                main(argv)


class TestSweepFlags:
    """``run`` rejects a sweep flag the experiment's driver would ignore,
    before it builds the pool or creates the cache directory."""

    @pytest.mark.parametrize(
        "experiment, flags, message",
        [
            (
                "ext_partial",
                ["--cache", "c", "--workers", "2"],
                "ext_partial does not use --workers or --cache",
            ),
            (
                "ext_downlink",
                ["--cache", "c", "--no-resume"],
                "ext_downlink does not use --cache or --no-resume",
            ),
            ("ext_faults", ["--workers", "2"], "ext_faults does not use --workers"),
        ],
    )
    def test_ignored_flags_are_an_error(
        self, capsys, tmp_path, monkeypatch, experiment, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["run", experiment, "--quick", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "experiment, flags, pooled",
        [
            ("ext_sharding", ["--cache", "c", "--no-resume"], False),
            ("fig7", ["--cache", "c", "--workers", "2"], True),
        ],
    )
    def test_honoured_flags_reach_the_driver(
        self, capsys, tmp_path, monkeypatch, experiment, flags, pooled
    ):
        monkeypatch.chdir(tmp_path)
        sweeps = []

        def run(settings, sweep):
            sweeps.append(sweep)
            return ExperimentOutput(experiment, "stub", ["h"], [["1"]], {})

        spec = dataclasses.replace(get_experiment(experiment), run=run)
        monkeypatch.setattr(repro.cli, "get_experiment", lambda name: spec)
        assert main(["run", experiment, "--quick", *flags]) == 0
        assert capsys.readouterr().err == ""
        (sweep,) = sweeps
        assert isinstance(sweep.journal, ResultCache)
        assert (tmp_path / "c").is_dir()
        assert isinstance(sweep.executor, ProcessPoolSweepExecutor) == pooled


class TestInvalidSettings:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "fig3", "--quick", "--workers", "0"], "n_jobs must be >= 1"),
            (["solve", "--subbands", "0"], "n_subbands must be >= 1"),
            (
                ["solve", "--schemes", "TSAJS-Shard", "--interference-radius", "-1"],
                "interference_radius_km must be positive",
            ),
            (
                ["solve", "--schemes", "TSAJS-Shard", "--cluster-radius", "-1"],
                "cluster_radius_km must be positive",
            ),
            (["solve", "--users", "-5"], "n_users must be non-negative"),
        ],
    )
    def test_prints_one_error_line_and_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {message}")


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "tsajs" in capsys.readouterr().out


class TestEpisode:
    def test_episode_command(self, capsys):
        code = main(
            [
                "episode",
                "--pool", "6",
                "--slots", "3",
                "--servers", "2",
                "--subbands", "2",
                "--quick",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean utility/slot" in out
        assert "slot" in out

    def test_episode_with_outages_and_scheme(self, capsys):
        code = main(
            [
                "episode",
                "--pool", "6",
                "--slots", "3",
                "--servers", "2",
                "--subbands", "2",
                "--outage", "1.0",
                "--scheme", "Greedy",
                "--quick",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme=Greedy" in out
        assert "outage events = 6" in out
