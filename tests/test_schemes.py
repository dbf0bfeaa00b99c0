"""Tests for the scheme registry and the extended CLI commands."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.experiments.schemes import (
    SCHEME_FACTORIES,
    SchemeOptions,
    available_schemes,
    build_schemes,
)

QUICK = SchemeOptions(quick=True)
FULL = SchemeOptions(quick=False)


class TestRegistry:
    def test_paper_schemes_present(self):
        names = available_schemes()
        for name in ("TSAJS", "hJTORA", "LocalSearch", "Greedy", "Exhaustive"):
            assert name in names

    def test_extension_schemes_present(self):
        names = available_schemes()
        assert "GA" in names
        assert "TSAJS-PC" in names

    def test_every_factory_builds_a_scheduler(self):
        for name in available_schemes():
            scheduler = SCHEME_FACTORIES[name](QUICK)
            assert isinstance(scheduler, Scheduler), name
            assert scheduler.name == name or name == "Random", name

    def test_build_schemes_order_preserved(self):
        schedulers = build_schemes(["Greedy", "TSAJS"], quick=True)
        assert [s.name for s in schedulers] == ["Greedy", "TSAJS"]

    def test_build_schemes_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            build_schemes(["NotAScheme"])

    def test_build_schemes_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            build_schemes(["TSAJS", "TSAJS"])

    def test_quick_flag_shortens_anneal(self):
        quick = SCHEME_FACTORIES["TSAJS"](QUICK)
        full = SCHEME_FACTORIES["TSAJS"](FULL)
        assert (
            quick.schedule_params.min_temperature
            > full.schedule_params.min_temperature
        )

    def test_schemes_actually_schedule(self, small_random_scenario):
        for name in ("GA", "TSAJS-PC", "Random"):
            scheduler = SCHEME_FACTORIES[name](QUICK)
            result = scheduler.schedule(
                small_random_scenario, np.random.default_rng(0)
            )
            assert np.isfinite(result.utility)


class TestCliSchemes:
    def test_schemes_command_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in available_schemes():
            assert name in out

    def test_solve_with_custom_schemes(self, capsys):
        code = main(
            [
                "solve",
                "--users", "4",
                "--servers", "2",
                "--subbands", "2",
                "--quick",
                "--schemes", "Greedy,AllLocal",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Greedy" in out
        assert "AllLocal" in out
        assert "TSAJS " not in out

    def test_solve_with_unknown_scheme_fails(self, capsys):
        code = main(
            [
                "solve",
                "--users", "4",
                "--servers", "2",
                "--subbands", "2",
                "--quick",
                "--schemes", "Bogus",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown scheme 'Bogus'")
