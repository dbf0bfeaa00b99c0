"""Tests for JSON persistence of experiment outputs and sweep checkpoints."""

import dataclasses
import json

import pytest

from repro.baselines import GreedyScheduler
from repro.core.annealing import AnnealingSchedule
from repro.core.scheduler import TsajsScheduler
from repro.errors import ConfigurationError
import repro.experiments.cache as cache_module
from repro.experiments.cache import ResultCache, digest_key
from repro.experiments.persistence import (
    FORMAT_VERSION,
    code_fingerprint,
    load_output,
    output_from_dict,
    output_to_dict,
    save_output,
    sweep_digest,
)
from repro.experiments.report import ExperimentOutput
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SolutionMetrics
from repro.sim.stats import SummaryStats, summarize


def sample_metrics(seed: int = 0) -> SolutionMetrics:
    return SolutionMetrics(
        system_utility=1.25 + seed,
        mean_time_s=0.1,
        mean_energy_j=0.2,
        mean_offloaded_time_s=0.05,
        mean_offloaded_energy_j=0.07,
        n_offloaded=3,
        evaluations=42,
        wall_time_s=0.5,
        utility_retention=0.875,
        n_fallback=2,
        n_churned=1,
        reschedule_wall_time_s=0.125,
    )


def sample_output():
    return ExperimentOutput(
        experiment_id="demo",
        title="Demo",
        headers=["x", "y"],
        rows=[["1", "2.0"], ["3", "4.0"]],
        raw={
            "points": [1, 3],
            "series": {
                "TSAJS": [summarize([1.0, 2.0, 3.0]), summarize([4.0])],
            },
            "note": "hello",
            "nested": {"flag": True, "nothing": None},
        },
    )


class TestRoundTrip:
    def test_dict_roundtrip(self):
        original = sample_output()
        rebuilt = output_from_dict(output_to_dict(original))
        assert rebuilt.experiment_id == original.experiment_id
        assert rebuilt.title == original.title
        assert rebuilt.headers == original.headers
        assert rebuilt.rows == original.rows
        assert rebuilt.raw["points"] == [1, 3]
        assert rebuilt.raw["note"] == "hello"
        assert rebuilt.raw["nested"] == {"flag": True, "nothing": None}

    def test_summary_stats_restored_exactly(self):
        original = sample_output()
        rebuilt = output_from_dict(output_to_dict(original))
        stats = rebuilt.raw["series"]["TSAJS"][0]
        assert isinstance(stats, SummaryStats)
        assert stats == original.raw["series"]["TSAJS"][0]

    def test_file_roundtrip(self, tmp_path):
        original = sample_output()
        path = tmp_path / "demo.json"
        save_output(original, path)
        rebuilt = load_output(path)
        assert rebuilt.rows == original.rows
        assert rebuilt.raw["series"]["TSAJS"][1].mean == 4.0

    def test_file_is_valid_json(self, tmp_path):
        path = tmp_path / "demo.json"
        save_output(sample_output(), path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["experiment_id"] == "demo"

    def test_tuples_become_lists(self):
        output = ExperimentOutput(
            experiment_id="demo",
            title="Demo",
            headers=["a"],
            rows=[["1"]],
            raw={"tuple": (1, 2)},
        )
        rebuilt = output_from_dict(output_to_dict(output))
        assert rebuilt.raw["tuple"] == [1, 2]


class TestSolutionMetricsRoundTrip:
    """Format v2: SolutionMetrics survive the JSON round trip exactly."""

    def test_metrics_in_raw_roundtrip(self):
        output = ExperimentOutput(
            experiment_id="demo",
            title="Demo",
            headers=["a"],
            rows=[["1"]],
            raw={"cells": [sample_metrics(0), sample_metrics(1)]},
        )
        rebuilt = output_from_dict(output_to_dict(output))
        restored = rebuilt.raw["cells"][0]
        assert isinstance(restored, SolutionMetrics)
        assert restored == sample_metrics(0)
        assert rebuilt.raw["cells"][1].system_utility == 2.25

    def test_float_fields_bitwise_exact(self):
        # JSON uses repr-based floats, so resume can be byte-identical.
        ugly = dataclasses.replace(
            sample_metrics(), system_utility=0.1 + 0.2, wall_time_s=1 / 3
        )
        output = ExperimentOutput(
            experiment_id="demo",
            title="Demo",
            headers=["a"],
            rows=[["1"]],
            raw={"m": ugly},
        )
        text = json.dumps(output_to_dict(output))
        rebuilt = output_from_dict(json.loads(text))
        assert rebuilt.raw["m"].system_utility == 0.1 + 0.2
        assert rebuilt.raw["m"].wall_time_s == 1 / 3


class TestValidation:
    def test_rejects_unknown_version(self):
        payload = output_to_dict(sample_output())
        payload["format_version"] = 999
        with pytest.raises(ConfigurationError, match="999"):
            output_from_dict(payload)

    def test_rejects_previous_version(self):
        # v1 payloads predate SolutionMetrics tagging; a silent read
        # could mis-decode them, so the loader refuses outright.
        payload = output_to_dict(sample_output())
        payload["format_version"] = 1
        with pytest.raises(ConfigurationError, match="format version: 1"):
            output_from_dict(payload)

    def test_rejects_missing_version(self):
        payload = output_to_dict(sample_output())
        del payload["format_version"]
        with pytest.raises(ConfigurationError, match="no 'format_version'"):
            output_from_dict(payload)

    def test_load_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_output(path)

    def test_rejects_unknown_metrics_fields(self):
        payload = output_to_dict(
            ExperimentOutput(
                experiment_id="demo",
                title="Demo",
                headers=["a"],
                rows=[["1"]],
                raw={"m": sample_metrics()},
            )
        )
        payload["raw"]["m"]["__solution_metrics__"]["bogus_field"] = 1.0
        with pytest.raises(ConfigurationError, match="bogus_field"):
            output_from_dict(payload)

    def test_rejects_unserializable_raw(self):
        output = ExperimentOutput(
            experiment_id="demo",
            title="Demo",
            headers=["a"],
            rows=[["1"]],
            raw={"bad": object()},
        )
        with pytest.raises(ConfigurationError):
            output_to_dict(output)


class TestSweepDigest:
    CONFIG = SimulationConfig(n_users=6, n_servers=3, n_subbands=2)

    def test_stable_across_calls(self):
        schedulers = [GreedyScheduler()]
        assert sweep_digest(self.CONFIG, schedulers) == sweep_digest(
            self.CONFIG, schedulers
        )

    def test_config_changes_digest(self):
        other = SimulationConfig(n_users=7, n_servers=3, n_subbands=2)
        assert sweep_digest(self.CONFIG, [GreedyScheduler()]) != sweep_digest(
            other, [GreedyScheduler()]
        )

    def test_scheduler_parameters_change_digest(self):
        # Two fig4-style points differing only in chain length must
        # never share journal cells.
        short = TsajsScheduler(schedule=AnnealingSchedule(chain_length=10))
        long = TsajsScheduler(schedule=AnnealingSchedule(chain_length=20))
        assert sweep_digest(self.CONFIG, [short]) != sweep_digest(
            self.CONFIG, [long]
        )

    def test_extra_payload_changes_digest(self):
        schedulers = [GreedyScheduler()]
        assert sweep_digest(
            self.CONFIG, schedulers, extra={"experiment": "a"}
        ) != sweep_digest(self.CONFIG, schedulers, extra={"experiment": "b"})


class TestSweepJournal:
    """Digest-keyed sweep checkpoints: the cells ``ext_faults`` and
    ``ext_sharding`` store in :class:`ResultCache` under
    :func:`digest_key`.  The cache replaced a JSON-lines journal file;
    these tests carry over that file's contract."""

    def _path(self, cache, digest="d", scheme="s", seed=0):
        return cache._entry_path(digest_key(digest, scheme, seed))

    def test_record_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        metrics = sample_metrics()
        cache.put(digest_key("digest", "TSAJS", 7), metrics)
        assert cache.get(digest_key("digest", "TSAJS", 7)) == metrics
        assert cache.get(digest_key("digest", "TSAJS", 8)) is None
        assert cache.get(digest_key("other", "TSAJS", 7)) is None
        assert cache.get(digest_key("digest", "Greedy", 7)) is None
        assert len(cache) == 1

    def test_resume_reloads_records_exactly(self, tmp_path):
        metrics = sample_metrics()
        ResultCache(tmp_path / "c").put(digest_key("digest", "TSAJS", 7), metrics)
        reloaded = ResultCache(tmp_path / "c")
        assert reloaded.get(digest_key("digest", "TSAJS", 7)) == metrics

    def test_fresh_open_truncates(self, tmp_path):
        """``resume=False`` (``--no-resume``) serves nothing, digest-keyed
        cells included, while keeping the entries on disk."""
        ResultCache(tmp_path / "c").put(digest_key("d", "s", 0), sample_metrics())
        fresh = ResultCache(tmp_path / "c", resume=False)
        assert fresh.get(digest_key("d", "s", 0)) is None
        assert len(fresh) == 1

    def test_torn_final_line_is_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(digest_key("d", "s", 0), sample_metrics(0))
        cache.put(digest_key("d", "s", 1), sample_metrics(1))
        torn = self._path(cache, seed=1)
        torn.write_text(torn.read_text()[: torn.stat().st_size // 2])
        reloaded = ResultCache(tmp_path / "c")
        assert reloaded.get(digest_key("d", "s", 0)) == sample_metrics(0)
        assert reloaded.get(digest_key("d", "s", 1)) is None
        assert len(reloaded.corrupt_entries()) == 1

    def test_corrupt_middle_line_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(digest_key("d", "s", 0), sample_metrics())
        self._path(cache).write_text("not json at all\n")
        assert cache.get(digest_key("d", "s", 0)) is None
        assert [p.name for p in cache.corrupt_entries()] == [
            self._path(cache).name
        ]

    def test_wrong_version_line_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(digest_key("d", "s", 0), sample_metrics())
        path = self._path(cache)
        record = json.loads(path.read_text())
        record["format_version"] = 999
        path.write_text(json.dumps(record))
        assert cache.get(digest_key("d", "s", 0)) is None
        assert len(cache.corrupt_entries()) == 1

    def test_malformed_record_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(digest_key("d", "s", 0), sample_metrics())
        path = self._path(cache)
        record = json.loads(path.read_text())
        del record["metrics"]
        path.write_text(json.dumps(record))
        assert cache.get(digest_key("d", "s", 0)) is None
        assert len(cache.corrupt_entries()) == 1

    def test_stale_code_fingerprint_is_rejected(self, tmp_path, monkeypatch):
        """A cell written under other equations/rules is never served."""
        cache = ResultCache(tmp_path / "c")
        with monkeypatch.context() as m:
            m.setattr(cache_module, "code_fingerprint", lambda: "0" * 16)
            stale = digest_key("d", "s", 0)
            cache.put(stale, sample_metrics())
        assert stale != digest_key("d", "s", 0)
        assert cache.get(digest_key("d", "s", 0)) is None
        assert cache.get(stale) == sample_metrics()

    def test_records_carry_current_code_fingerprint(self, monkeypatch):
        """The key follows the build's fingerprint, whatever it is now."""
        current = digest_key("d", "s", 0)
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "0" * 16)
        assert digest_key("d", "s", 0) != current
        monkeypatch.setattr(cache_module, "code_fingerprint", code_fingerprint)
        assert digest_key("d", "s", 0) == current

    def test_creates_parent_directories(self, tmp_path):
        cache = ResultCache(tmp_path / "deep" / "nested" / "c")
        cache.put(digest_key("d", "s", 0), sample_metrics())
        assert self._path(cache).exists()


class TestCliIntegration:
    def test_run_with_json_flag(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "fig9.json"
        assert main(["run", "fig9", "--quick", "--json", str(json_path)]) == 0
        rebuilt = load_output(json_path)
        assert rebuilt.experiment_id == "fig9"
        assert rebuilt.raw["panels"]
        capsys.readouterr()
