"""Chaos and determinism tests for the content-addressed result cache.

The contract: a cache entry is only ever (a) absent, (b) a complete,
checksum-verified record that reproduces the original metrics bitwise,
or (c) quarantined to ``corrupt/`` and recomputed.  A warm cache changes
wall time, never bytes, and never draws RNG streams the fresh run would
not have drawn: it recomputes only the cells it is missing.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
import repro.experiments.cache
from repro.atomicio import read_bytes
from repro.baselines import GreedyScheduler
from repro.experiments.cache import ResultCache, cell_key
from repro.errors import ConfigurationError
from repro.experiments.persistence import code_fingerprint
from repro.obs import TraceRecorder
from repro.obs.recorder import use_recorder
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_schemes
from tests.streams import recorded_streams
from tests.test_resilience import AlwaysFailScheduler, assert_identical_metrics

CONFIG = SimulationConfig(n_users=4, n_servers=2, n_subbands=2)


def _touch_unique(directory: str, prefix: str) -> None:
    fd, _ = tempfile.mkstemp(prefix=prefix, dir=directory)
    os.close(fd)


@dataclass(frozen=True)
class CountingScheduler:
    """Greedy, plus a marker file per ``schedule`` call."""

    marker_dir: str
    name: str = "Counting"

    def schedule(self, scenario, rng):
        _touch_unique(self.marker_dir, "call_")
        return GreedyScheduler().schedule(scenario, rng)


def _calls(directory) -> int:
    return len([p for p in os.listdir(directory) if p.startswith("call_")])


class TestCellKey:
    def test_stable_across_calls(self):
        a = cell_key(CONFIG, GreedyScheduler(), 7)
        b = cell_key(CONFIG, GreedyScheduler(), 7)
        assert a == b
        assert len(a) == 64  # full sha256, no truncation

    def test_sensitive_to_every_component(self):
        base = cell_key(CONFIG, GreedyScheduler(), 7)
        assert cell_key(CONFIG, GreedyScheduler(), 8) != base
        other_config = SimulationConfig(n_users=5, n_servers=2, n_subbands=2)
        assert cell_key(other_config, GreedyScheduler(), 7) != base
        assert cell_key(CONFIG, GreedyScheduler(), 7, code="ffff") != base

    def test_includes_current_code_fingerprint(self):
        explicit = cell_key(CONFIG, GreedyScheduler(), 7, code=code_fingerprint())
        assert explicit == cell_key(CONFIG, GreedyScheduler(), 7)

    def test_code_fingerprint_does_not_load_the_lint_engine(self):
        # The fingerprint reads the equation registry; a cached run must
        # not pay for importing the lint engine, registry and rules.
        probe = (
            "import sys\n"
            "from repro.experiments.persistence import code_fingerprint\n"
            "code_fingerprint()\n"
            "assert 'repro.lint.equations' in sys.modules\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.lint.'))\n"
            "assert 'repro.lint.engine' not in sys.modules, loaded\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", probe], check=True, env=env)


class TestRoundTrip:
    def test_put_get_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_schemes(CONFIG, [GreedyScheduler()], [3])
        metrics = result.metrics["Greedy"][0]
        key = cell_key(CONFIG, GreedyScheduler(), 3)
        cache.put(key, metrics)
        assert cache.get(key) == metrics
        assert len(cache) == 1

    def test_missing_key_is_none(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("ab" * 32) is None

    def test_entries_are_sharded(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_schemes(CONFIG, [GreedyScheduler()], [3])
        key = cell_key(CONFIG, GreedyScheduler(), 3)
        cache.put(key, result.metrics["Greedy"][0])
        assert (tmp_path / "c" / key[:2] / f"{key}.json").exists()


class TestWarmRuns:
    def test_warm_cache_serves_without_scheduler_calls(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        cache = ResultCache(tmp_path / "c")
        schedulers = [CountingScheduler(str(marker))]
        cold = run_schemes(CONFIG, schedulers, [1, 2], journal=cache)
        cold_calls = _calls(marker)
        assert cold_calls == 2
        warm = run_schemes(CONFIG, schedulers, [1, 2], journal=cache)
        assert _calls(marker) == cold_calls  # not one more call
        # Bitwise identity including wall_time_s: the warm run replays
        # the stored record, it does not re-measure anything.
        assert cold.metrics == warm.metrics

    def test_warm_run_draws_no_rng_streams(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_schemes(CONFIG, [GreedyScheduler()], [1, 2], journal=cache)
        with recorded_streams() as warm:
            result = run_schemes(
                CONFIG, [GreedyScheduler()], [1, 2], journal=cache
            )
        assert warm.snapshot() == {}
        assert len(result.metrics["Greedy"]) == 2

    def test_partially_warm_run_draws_only_missing_seeds(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        schedulers = [CountingScheduler(str(marker))]
        config = SimulationConfig(n_users=6, n_servers=2)
        with recorded_streams() as fresh:
            fresh_result = run_schemes(config, schedulers, [1, 2, 3])
        cache = ResultCache(tmp_path / "c")
        run_schemes(config, schedulers, [1, 2], journal=cache)
        before = _calls(marker)
        with recorded_streams() as resumed:
            resumed_result = run_schemes(
                config, schedulers, [1, 2, 3], journal=cache
            )
        assert _calls(marker) == before + 1  # seed 3 only
        expected = {f"child:3:{stream}" for stream in (0, 1, 100)}
        fresh_snapshot = fresh.snapshot()
        resumed_snapshot = resumed.snapshot()
        assert set(resumed_snapshot) == expected
        for label, states in resumed_snapshot.items():
            assert states == fresh_snapshot[label]
        assert_identical_metrics(fresh_result, resumed_result)

    def test_no_resume_recomputes_but_still_records(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        schedulers = [CountingScheduler(str(marker))]
        warm = ResultCache(tmp_path / "c")
        run_schemes(CONFIG, schedulers, [1], journal=warm)
        assert _calls(marker) == 1
        no_resume = ResultCache(tmp_path / "c", resume=False)
        run_schemes(CONFIG, schedulers, [1], journal=no_resume)
        assert _calls(marker) == 2  # recomputed despite the stored entry
        assert len(no_resume) == 1  # and overwrote it in place


class TestCorruption:
    def _seed_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_schemes(
            CONFIG, [GreedyScheduler()], [1, 2], journal=cache
        )
        return cache, result

    def test_truncated_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache, cold = self._seed_cache(tmp_path)
        key = cell_key(CONFIG, GreedyScheduler(), 1)
        path = cache._entry_path(key)
        # A torn write: the file ends mid-payload.
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        recomputed = run_schemes(
            CONFIG, [GreedyScheduler()], [1, 2], journal=cache
        )
        assert len(cache.corrupt_entries()) == 1
        assert len(cache) == 2  # the entry was rewritten
        assert_identical_metrics(cold, recomputed)
        # And the rewritten entry reads back clean.
        assert cache.get(key) is not None

    def test_bit_flip_is_caught_by_checksum(self, tmp_path):
        cache, cold = self._seed_cache(tmp_path)
        key = cell_key(CONFIG, GreedyScheduler(), 2)
        path = cache._entry_path(key)
        raw = bytearray(path.read_bytes())
        # Flip one digit inside the stored metrics payload: the JSON
        # stays perfectly parseable, only the checksum can notice.
        index = raw.find(b'"system_utility":') + len(b'"system_utility":') + 3
        raw[index] = ord("1") if raw[index] != ord("1") else ord("2")
        path.write_bytes(bytes(raw))
        recomputed = run_schemes(
            CONFIG, [GreedyScheduler()], [1, 2], journal=cache
        )
        assert len(cache.corrupt_entries()) == 1
        assert_identical_metrics(cold, recomputed)

    def test_quarantine_keeps_every_specimen(self, tmp_path):
        cache, _ = self._seed_cache(tmp_path)
        key = cell_key(CONFIG, GreedyScheduler(), 1)
        for _ in range(2):
            cache._entry_path(key).write_text("garbage")
            assert cache.get(key) is None
        assert len(cache.corrupt_entries()) == 2

    def test_wrong_key_claim_is_rejected(self, tmp_path):
        cache, _ = self._seed_cache(tmp_path)
        key1 = cell_key(CONFIG, GreedyScheduler(), 1)
        key2 = cell_key(CONFIG, GreedyScheduler(), 2)
        # Copy seed 2's entry under seed 1's name: valid JSON, valid
        # checksum, wrong identity.
        cache._entry_path(key1).write_bytes(cache._entry_path(key2).read_bytes())
        assert cache.get(key1) is None
        assert len(cache.corrupt_entries()) == 1


    def test_entry_vanishing_before_the_read_is_a_plain_miss(
        self, tmp_path, monkeypatch
    ):
        # Another process sharing the directory quarantines the entry
        # just before this one reads it.
        cache, _ = self._seed_cache(tmp_path)
        key = cell_key(CONFIG, GreedyScheduler(), 1)
        path = cache._entry_path(key)
        reads = []

        def vanishing_read(entry):
            reads.append(entry)
            if Path(entry) == path:
                os.unlink(entry)
            return read_bytes(entry)

        monkeypatch.setattr(repro.experiments.cache, "read_bytes", vanishing_read)
        recorder = TraceRecorder(None)
        with use_recorder(recorder):
            assert cache.get(key) is None
        assert not path.exists()
        assert not (cache.root / "corrupt").exists()
        assert [r["name"] for r in recorder.records if r["kind"] == "event"] == []
        assert [Path(entry) for entry in reads] == [path]


class TestRecordSeed:
    def test_length_mismatch_records_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_schemes(CONFIG, [GreedyScheduler()], [3])
        metrics = result.metrics["Greedy"][0]
        schedulers = [GreedyScheduler(), GreedyScheduler()]
        with pytest.raises(ConfigurationError, match="1 metrics for 2 schedulers"):
            cache.record_seed(CONFIG, schedulers, 3, [metrics])
        assert len(cache) == 0

    def test_records_one_entry_per_scheduler(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_schemes(CONFIG, [GreedyScheduler()], [3])
        metrics = result.metrics["Greedy"][0]
        cache.record_seed(CONFIG, [GreedyScheduler()], 3, [metrics])
        assert cache.lookup_seed(CONFIG, [GreedyScheduler()], 3) == [metrics]
        assert cache.get(cell_key(CONFIG, GreedyScheduler(), 3)) == metrics


class TestCodeFingerprintIsolation:
    def test_entries_from_other_builds_are_unreachable(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_schemes(CONFIG, [GreedyScheduler()], [1])
        metrics = result.metrics["Greedy"][0]
        stale_key = cell_key(CONFIG, GreedyScheduler(), 1, code="0" * 16)
        cache.put(stale_key, metrics)
        # The current build addresses the same cell under a different
        # key, so the stale entry is simply never consulted.
        assert cache.lookup_seed(CONFIG, [GreedyScheduler()], 1) is None

    def test_len_and_corrupt_entries_report_occupancy(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_schemes(CONFIG, [GreedyScheduler()], [1, 2], journal=cache)
        assert len(cache) == 2
        assert cache.corrupt_entries() == []


class TestCliCache:
    def test_run_with_cache_flag_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        assert main(["run", "fig9", "--quick", "--cache", str(cache_dir)]) == 0
        cold_text = capsys.readouterr().out
        assert main(["run", "fig9", "--quick", "--cache", str(cache_dir)]) == 0
        warm_text = capsys.readouterr().out
        assert cold_text == warm_text  # byte-identical rendered output
        assert any(cache_dir.iterdir())

    @pytest.mark.parametrize("experiment", ["ext_faults", "ext_sharding"])
    def test_digest_keyed_drivers_resume_from_cache(
        self, experiment, tmp_path, capsys, monkeypatch
    ):
        """The drivers that cache cells by sweep digest run under --cache,
        and a second run serves every cell without computing any."""
        from repro.cli import main
        from repro.core.scheduler import TsajsScheduler
        from repro.core.sharding import ShardedScheduler

        cache_dir = tmp_path / "cache"
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", experiment, "--quick", "--cache", str(cache_dir)]
        assert main([*argv, "--json", str(first)]) == 0
        n_entries = len(ResultCache(cache_dir))
        assert n_entries > 0

        def no_solves(*args, **kwargs):
            raise AssertionError("a warm run must not solve anything")

        monkeypatch.setattr(TsajsScheduler, "schedule", no_solves)
        monkeypatch.setattr(ShardedScheduler, "schedule", no_solves)
        assert main([*argv, "--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert len(ResultCache(cache_dir)) == n_entries

    def test_cli_flags_do_not_leak_into_later_runs(self, tmp_path, capsys):
        """--cache applies to that run only: a later plain run_schemes
        call in the same process writes nothing to the cache."""
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        argv = ["run", "fig9", "--quick", "--cache", str(cache_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        n_entries = len(ResultCache(cache_dir))
        with pytest.raises(RuntimeError, match="never works"):
            run_schemes(CONFIG, [AlwaysFailScheduler()], [0, 1])
        assert len(ResultCache(cache_dir)) == n_entries

    def test_no_resume_requires_a_store(self, capsys):
        from repro.cli import main

        assert main(["run", "fig9", "--quick", "--no-resume"]) == 2
        assert "--no-resume requires" in capsys.readouterr().err
