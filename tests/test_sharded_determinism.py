"""Backend determinism of the sharded scheduler.

The sharded solver must be a pure function of ``(scenario, seed)`` no
matter which :class:`~repro.sim.executors.base.SweepExecutor` backend
fans the cells out: serial in-process or the process pool.  Locked down
here:

* identical metrics for every (scheme, seed) cell on both backends;
* result caches written under each backend are byte-identical once the
  two wall-clock fields — explicitly outside the determinism contract —
  are normalised away, and a warm run reads back the same metrics;
* two serial replays create the same RNG streams and leave each one in
  the same final state.

Sharded scalar/delta/batch bitwise identity is pinned in
``tests/test_sharded_equivalence.py``.
"""

from __future__ import annotations

import json

from repro.core.annealing import AnnealingSchedule
from repro.core.sharding import ShardedScheduler
from repro.experiments.cache import ResultCache, cell_key
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor
from repro.sim.runner import run_schemes
from tests.streams import recorded_streams
from tests.test_resilience import assert_identical_metrics

#: Small multi-cluster deployment: 9 stations at 1 km spacing under a
#: 1.2 km tile split into 5 clusters, so every run exercises the
#: cluster-seed protocol and the boundary reconciliation pass.
CONFIG = SimulationConfig(n_users=8, n_servers=9)

SEEDS = [1, 2, 3]


def _scheduler() -> ShardedScheduler:
    return ShardedScheduler(
        cluster_radius_km=1.2,
        schedule=AnnealingSchedule(chain_length=10, min_temperature=1e-1),
    )


def _run(executor=None, journal=None):
    kwargs = {}
    if executor is not None:
        kwargs["executor"] = executor
    if journal is not None:
        kwargs["journal"] = journal
    return run_schemes(CONFIG, [_scheduler()], SEEDS, **kwargs)


def _normalized_cache(root) -> str:
    """Cache entries in key order, wall-clock zeroed.

    ``wall_time_s`` / ``reschedule_wall_time_s`` measure the host, not
    the algorithm (and the checksum covers them, so it goes too).  Every
    other byte of every entry must be identical across backends.
    """
    records = []
    for path in sorted(root.glob("??/*.json"), key=lambda p: p.name):
        payload = json.loads(path.read_text())
        payload["metrics"]["wall_time_s"] = 0.0
        payload["metrics"]["reschedule_wall_time_s"] = 0.0
        del payload["checksum"]
        records.append(payload)
    return "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records
    )


def test_all_backends_compute_identical_metrics():
    serial = _run()
    pool = _run(executor=ProcessPoolSweepExecutor(n_jobs=2))
    assert_identical_metrics(serial, pool)


def test_journals_byte_identical_across_backends(tmp_path):
    serial = _run(journal=ResultCache(tmp_path / "serial"))
    pool_cache = ResultCache(tmp_path / "pool")
    _run(executor=ProcessPoolSweepExecutor(n_jobs=2), journal=pool_cache)
    reference = _normalized_cache(tmp_path / "serial")
    assert reference  # the cache actually recorded the cells
    assert _normalized_cache(tmp_path / "pool") == reference
    # Warm: a serial run served entirely from the pool-written cache.
    warm = _run(journal=pool_cache)
    assert_identical_metrics(serial, warm)
    assert _normalized_cache(tmp_path / "pool") == reference


def test_sanitizer_ledgers_match_across_serial_replays():
    snapshots = []
    utilities = []
    for _ in range(2):
        with recorded_streams() as streams:
            result = _run()
        snapshots.append(streams.snapshot())
        utilities.append(
            [m.system_utility for m in result.metrics["TSAJS-Shard"]]
        )
    assert snapshots[0]  # the replay drew from recorded streams
    assert snapshots[0] == snapshots[1]
    assert utilities[0] == utilities[1]


def test_sharded_scheme_name_in_journal(tmp_path):
    cache = ResultCache(tmp_path / "c")
    result = _run(journal=cache)
    assert result.schemes == ["TSAJS-Shard"]
    stored = {path.stem for path in (tmp_path / "c").glob("??/*.json")}
    assert stored == {cell_key(CONFIG, _scheduler(), seed) for seed in SEEDS}
