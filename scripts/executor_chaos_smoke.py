#!/usr/bin/env python
"""CI smoke test: executor backends and the result cache under chaos.

Runs small sweeps on both executor backends (serial, process pool)
while injecting real failures — a scheduler that kills its own worker
process once, plus torn and bit-flipped cache entries — and gates on
the robustness contract:

* the pool's metrics are byte-identical to the serial run's (modulo the
  measured ``wall_time_s``),
* a worker death fails the sweep fast with ``BrokenProcessPool``, and
  re-running it with the same cache finishes it byte-identical to the
  serial run,
* a seed that raises fails a pool sweep with that seed's own exception,
  and every other seed is in the cache afterwards,
* corruption is quarantined (evidence kept) and recomputed, never
  trusted,
* a fully warm cache calls no scheduler at all.

Exits non-zero on the first violated invariant. Used by the
``executor-chaos`` job in ``.github/workflows/ci.yml``; runnable locally
with ``python scripts/executor_chaos_smoke.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.baselines import GreedyScheduler  # noqa: E402
from repro.experiments.cache import ResultCache, cell_key  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.executors import ProcessPoolSweepExecutor  # noqa: E402
from repro.sim.runner import run_schemes  # noqa: E402
from tests.test_executors import (  # noqa: E402
    CrashOnceScheduler,
    FailingSeedsScheduler,
)
from tests.test_result_cache import CountingScheduler  # noqa: E402

CONFIG = SimulationConfig(n_users=6, n_servers=2, n_subbands=2)
SEEDS = [1, 2, 3]


def canonical(result) -> str:
    """Byte-comparable rendering of a sweep result.

    ``wall_time_s`` is measured wall clock — the one field that is
    *supposed* to differ between runs — so it is excluded; everything
    else must match to the last bit.
    """
    import dataclasses

    payload = {}
    for scheme in sorted(result.metrics):
        rows = []
        for metrics in result.metrics[scheme]:
            row = dataclasses.asdict(metrics)
            row.pop("wall_time_s")
            rows.append(row)
        payload[scheme] = rows
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check(condition: bool, label: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {label}")
    sys.stdout.write(f"ok: {label}\n")


def main() -> int:
    baseline = run_schemes(CONFIG, [GreedyScheduler()], SEEDS)
    reference = canonical(baseline)

    pool = run_schemes(
        CONFIG,
        [GreedyScheduler()],
        SEEDS,
        executor=ProcessPoolSweepExecutor(n_jobs=2),
    )
    check(canonical(pool) == reference, "pool: byte-identical to serial")

    # --- a worker death fails fast; the same cache resumes the sweep ----
    with tempfile.TemporaryDirectory() as tmp:
        markers = Path(tmp) / "markers"
        markers.mkdir()
        sweep = dict(
            journal=ResultCache(Path(tmp) / "cache"),
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        try:
            run_schemes(CONFIG, [CrashOnceScheduler(str(markers))], SEEDS, **sweep)
        except BrokenProcessPool:
            failed = True
        else:
            failed = False
        check(failed, "resume: the worker death stopped the sweep")
        check((markers / "crashed").exists(), "resume: a worker really died")
        result = run_schemes(
            CONFIG, [CrashOnceScheduler(str(markers))], SEEDS, **sweep
        )
        # CrashOnce delegates to Greedy after its one crash, so the
        # resumed sweep must reproduce the Greedy baseline bitwise.
        resumed = canonical(result).replace("CrashOnce", "Greedy")
        check(resumed == reference, "resume: byte-identical to serial")

    # --- a raising seed fails the pool sweep; the others are cached ----
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        failing = [FailingSeedsScheduler(CONFIG, (SEEDS[1],))]
        try:
            run_schemes(
                CONFIG,
                failing,
                SEEDS,
                journal=cache,
                executor=ProcessPoolSweepExecutor(n_jobs=2),
            )
        except RuntimeError as exc:
            error = str(exc)
        else:
            error = None
        check(
            error == f"seed {SEEDS[1]} failed",
            "raise: the pool sweep fails with the raising seed's own error",
        )
        check(
            all(
                (cache.lookup_seed(CONFIG, failing, seed) is None)
                == (seed == SEEDS[1])
                for seed in SEEDS
            ),
            "raise: every other seed is in the cache",
        )

    # --- cache chaos: torn entry + bit flip → quarantine + recompute ----
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        cold = run_schemes(CONFIG, [GreedyScheduler()], SEEDS, journal=cache)
        check(canonical(cold) == reference, "cache: cold run matches serial")

        torn = cache._entry_path(cell_key(CONFIG, GreedyScheduler(), SEEDS[0]))
        torn.write_text(torn.read_text()[: torn.stat().st_size // 2])
        flipped = cache._entry_path(
            cell_key(CONFIG, GreedyScheduler(), SEEDS[1])
        )
        raw = bytearray(flipped.read_bytes())
        digit = raw.find(b'"system_utility":') + len(b'"system_utility":') + 3
        raw[digit] = ord("1") if raw[digit] != ord("1") else ord("2")
        flipped.write_bytes(bytes(raw))

        warm = run_schemes(CONFIG, [GreedyScheduler()], SEEDS, journal=cache)
        check(
            len(cache.corrupt_entries()) == 2,
            "cache: torn and bit-flipped entries quarantined",
        )
        check(canonical(warm) == reference, "cache: recomputed run matches serial")

    # --- A fully warm cache recomputes nothing ---
    with tempfile.TemporaryDirectory() as tmp:
        markers = Path(tmp) / "markers"
        markers.mkdir()
        counting = [CountingScheduler(str(markers))]
        cache = ResultCache(Path(tmp) / "cache")
        run_schemes(CONFIG, counting, SEEDS, journal=cache)
        cold_calls = len(list(markers.iterdir()))
        run_schemes(CONFIG, counting, SEEDS, journal=cache)
        check(
            cold_calls == len(SEEDS)
            and len(list(markers.iterdir())) == cold_calls,
            "cache: a fully warm run calls no scheduler",
        )

    sys.stdout.write("executor chaos smoke: all invariants hold\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
