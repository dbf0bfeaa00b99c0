#!/usr/bin/env python
"""CI smoke test: executor backends and the result cache under chaos.

Runs small sweeps on both executor backends (serial, process pool)
while injecting real failures — a scheduler that kills its own worker
process once, a poison cell that kills every worker it touches, plus
torn and bit-flipped cache entries — and gates on the robustness
contract:

* every backend's metrics are byte-identical to the serial run's
  (modulo the measured ``wall_time_s``),
* a poison cell is quarantined after ``QUARANTINE_AFTER`` isolated
  deaths while the coordinator survives and every other seed completes,
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.baselines import GreedyScheduler  # noqa: E402
from repro.experiments.cache import ResultCache, cell_key  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.executors import ProcessPoolSweepExecutor  # noqa: E402
from repro.sim.runner import QUARANTINE_AFTER, RetryPolicy, run_schemes  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402
from tests.test_executors import (  # noqa: E402
    CrashOnceScheduler,
    CrashOnSeedScheduler,
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

    # --- pool backend survives a worker death (serial fallback) ---------
    with tempfile.TemporaryDirectory() as tmp:
        result = run_schemes(
            CONFIG,
            [CrashOnceScheduler(tmp)],
            SEEDS,
            retry=RetryPolicy(),
            executor=ProcessPoolSweepExecutor(n_jobs=2),
        )
        check(not result.failures, "pool: chaos sweep completed")
        check((Path(tmp) / "crashed").exists(), "pool: a worker really died")
        # CrashOnce delegates to Greedy after its one crash, so the
        # recovered sweep must reproduce the Greedy baseline bitwise.
        pool_text = canonical(result).replace("CrashOnce", "Greedy")
        check(pool_text == reference, "pool: byte-identical to serial")

    # --- pool pins a poison cell and quarantines it (default policy) ----
    # A coordinator that ran the poison cell itself would die here with
    # the scheduler's exit status instead of reaching the checks.
    poison_seed = SEEDS[0]
    poison = float(Scenario.build(CONFIG, seed=poison_seed).gains[0, 0, 0])
    result = run_schemes(
        CONFIG,
        [CrashOnSeedScheduler(poison)],
        SEEDS,
        retry=RetryPolicy(),
        executor=ProcessPoolSweepExecutor(n_jobs=2),
    )
    check(
        [failure.seed for failure in result.failures] == [poison_seed],
        "poison: only the poison seed failed",
    )
    check(
        result.failures[0].attempts == QUARANTINE_AFTER,
        "poison: quarantined after QUARANTINE_AFTER isolated deaths",
    )
    healthy = run_schemes(CONFIG, [GreedyScheduler()], SEEDS[1:])
    poison_text = canonical(result).replace("CrashOnSeed", "Greedy")
    check(
        poison_text == canonical(healthy),
        "poison: healthy seeds byte-identical to serial",
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
