"""Write the instance catalog ``perfbench/reference_utility.json``.

For each workload the catalog lists ``catalog_size`` instance seeds that
are non-degenerate under every config of the workload, each with the
utility of every cell as the program solved it when the catalog was
written.  ``utility_mean`` divides a run's utilities by these recorded
constants, so the benchmark never normalises by a live solve of the
program under test.  Regenerate only on purpose (it takes minutes)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402

#: Entropy of the candidate instance seeds.
CATALOG_ENTROPY = 20251017


def candidate(index: int) -> int:
    return int(np.random.SeedSequence((CATALOG_ENTROPY, index)).generate_state(1)[0])


def catalog(workload) -> dict:
    out = {}
    index = 0
    while len(out) < workload.catalog_size:
        seed = candidate(index)
        index += 1
        scenarios = [Scenario.build(c, seed=seed) for c in workload.configs]
        if all(workloads.non_degenerate(sc, seed) for sc in scenarios):
            out[str(seed)] = workload.cells(seed)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = {
            name: catalog(workloads.make(name, Path(tmp))) for name in workloads.NAMES
        }
    workloads.CATALOG_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
