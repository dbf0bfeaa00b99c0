"""Cold-start contract: importing the package loads no scipy module.

Every ``tsajs`` call and every fresh interpreter pays for what the
package imports.  ``scipy.stats`` alone used to cost more than a
paper-scale solve, for one Student-t quantile.  These tests pin the
three pieces that keep it off the import path with identical results:

* a fresh interpreter imports the package and the CLI without loading
  any ``scipy`` module;
* :func:`summarize` computes its half-width with ``scipy.special.stdtrit``
  and matches ``scipy.stats.t.ppf`` bit for bit;
* Greedy's masked-argmax slot pick matches the scalar scan it replaced,
  decision and evaluation count alike.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines import GreedyScheduler
from repro.core.allocation import kkt_allocation
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.objective import ObjectiveEvaluator
from repro.sim.config import SimulationConfig, small_network_config
from repro.sim.scenario import Scenario
from repro.sim.stats import summarize

SRC = Path(repro.__file__).resolve().parents[1]


def test_package_imports_load_no_scipy():
    code = (
        "import sys\n"
        "import repro, repro.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


@pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.975, 0.99])
def test_ci_halfwidth_matches_scipy_stats_bitwise(confidence):
    from scipy import stats as scipy_stats

    rng = np.random.default_rng(7)
    for df in range(1, 201):
        samples = rng.normal(3.0, 1.5, size=df + 1)
        sem = float(samples.std(ddof=1)) / np.sqrt(samples.size)
        t_crit = float(scipy_stats.t.ppf((1.0 + confidence) / 2.0, df=df))
        expected = float(t_crit * sem)
        assert summarize(samples, confidence).ci_halfwidth == expected, df


def scalar_scan_greedy(scenario: Scenario):
    """Greedy as it was written before the masked argmax: a strict-``>``
    scan of every free (server, sub-band) slot in row-major order."""
    evaluator = ObjectiveEvaluator(scenario)
    decision = OffloadingDecision.all_local(
        scenario.n_users, scenario.n_servers, scenario.n_subbands
    )
    best_gain = (
        scenario.gains.reshape(scenario.n_users, -1).max(axis=1)
        if scenario.n_users
        else np.zeros(0)
    )
    order = np.argsort(-best_gain)
    current_value = evaluator.evaluate(decision)
    for u in order:
        best_slot = None
        best_value = -np.inf
        for s in range(scenario.n_servers):
            for j in range(scenario.n_subbands):
                if decision.occupant_of(s, j) != LOCAL:
                    continue
                gain = scenario.gains[u, s, j]
                if gain > best_value:
                    best_value = gain
                    best_slot = (s, j)
        if best_slot is None:
            break
        decision.assign(int(u), best_slot[0], best_slot[1])
        candidate_value = evaluator.evaluate(decision)
        if candidate_value > current_value:
            current_value = candidate_value
        else:
            decision.set_local(int(u))
    utility = evaluator.evaluate(decision)
    return decision, utility, evaluator.evaluations, kkt_allocation(scenario, decision)


def assert_greedy_matches_scan(scenario: Scenario) -> None:
    decision, utility, evaluations, allocation = scalar_scan_greedy(scenario)
    result = GreedyScheduler().schedule(scenario)
    assert result.decision.server.tobytes() == decision.server.tobytes()
    assert result.decision.channel.tobytes() == decision.channel.tobytes()
    assert result.utility == utility
    assert result.evaluations == evaluations
    assert np.asarray(result.allocation).tobytes() == np.asarray(allocation).tobytes()


GREEDY_CONFIGS = {
    "paper": SimulationConfig(n_users=40, n_servers=5, n_subbands=20),
    "metro": SimulationConfig(n_users=160, n_servers=16, n_subbands=3),
    "fig3": small_network_config(),
    # U > S*N with heavy tasks: every slot fills and the scan stops early.
    "saturated": SimulationConfig(
        n_users=12, n_servers=2, n_subbands=3, workload_megacycles=4000.0
    ),
}


@pytest.mark.parametrize("name", sorted(GREEDY_CONFIGS))
def test_greedy_masked_argmax_matches_scalar_scan(name):
    config = GREEDY_CONFIGS[name]
    for seed in range(20):
        assert_greedy_matches_scan(Scenario.build(config, seed=seed))


def test_saturated_config_reaches_the_break():
    config = GREEDY_CONFIGS["saturated"]
    n_slots = config.n_servers * config.n_subbands
    offloaded = [
        GreedyScheduler().schedule(Scenario.build(config, seed=seed)).decision.n_offloaded()
        for seed in range(20)
    ]
    assert config.n_users > n_slots
    assert n_slots in offloaded


@pytest.mark.parametrize("seed", range(5))
def test_greedy_ties_go_to_first_free_slot_in_row_major_order(seed):
    config = SimulationConfig(n_users=9, n_servers=3, n_subbands=2, workload_megacycles=4000.0)
    base = Scenario.build(config, seed=seed)
    scenario = dataclasses.replace(base, gains=np.full_like(base.gains, base.gains.max()))
    assert_greedy_matches_scan(scenario)
    decision = GreedyScheduler().schedule(scenario).decision
    slots = sorted(zip(decision.server.tolist(), decision.channel.tolist()))
    assert slots[-6:] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
