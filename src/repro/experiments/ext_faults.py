"""Extension experiment — graceful degradation under infrastructure faults.

For each server-outage probability, a TSAJS plan is computed for the
fault-free system, a seeded fault set is drawn (full outages plus fixed
low rates of capacity degradation, sub-band loss and arrival churn), and
the plan is repaired by both degradation policies:

* ``TSAJS+local`` — users on dead slots fall back to local execution,
* ``TSAJS+resched`` — the fallback plan is repaired by a warm-started
  TTSA restricted to the surviving slots.

The reported quantity is **utility retention**: achieved utility on the
faulted system as a fraction of the fault-free plan's utility, averaged
over seeds, plus the mean number of users forced local.  Rescheduling
can only help (the repair anneal starts from the fallback plan), so the
gap between the two rows prices the value of re-optimisation.

The driver is cache-aware: with a result cache in its :class:`Sweep`
(``tsajs run --cache DIR``), every completed (scheme, seed) cell is
checkpointed under a :func:`~repro.experiments.cache.digest_key`, and a
resumed run recomputes only the missing cells.  The output contains no
wall-clock-derived values, so a resumed run's persisted output is
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.annealing import AnnealingSchedule
from repro.core.degradation import DEGRADATION_POLICIES, degrade
from repro.core.scheduler import TsajsScheduler
from repro.experiments.cache import digest_key
from repro.experiments.common import default_seeds
from repro.experiments.persistence import sweep_digest
from repro.experiments.report import ExperimentOutput, format_stat
from repro.faults.inject import apply_faults, faulted_solution_metrics
from repro.faults.models import FaultConfig, draw_faults_for_seed
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SolutionMetrics
from repro.sim.rng import child_rng
from repro.sim.runner import Sweep
from repro.sim.scenario import Scenario
from repro.sim.stats import summarize

#: Scheme labels per degradation policy.
SCHEME_NAMES: Dict[str, str] = {
    "local_fallback": "TSAJS+local",
    "reschedule": "TSAJS+resched",
}


@dataclass(frozen=True)
class ExtFaultsSettings:
    """Settings for the fault-injection degradation experiment."""

    outage_probabilities: Sequence[float] = (0.0, 0.1, 0.2, 0.4)
    server_degradation_probability: float = 0.1
    degraded_capacity_fraction: float = 0.25
    band_outage_probability: float = 0.05
    arrival_churn_probability: float = 0.05
    n_users: int = 20
    n_servers: int = 5
    n_subbands: int = 3
    chain_length: int = 40
    min_temperature: float = 1e-3
    repair_chain_length: int = 20
    n_seeds: int = 5

    @classmethod
    def quick(cls) -> "ExtFaultsSettings":
        return cls(
            outage_probabilities=(0.0, 0.4),
            n_users=8,
            n_servers=3,
            n_subbands=2,
            chain_length=10,
            min_temperature=1e-1,
            repair_chain_length=5,
            n_seeds=2,
        )

    @classmethod
    def reference(cls) -> "ExtFaultsSettings":
        return cls()


def _fault_config(settings: ExtFaultsSettings, outage: float) -> FaultConfig:
    return FaultConfig(
        server_outage_probability=outage,
        server_degradation_probability=settings.server_degradation_probability,
        degraded_capacity_fraction=settings.degraded_capacity_fraction,
        band_outage_probability=settings.band_outage_probability,
        arrival_churn_probability=settings.arrival_churn_probability,
    )


def run(
    settings: ExtFaultsSettings = ExtFaultsSettings(), sweep: Sweep = Sweep()
) -> ExperimentOutput:
    """Utility retention per degradation policy across outage rates."""
    seeds = default_seeds(settings.n_seeds)
    journal = sweep.journal
    planner = TsajsScheduler(
        schedule=AnnealingSchedule(
            chain_length=settings.chain_length,
            min_temperature=settings.min_temperature,
        )
    )
    repair_schedule = AnnealingSchedule(
        chain_length=settings.repair_chain_length,
        min_temperature=settings.min_temperature,
    )
    config = SimulationConfig(
        n_users=settings.n_users,
        n_servers=settings.n_servers,
        n_subbands=settings.n_subbands,
    )
    policies = list(DEGRADATION_POLICIES)
    scheme_names = [SCHEME_NAMES[policy] for policy in policies]

    headers = (
        ["outage prob"]
        + [f"{name} retention" for name in scheme_names]
        + [f"{name} local-fb" for name in scheme_names]
    )
    rows: List[List[str]] = []
    raw: dict = {
        "outage_probabilities": list(settings.outage_probabilities),
        "series": {name: [] for name in scheme_names},
        "fallbacks": {name: [] for name in scheme_names},
        "churned": {name: [] for name in scheme_names},
    }

    for outage in settings.outage_probabilities:
        fault_config = _fault_config(settings, outage)
        digest = sweep_digest(
            config,
            [planner],
            extra={
                "experiment": "ext_faults",
                "faults": fault_config,
                "repair_schedule": repair_schedule,
            },
        )
        samples: Dict[str, List[SolutionMetrics]] = {
            name: [] for name in scheme_names
        }
        for seed in seeds:
            cached: Dict[str, SolutionMetrics] = {}
            if journal is not None:
                for policy in policies:
                    name = SCHEME_NAMES[policy]
                    hit = journal.get(digest_key(digest, name, seed))
                    if hit is not None:
                        cached[name] = hit
            missing = [
                policy
                for policy in policies
                if SCHEME_NAMES[policy] not in cached
            ]
            if missing:
                scenario = Scenario.build(config, seed=seed)
                plan = planner.schedule(scenario, child_rng(seed, 100))
                faults = draw_faults_for_seed(
                    fault_config,
                    scenario.n_users,
                    scenario.n_servers,
                    scenario.n_subbands,
                    seed,
                )
                faulted = apply_faults(scenario, faults)
                for policy in missing:
                    name = SCHEME_NAMES[policy]
                    plan_degraded = degrade(
                        faulted,
                        plan,
                        faults,
                        policy,
                        rng=child_rng(seed, 200 + policies.index(policy)),
                        schedule=repair_schedule,
                    )
                    metrics = faulted_solution_metrics(
                        faulted,
                        plan_degraded.result,
                        planned_utility=plan_degraded.planned_utility,
                        n_fallback=plan_degraded.n_fallback,
                        n_churned=plan_degraded.n_churned,
                        reschedule_wall_time_s=(
                            plan_degraded.reschedule_wall_time_s
                        ),
                    )
                    cached[name] = metrics
                    if journal is not None:
                        journal.put(digest_key(digest, name, seed), metrics)
            for name in scheme_names:
                samples[name].append(cached[name])

        row = [f"{outage:.2f}"]
        for name in scheme_names:
            stat = summarize([m.utility_retention for m in samples[name]])
            raw["series"][name].append(stat)
            row.append(format_stat(stat, precision=3))
        for name in scheme_names:
            mean_fallback = summarize(
                [float(m.n_fallback) for m in samples[name]]
            ).mean
            mean_churned = summarize(
                [float(m.n_churned) for m in samples[name]]
            ).mean
            raw["fallbacks"][name].append(mean_fallback)
            raw["churned"][name].append(mean_churned)
            row.append(f"{mean_fallback:.2f}")
        rows.append(row)

    return ExperimentOutput(
        experiment_id="ext_faults",
        title="Extension - graceful degradation under injected faults",
        headers=headers,
        rows=rows,
        raw=raw,
    )
