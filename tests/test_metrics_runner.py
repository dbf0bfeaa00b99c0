"""Tests for solution metrics and the multi-seed experiment runner."""

import numpy as np
import pytest

from repro.baselines import AllLocalScheduler, GreedyScheduler
from repro.core.decision import OffloadingDecision
from repro.core.scheduler import TsajsScheduler
from repro.core.annealing import AnnealingSchedule
from repro.core.allocation import kkt_allocation
from repro.core.scheduler import ScheduleResult
from repro.errors import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.executors import ProcessPoolSweepExecutor
from repro.sim.metrics import solution_metrics
from repro.sim.runner import run_schemes

QUICK_TSAJS = TsajsScheduler(schedule=AnnealingSchedule(min_temperature=1e-1))


def result_for(scenario, assignments=()):
    decision = OffloadingDecision.all_local(
        scenario.n_users, scenario.n_servers, scenario.n_subbands
    )
    for u, s, j in assignments:
        decision.assign(u, s, j)
    from repro.core.objective import ObjectiveEvaluator

    evaluator = ObjectiveEvaluator(scenario)
    return ScheduleResult(
        decision=decision,
        allocation=kkt_allocation(scenario, decision),
        utility=evaluator.evaluate(decision),
        evaluations=evaluator.evaluations,
        wall_time_s=0.5,
    )


class TestSolutionMetrics:
    def test_all_local_metrics(self, tiny_scenario):
        metrics = solution_metrics(tiny_scenario, result_for(tiny_scenario))
        assert metrics.system_utility == 0.0
        assert metrics.mean_time_s == pytest.approx(1.0)
        assert metrics.mean_energy_j == pytest.approx(5.0)
        assert metrics.n_offloaded == 0
        assert np.isnan(metrics.mean_offloaded_time_s)
        assert np.isnan(metrics.mean_offloaded_energy_j)

    def test_offloaded_averages(self, tiny_scenario):
        metrics = solution_metrics(
            tiny_scenario, result_for(tiny_scenario, [(0, 0, 0)])
        )
        assert metrics.n_offloaded == 1
        assert metrics.mean_offloaded_time_s < 1.0  # faster than local
        assert metrics.mean_offloaded_energy_j < 5.0
        # Mean over all users mixes one offloader with three local users.
        assert metrics.mean_time_s < 1.0
        assert metrics.mean_time_s > metrics.mean_offloaded_time_s

    def test_wall_time_passthrough(self, tiny_scenario):
        metrics = solution_metrics(tiny_scenario, result_for(tiny_scenario))
        assert metrics.wall_time_s == 0.5


class TestRunSchemes:
    def config(self):
        return SimulationConfig(n_users=5, n_servers=2, n_subbands=2)

    def test_collects_all_schemes_and_seeds(self):
        result = run_schemes(
            self.config(),
            [GreedyScheduler(), AllLocalScheduler()],
            seeds=[1, 2, 3],
        )
        assert set(result.schemes) == {"Greedy", "AllLocal"}
        assert len(result.metrics["Greedy"]) == 3
        assert result.seeds == [1, 2, 3]

    def test_accessors(self):
        result = run_schemes(
            self.config(), [GreedyScheduler()], seeds=[1, 2, 3, 4]
        )
        utilities = result.utilities("Greedy")
        assert len(utilities) == 4
        summary = result.utility_summary("Greedy")
        assert summary.mean == pytest.approx(np.mean(utilities))
        assert len(result.wall_times("Greedy")) == 4
        assert len(result.mean_times("Greedy")) == 4
        assert len(result.mean_energies("Greedy")) == 4
        assert result.wall_time_summary("Greedy").n == 4

    def test_reproducible_across_calls(self):
        a = run_schemes(self.config(), [QUICK_TSAJS], seeds=[7, 8])
        b = run_schemes(self.config(), [QUICK_TSAJS], seeds=[7, 8])
        assert a.utilities("TSAJS") == b.utilities("TSAJS")

    def test_adding_scheme_does_not_perturb_existing(self):
        alone = run_schemes(self.config(), [GreedyScheduler()], seeds=[5])
        paired = run_schemes(
            self.config(), [GreedyScheduler(), AllLocalScheduler()], seeds=[5]
        )
        assert alone.utilities("Greedy") == paired.utilities("Greedy")

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigurationError):
            run_schemes(self.config(), [GreedyScheduler()], seeds=[])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            run_schemes(
                self.config(),
                [GreedyScheduler(), GreedyScheduler()],
                seeds=[1],
            )

    def test_all_local_utility_always_zero(self):
        result = run_schemes(self.config(), [AllLocalScheduler()], seeds=[1, 2])
        assert result.utilities("AllLocal") == [0.0, 0.0]


class TestParallelRunner:
    def config(self):
        return SimulationConfig(n_users=5, n_servers=2, n_subbands=2)

    def test_parallel_matches_sequential(self):
        schedulers = [QUICK_TSAJS, GreedyScheduler()]
        sequential = run_schemes(self.config(), schedulers, seeds=[1, 2, 3])
        parallel = run_schemes(
            self.config(),
            schedulers,
            seeds=[1, 2, 3],
            executor=ProcessPoolSweepExecutor(n_jobs=3),
        )
        assert sequential.utilities("TSAJS") == parallel.utilities("TSAJS")
        assert sequential.utilities("Greedy") == parallel.utilities("Greedy")

    def test_single_seed_stays_sequential(self):
        """A one-seed wave uses one pool worker, whatever n_jobs says."""
        result = run_schemes(
            self.config(),
            [GreedyScheduler()],
            seeds=[7],
            executor=ProcessPoolSweepExecutor(n_jobs=8),
        )
        assert len(result.utilities("Greedy")) == 1

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolSweepExecutor(n_jobs=0)
