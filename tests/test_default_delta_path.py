"""The default TSAJS path is the delta evaluator, bitwise equal to the oracle.

Every TSAJS entry point a user reaches without options — ``TsajsScheduler()``,
the scheme registry (``TSAJS``, ``TSAJS-Shard``, ``TSAJS-PC``) and the
figure drivers' ``standard_schedulers()`` — must resolve to
:class:`~repro.core.delta.DeltaEvaluator`, as must the baselines built
there (their oracle equivalence lives in ``test_baseline_evaluators.py``).
The TSAJS entry points must also reproduce the scalar oracle
(``use_delta=False``) bit for bit: utility, decision bytes, evaluation
count, accepted moves and the per-level best-value trace.  A spy on the
one counted entry point, :meth:`ObjectiveEvaluator.evaluate_assignment`,
must see exactly the evaluations each solve reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.batch import BatchEvaluator
from repro.core.delta import DeltaEvaluator
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.core.sharding import ShardedScheduler
from repro.errors import ConfigurationError
from repro.experiments.common import standard_schedulers
from repro.experiments.schemes import build_schemes
from repro.obs import TraceRecorder
from repro.obs.recorder import use_recorder
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

#: Small paper-topology instance (9 stations) so sharding finds clusters.
CONFIG = SimulationConfig(n_users=12, n_subbands=2)
SEEDS = (2025, 2026, 2027, 2028, 2029)
QUICK = AnnealingSchedule(chain_length=10, min_temperature=1e-2)
#: Splits the 9-station deployment into several clusters.
MULTI_CLUSTER_RADIUS = 1.2

SCHEMES = ["TSAJS", "TSAJS-Shard", "TSAJS-PC"]
BASELINES = ["hJTORA", "LocalSearch", "Greedy", "Exhaustive", "GA"]


def _fingerprint(result):
    return (
        result.utility,
        result.decision.server.tobytes(),
        result.decision.channel.tobytes(),
        result.evaluations,
        result.accepted_moves,
        tuple(result.trace),
    )


def _record_trace(scheduler):
    """Turn on the per-level best-value trace of a TSAJS-based scheme."""
    getattr(scheduler, "tsajs", scheduler).record_trace = True
    return scheduler


def _evaluator_types(scheduler, scenario):
    """Evaluator classes a scheme builds for ``scenario``."""
    if isinstance(scheduler, ShardedScheduler):
        external_rx = np.zeros((scenario.n_subbands, scenario.n_servers))
        return {
            type(scheduler._inner_scheduler().evaluator_factory(scenario)),
            type(scheduler._reconcile_scheduler(external_rx).evaluator_factory(scenario)),
        }
    return {type(getattr(scheduler, "tsajs", scheduler).evaluator_factory(scenario))}


class TestDefaultsResolveToDelta:
    def test_tsajs_scheduler(self):
        scheduler = TsajsScheduler()
        assert scheduler.use_delta is True
        assert scheduler.evaluator_factory is DeltaEvaluator

    def test_registry_schemes(self):
        scenario = Scenario.build(CONFIG, SEEDS[0])
        for scheduler in build_schemes(SCHEMES, quick=True):
            assert _evaluator_types(scheduler, scenario) == {DeltaEvaluator}, (
                scheduler.name
            )

    def test_standard_schedulers(self):
        tsajs = standard_schedulers()[0]
        assert tsajs.name == "TSAJS"
        assert tsajs.evaluator_factory is DeltaEvaluator

    def test_standard_baselines(self):
        for scheduler in standard_schedulers(include_exhaustive=True):
            if scheduler.name != "TSAJS":
                assert scheduler.evaluator_factory is DeltaEvaluator, scheduler.name

    def test_registry_baselines(self):
        for scheduler in build_schemes(BASELINES, quick=True):
            assert scheduler.evaluator_factory is DeltaEvaluator, scheduler.name

    def test_explicit_settings_keep_their_meaning(self):
        scenario = Scenario.build(CONFIG, SEEDS[0])
        assert TsajsScheduler(use_delta=False).evaluator_factory is ObjectiveEvaluator
        assert TsajsScheduler(use_batch=True).evaluator_factory is BatchEvaluator
        for scheduler in build_schemes(SCHEMES, quick=True, use_delta=False):
            assert _evaluator_types(scheduler, scenario) == {ObjectiveEvaluator}, (
                scheduler.name
            )
        with pytest.raises(ConfigurationError):
            TsajsScheduler(use_delta=True, use_batch=True)
        with pytest.raises(ConfigurationError):
            ShardedScheduler(use_delta=True, use_batch=True)

    def test_batch_configurations_reanneal_on_delta(self):
        """The batch evaluator cannot model external_rx; delta stands in."""
        scenario = Scenario.build(CONFIG, SEEDS[0])
        sharded = ShardedScheduler(use_batch=True)
        assert type(sharded._inner_scheduler().evaluator_factory(scenario)) is (
            BatchEvaluator
        )
        external_rx = np.zeros((scenario.n_subbands, scenario.n_servers))
        reconcile = sharded._reconcile_scheduler(external_rx)
        assert type(reconcile.evaluator_factory(scenario)) is DeltaEvaluator


class TestDefaultsMatchOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tsajs_scheduler(self, seed):
        scenario = Scenario.build(CONFIG, seed)
        default = TsajsScheduler(schedule=QUICK, record_trace=True)
        oracle = TsajsScheduler(schedule=QUICK, record_trace=True, use_delta=False)
        assert _fingerprint(
            default.schedule(scenario, child_rng(seed, 100))
        ) == _fingerprint(oracle.schedule(scenario, child_rng(seed, 100)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_registry_schemes(self, seed):
        scenario = Scenario.build(CONFIG, seed)
        defaults = build_schemes(SCHEMES, quick=True)
        oracles = build_schemes(SCHEMES, quick=True, use_delta=False)
        for index, (default, oracle) in enumerate(zip(defaults, oracles)):
            got = _record_trace(default).schedule(scenario, child_rng(seed, 100 + index))
            want = _record_trace(oracle).schedule(scenario, child_rng(seed, 100 + index))
            assert _fingerprint(got) == _fingerprint(want), default.name
            assert got.trace, default.name

    @pytest.mark.parametrize("seed", SEEDS)
    def test_standard_schedulers(self, seed):
        scenario = Scenario.build(CONFIG, seed)
        kwargs = dict(chain_length=10, min_temperature=1e-2)
        default = _record_trace(standard_schedulers(**kwargs)[0])
        oracle = _record_trace(standard_schedulers(use_delta=False, **kwargs)[0])
        assert _fingerprint(
            default.schedule(scenario, child_rng(seed, 100))
        ) == _fingerprint(oracle.schedule(scenario, child_rng(seed, 100)))

    def test_sharded_with_accepted_reconcile_round(self):
        """Boundary re-anneals with external_rx on delta == scalar oracle."""
        seed = 2026
        scenario = Scenario.build(CONFIG, seed)
        results = {}
        for use_delta in (None, False):
            scheduler = ShardedScheduler(
                cluster_radius_km=MULTI_CLUSTER_RADIUS,
                schedule=QUICK,
                record_trace=True,
                use_delta=use_delta,
            )
            recorder = TraceRecorder(None)
            with use_recorder(recorder):
                result = scheduler.schedule(scenario, child_rng(seed, 100))
            accepted = [
                record["attrs"]["accepted_clusters"]
                for record in recorder.records
                if record["kind"] == "event"
                and record["name"] == "shard.reconcile_round"
            ]
            assert sum(accepted) >= 1, "no reconcile round was accepted"
            results[use_delta] = _fingerprint(result)
        assert results[None] == results[False]


class TestEvaluationAccounting:
    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        original = ObjectiveEvaluator.evaluate_assignment

        # Two-argument on purpose: wrappers and overrides written against
        # the original signature must keep seeing every move.
        def counting(self, server_of_user, channel_of_user):
            calls.append(type(self))
            return original(self, server_of_user, channel_of_user)

        monkeypatch.setattr(ObjectiveEvaluator, "evaluate_assignment", counting)
        return calls

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_tsajs_counts_every_call(self, spy, seed):
        scenario = Scenario.build(CONFIG, seed)
        result = TsajsScheduler(schedule=QUICK).schedule(scenario, child_rng(seed, 100))
        assert len(spy) == result.evaluations
        assert set(spy) == {DeltaEvaluator}

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_sharded_counts_every_call(self, spy, seed):
        scenario = Scenario.build(CONFIG, seed)
        (scheduler,) = build_schemes(["TSAJS-Shard"], quick=True)
        result = scheduler.schedule(scenario, child_rng(seed, 100))
        assert len(spy) == result.evaluations
        # Cluster solves and re-anneals on delta; the global re-scoring
        # of stitched decisions stays on the scalar evaluator.
        assert DeltaEvaluator in set(spy)
