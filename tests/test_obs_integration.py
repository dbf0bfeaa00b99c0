"""Integration tests: observability wired into the annealer, scheduler,
runner and fault paths.

The load-bearing guarantees:

* **Bitwise identity.**  Installing a recorder (even with per-iteration
  detail) never changes a scheduler's trajectory: utility, evaluation
  count and accepted-move count are exactly equal to the untraced run.
* **Trace fidelity.**  ``anneal.level`` events reproduce the scheduler's
  own ``record_trace`` series exactly, ``anneal.phase_switch`` fires at
  precisely the end-of-chain checks where the accepted-worse counter has
  reached ``maxCount = threshold_factor * L``, and the convergence
  report ``tsajs obs explain`` rebuilds from a trace equals the one
  computed from the in-memory series.
* **Runner telemetry.**  ``run_schemes`` snapshots per-(scheme, seed)
  metrics into ``ExperimentResult.telemetry``, and a retry policy makes
  the runner emit retry/failure events.
"""

from __future__ import annotations

import pytest

from repro.analysis.convergence import summarize_trace
from repro.core.annealing import AnnealingSchedule
from repro.core.degradation import degrade
from repro.core.delta import DeltaEvaluator
from repro.core.scheduler import TsajsScheduler
from repro.faults import FaultConfig, FaultSet, apply_faults, draw_faults_for_seed
from repro.obs.analyze import explain
from repro.obs.clock import TickClock
from repro.obs.recorder import set_recorder, use_recorder
from repro.obs.schema import span_pairs_balanced, validate_record
from repro.obs.trace import TraceRecorder, events_named
from repro.sim.config import SimulationConfig
from repro.sim.rng import child_rng
from repro.sim.runner import run_schemes
from repro.sim.scenario import Scenario
from tests.test_resilience import assert_identical_metrics

CONFIG = SimulationConfig(n_users=10, n_servers=3, n_subbands=2)
SCHEDULE = AnnealingSchedule(chain_length=15, min_temperature=1e-2)


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    set_recorder(None)


def _scenario(seed: int = 2025) -> Scenario:
    return Scenario.build(CONFIG, seed=seed)


def _scheduler(**kwargs) -> TsajsScheduler:
    kwargs.setdefault("schedule", SCHEDULE)
    return TsajsScheduler(**kwargs)


def _traced_run(seed: int = 2025, *, iteration_detail: bool = False,
                record_trace: bool = False, use_delta: bool = False):
    scenario = _scenario(seed)
    scheduler = _scheduler(record_trace=record_trace, use_delta=use_delta)
    recorder = TraceRecorder(clock=TickClock(), iteration_detail=iteration_detail)
    with use_recorder(recorder):
        result = scheduler.schedule(scenario, child_rng(seed, 100))
    return result, recorder.records


class TestBitwiseIdentity:
    @pytest.mark.parametrize("use_delta", [False, True])
    @pytest.mark.parametrize("iteration_detail", [False, True])
    def test_tracing_never_perturbs_the_trajectory(
        self, use_delta, iteration_detail
    ):
        scenario = _scenario()
        scheduler = _scheduler(use_delta=use_delta)
        untraced = scheduler.schedule(scenario, child_rng(2025, 100))
        traced, records = _traced_run(
            iteration_detail=iteration_detail, use_delta=use_delta
        )
        assert traced.utility == untraced.utility
        assert traced.evaluations == untraced.evaluations
        assert traced.accepted_moves == untraced.accepted_moves
        assert list(traced.decision.iter_assignments()) == list(
            untraced.decision.iter_assignments()
        )
        assert records  # the traced run did record something

    def test_all_emitted_records_are_schema_valid(self):
        _, records = _traced_run(iteration_detail=True)
        for record in records:
            validate_record(record)
        assert span_pairs_balanced(records)


class TestAnnealTraceFidelity:
    def test_level_events_match_record_trace_series(self):
        result, records = _traced_run(record_trace=True)
        levels = events_named(records, "anneal.level")
        assert len(levels) == len(result.trace)
        recovered = [
            float("-inf") if e["attrs"]["best"] is None else e["attrs"]["best"]
            for e in levels
        ]
        assert recovered == list(result.trace)

    def test_phase_switch_count_equals_fast_coolings(self):
        _, records = _traced_run()
        switches = events_named(records, "anneal.phase_switch")
        (finish,) = events_named(records, "anneal.finish")
        (outcome,) = events_named(records, "scheduler.result")
        assert len(switches) == finish["attrs"]["fast_coolings"]
        assert len(switches) == outcome["attrs"]["fast_coolings"]
        assert switches  # the fixture does trigger

    def test_phase_switch_fires_exactly_at_the_threshold(self):
        """The trigger fires iff the end-of-chain accepted-worse count
        reached maxCount — reconstructable from the level events because
        they are emitted before the cooling decision."""
        _, records = _traced_run()
        max_count = SCHEDULE.max_count
        switch_levels = {
            e["attrs"]["level"]
            for e in events_named(records, "anneal.phase_switch")
        }
        for event in events_named(records, "anneal.level"):
            attrs = event["attrs"]
            if attrs["level"] in switch_levels:
                assert attrs["accepted_worse"] >= max_count
            else:
                assert attrs["accepted_worse"] < max_count

    def test_phase_switch_attrs_carry_the_trigger_state(self):
        _, records = _traced_run()
        for event in events_named(records, "anneal.phase_switch"):
            attrs = event["attrs"]
            assert attrs["accepted_worse"] >= attrs["max_count"]
            assert attrs["max_count"] == SCHEDULE.max_count

    def test_step_events_only_with_iteration_detail(self):
        _, coarse = _traced_run(iteration_detail=False)
        result, detailed = _traced_run(iteration_detail=True)
        assert events_named(coarse, "anneal.step") == []
        steps = events_named(detailed, "anneal.step")
        (finish,) = events_named(detailed, "anneal.finish")
        assert len(steps) == finish["attrs"]["iterations"]
        accepted = sum(1 for e in steps if e["attrs"]["accepted"])
        assert accepted == result.accepted_moves

    def test_scheduler_result_event_splits_eval_counters(self):
        result, records = _traced_run(use_delta=True)
        (event,) = events_named(records, "scheduler.result")
        attrs = event["attrs"]
        assert attrs["evaluations"] == result.evaluations
        assert attrs["fast_evals"] + attrs["full_evals"] == attrs["evaluations"]
        assert attrs["fast_evals"] > attrs["full_evals"]  # delta path dominates

    def test_delta_counters_consistent_without_recorder(self):
        scenario = _scenario()
        scheduler = _scheduler(use_delta=True)
        result = scheduler.schedule(scenario, child_rng(2025, 100))
        evaluator = scheduler.evaluator_factory(scenario)
        # Fresh evaluator starts at zero; the run's evaluator is internal,
        # so assert on the class contract instead.
        assert evaluator.fast_evals == 0 and evaluator.full_evals == 0
        assert result.evaluations > 0


class TestConvergenceFromTrace:
    def test_report_from_trace_equals_report_from_series(self):
        result, records = _traced_run(record_trace=True)
        report = summarize_trace(result.trace)
        assert (
            f"  final={report.final_value:.4f} "
            f"to90=level {report.levels_to_90} "
            f"to99=level {report.levels_to_99} "
            f"auc={report.normalized_auc:.3f}\n"
        ) in explain(records)

    def test_multiple_runs_are_split(self):
        scenario = _scenario()
        scheduler = _scheduler()
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            first = scheduler.schedule(scenario, child_rng(2025, 100))
            second = scheduler.schedule(scenario, child_rng(2026, 100))
        report = explain(recorder.records)
        assert "annealing runs: 2\n" in report
        assert f"evaluations={first.evaluations} " in report.split("run 1:")[0]
        assert f"evaluations={second.evaluations} " in report.split("run 1:")[1]

    def test_empty_trace_reports_no_runs(self):
        report = explain([])
        assert report.startswith("0 records, schema valid, spans balanced: yes")
        assert "annealing runs: 0\n  no annealing runs in this trace" in report


class TestRunnerTelemetry:
    def test_untraced_run_has_no_telemetry(self):
        result = run_schemes(CONFIG, [_scheduler()], [2025])
        assert result.telemetry is None

    def test_traced_run_snapshots_metrics(self):
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            result = run_schemes(CONFIG, [_scheduler()], [2025, 2026])
        assert result.telemetry is not None
        counters = result.telemetry["counters"]
        assert counters["runner.seeds_completed{scheme=TSAJS}"] == 2.0
        assert counters["scheduler.evaluations{scheme=TSAJS}"] > 0
        gauges = result.telemetry["gauges"]
        assert "scheduler.utility{scheme=TSAJS,seed=2025}" in gauges
        hist = result.telemetry["histograms"]["scheduler.wall_time_s{scheme=TSAJS}"]
        assert hist["count"] == 2

    def test_traced_results_equal_untraced_results(self):
        untraced = run_schemes(CONFIG, [_scheduler()], [2025, 2026])
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            traced = run_schemes(CONFIG, [_scheduler()], [2025, 2026])
        # Every metric, not only the utility: on this small instance an
        # extra draw leaves the endpoint in place but moves the
        # evaluation count.
        assert_identical_metrics(untraced, traced)
        for record in recorder.records:
            validate_record(record)

    def test_runner_spans_cover_each_seed(self):
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            run_schemes(CONFIG, [_scheduler()], [2025, 2026])
        seed_spans = [
            r for r in recorder.records
            if r["name"] == "runner.seed" and r["kind"] == "span_start"
        ]
        assert sorted(s["attrs"]["seed"] for s in seed_spans) == [2025, 2026]
        assert len(events_named(recorder.records, "runner.run_schemes")) == 2


class TestResilientPathEvents:
    def test_journal_hits_are_emitted(self, tmp_path):
        from repro.experiments.cache import ResultCache

        schedulers = [_scheduler()]
        run_schemes(
            CONFIG, schedulers, [2025], journal=ResultCache(tmp_path / "c")
        )
        resumed = ResultCache(tmp_path / "c")
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            run_schemes(CONFIG, schedulers, [2025], journal=resumed)
        hits = events_named(recorder.records, "runner.journal_hit")
        assert len(hits) == 1
        assert hits[0]["attrs"]["seed"] == 2025


class TestFaultPathEvents:
    def _planned(self, scenario):
        return _scheduler().schedule(scenario, child_rng(0, 100))

    def test_empty_fault_set_emits_nothing(self):
        scenario = _scenario()
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            same = apply_faults(
                scenario, FaultSet.empty(scenario.n_servers, scenario.n_subbands)
            )
        assert same is scenario
        assert events_named(recorder.records, "faults.injected") == []

    def test_injection_event_counts_the_faults(self):
        scenario = _scenario()
        faults = draw_faults_for_seed(
            FaultConfig(server_outage_probability=0.9),
            scenario.n_users,
            scenario.n_servers,
            scenario.n_subbands,
            seed=1,
        )
        assert not faults.is_empty
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            apply_faults(scenario, faults)
        (event,) = events_named(recorder.records, "faults.injected")
        assert event["attrs"]["n_failed_servers"] == len(faults.failed_servers)

    def test_degrade_emits_fallback_and_result_events(self):
        scenario = _scenario()
        planned = self._planned(scenario)
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            failed_servers=frozenset({0}),
        )
        faulted = apply_faults(scenario, faults)
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            plan = degrade(faulted, planned, faults, "local_fallback")
        (fallback,) = events_named(recorder.records, "degrade.fallback")
        assert fallback["attrs"]["n_fallback"] == plan.n_fallback
        (outcome,) = events_named(recorder.records, "degrade.result")
        assert outcome["attrs"]["policy"] == "local_fallback"
        assert outcome["attrs"]["utility_retention"] == pytest.approx(
            plan.utility_retention
        )
        spans = [
            r for r in recorder.records if r["name"] == "degrade.run"
        ]
        assert [s["kind"] for s in spans] == ["span_start", "span_end"]

    def test_degrade_results_identical_with_and_without_recorder(self):
        scenario = _scenario()
        planned = self._planned(scenario)
        faults = FaultSet(
            scenario.n_servers,
            scenario.n_subbands,
            failed_servers=frozenset({0}),
        )
        faulted = apply_faults(scenario, faults)
        bare = degrade(
            faulted, planned, faults, "reschedule",
            rng=child_rng(0, 200), schedule=SCHEDULE,
        )
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder):
            traced = degrade(
                faulted, planned, faults, "reschedule",
                rng=child_rng(0, 200), schedule=SCHEDULE,
            )
        assert traced.degraded_utility == bare.degraded_utility
        assert traced.n_fallback == bare.n_fallback
        assert traced.result.evaluations == bare.result.evaluations
        assert traced.result.accepted_moves == bare.result.accepted_moves


class _OverflowingEvaluator(DeltaEvaluator):
    """Raises ``FloatingPointError`` once it has scored 50 candidates."""

    def evaluate_assignment(self, server_of_user, channel_of_user, touched=None):
        if self.evaluations >= 50:
            raise FloatingPointError("synthetic overflow")
        return super().evaluate_assignment(server_of_user, channel_of_user, touched)


class TestSpansCloseOnError:
    """A solve that raises still closes its spans: the trace stays
    balanced and the next span is not parented to a dead one."""

    def _assert_closed(self, recorder, span_name):
        with recorder.span("after"):
            pass
        records = recorder.records
        assert span_pairs_balanced(records)
        started = {r["name"]: r for r in records if r["kind"] == "span_start"}
        assert span_name in started
        assert "parent" not in started["after"]

    def test_anneal_run_span_closes(self):
        scheduler = _scheduler(evaluator_factory=_OverflowingEvaluator)
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder), pytest.raises(FloatingPointError):
            scheduler.schedule(_scenario(), child_rng(0, 100))
        self._assert_closed(recorder, "anneal.run")

    def test_degrade_run_span_closes(self, monkeypatch):
        scenario = _scenario()
        planned = _scheduler().schedule(scenario, child_rng(0, 100))
        faults = FaultSet(
            scenario.n_servers, scenario.n_subbands, failed_servers=frozenset({0})
        )
        faulted = apply_faults(scenario, faults)
        # The repair's TsajsScheduler picks its evaluator class at build.
        monkeypatch.setattr(
            "repro.core.scheduler.DeltaEvaluator", _OverflowingEvaluator
        )
        recorder = TraceRecorder(clock=TickClock())
        with use_recorder(recorder), pytest.raises(FloatingPointError):
            degrade(
                faulted,
                planned,
                faults,
                "reschedule",
                rng=child_rng(0, 200),
                schedule=SCHEDULE,
            )
        self._assert_closed(recorder, "degrade.run")
