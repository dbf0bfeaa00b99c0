"""Unit tests for the ``repro.obs`` observability layer.

Covers the clock seam (including the deterministic :class:`TickClock`),
the recorder protocol and its process-level installation, the trace schema
validator, the metrics registry and the JSONL trace recorder (byte
determinism, non-finite sanitisation, fork safety).  Integration with
the annealer/runner lives in ``tests/test_obs_integration.py``; CLI
round-trips in ``tests/test_obs_cli.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.obs.clock import (
    MonotonicClock,
    Stopwatch,
    TickClock,
    default_clock,
    monotonic,
    set_default_clock,
)
from repro.obs.metrics import HistogramStats, MetricsRegistry, metric_key
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.obs.schema import (
    SCHEMA_VERSION,
    TraceSchemaError,
    iter_trace_lines,
    span_pairs_balanced,
    validate_record,
    validate_trace,
)
from repro.obs.trace import TraceRecorder, events_named, read_trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Never leak recorder/clock state across tests."""
    yield
    set_recorder(None)
    set_default_clock(None)


def _event(**overrides):
    record = {
        "v": SCHEMA_VERSION,
        "kind": "event",
        "name": "anneal.level",
        "t": 1.5,
        "attrs": {"level": 3, "best": 2.5},
    }
    record.update(overrides)
    return record


class TestClock:
    def test_monotonic_clock_is_nondecreasing(self):
        clock = MonotonicClock()
        readings = [clock.now() for _ in range(5)]
        assert readings == sorted(readings)

    def test_tick_clock_advances_by_fixed_step(self):
        clock = TickClock(step=0.5, start=2.0)
        assert [clock.now() for _ in range(3)] == [2.0, 2.5, 3.0]

    def test_tick_clock_rejects_negative_step(self):
        with pytest.raises(ConfigurationError):
            TickClock(step=-1.0)

    def test_stopwatch_measures_tick_deltas(self):
        clock = TickClock(step=1.0)
        watch = Stopwatch(clock)
        assert watch.elapsed() == 1.0  # one read after the construction read
        assert watch.elapsed() == 2.0

    def test_stopwatch_restart_resets_origin(self):
        clock = TickClock(step=1.0)
        watch = Stopwatch(clock)
        watch.restart()
        assert watch.elapsed() == 1.0

    def test_default_clock_is_injectable(self):
        tick = TickClock(step=1.0, start=10.0)
        previous = set_default_clock(tick)
        try:
            assert default_clock() is tick
            assert monotonic() == 10.0
            assert Stopwatch().elapsed() == 1.0
        finally:
            set_default_clock(previous)
        assert isinstance(default_clock(), MonotonicClock)


class TestRecorderState:
    def test_default_is_null_recorder(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_null_recorder_hooks_are_noops(self):
        recorder = NullRecorder()
        recorder.event("x", a=1)
        recorder.count("c")
        recorder.gauge_set("g", 1.0)
        recorder.observe("h", 1.0)
        with recorder.span("s", b=2):
            pass
        assert recorder.snapshot() is None
        recorder.close()

    def test_set_recorder_installs_and_restores(self):
        mine = TraceRecorder(clock=TickClock())
        previous = set_recorder(mine)
        assert previous is NULL_RECORDER
        assert get_recorder() is mine
        set_recorder(None)
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_exit(self):
        mine = TraceRecorder(clock=TickClock())
        with use_recorder(mine) as installed:
            assert installed is mine
            assert get_recorder() is mine
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_error(self):
        mine = TraceRecorder(clock=TickClock())
        with pytest.raises(RuntimeError):
            with use_recorder(mine):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER


class TestSchema:
    def test_valid_event_passes(self):
        validate_record(_event())

    def test_valid_span_pair_passes(self):
        validate_record(_event(kind="span_start", id=0))
        validate_record(_event(kind="span_end", id=0, dur=0.25))

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"v": 2}, "schema version"),
            ({"kind": "metric"}, "unknown kind"),
            ({"name": ""}, "name"),
            ({"name": 7}, "name"),
            ({"t": -1.0}, "t must be"),
            ({"t": "now"}, "t must be"),
            ({"attrs": [1, 2]}, "attrs"),
            ({"attrs": {"x": {"nested": 1}}}, "scalar"),
            ({"attrs": {"x": float("inf")}}, "finite"),
            ({"attrs": {"x": float("nan")}}, "finite"),
            ({"attrs": {"x": [float("-inf")]}}, "finite"),
            ({"extra_field": 1}, "unexpected field"),
        ],
    )
    def test_invalid_records_raise(self, overrides, fragment):
        with pytest.raises(TraceSchemaError, match=fragment):
            validate_record(_event(**overrides))

    def test_span_start_requires_id(self):
        with pytest.raises(TraceSchemaError, match="span id"):
            validate_record(_event(kind="span_start"))

    def test_span_end_requires_nonnegative_dur(self):
        with pytest.raises(TraceSchemaError, match="dur"):
            validate_record(_event(kind="span_end", id=1, dur=-0.1))

    def test_non_object_record_rejected(self):
        with pytest.raises(TraceSchemaError, match="object"):
            validate_record([1, 2, 3])

    def test_iter_trace_lines_names_the_bad_line(self):
        lines = [json.dumps(_event()), "", "not json"]
        with pytest.raises(TraceSchemaError, match="line 3"):
            list(iter_trace_lines(lines))

    def test_blank_lines_are_skipped(self):
        lines = ["", json.dumps(_event()), "   ", json.dumps(_event())]
        assert len(validate_trace(lines)) == 2

    def test_span_pairs_balanced(self):
        start = _event(kind="span_start", id=0)
        end = _event(kind="span_end", id=0, dur=0.0)
        assert span_pairs_balanced([start, end])
        assert not span_pairs_balanced([start])
        assert not span_pairs_balanced([end])


class TestMetrics:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
        assert metric_key("m", {}) == "m"

    def test_metric_key_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            metric_key("", {})

    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.count("evals", 3, scheme="TSAJS")
        registry.count("evals", scheme="TSAJS")
        snap = registry.snapshot()
        assert snap["counters"] == {"evals{scheme=TSAJS}": 4.0}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge_set("utility", 1.0, seed=3)
        registry.gauge_set("utility", 2.5, seed=3)
        assert registry.snapshot()["gauges"] == {"utility{seed=3}": 2.5}

    def test_histogram_stats(self):
        stats = HistogramStats()
        for value in (1.0, 3.0, 2.0):
            stats.observe(value)
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.min == 1.0 and stats.max == 3.0

    def test_snapshot_orders_series_deterministically(self):
        registry = MetricsRegistry()
        registry.count("b")
        registry.count("a")
        registry.observe("h", 1.0, z=1)
        registry.observe("h", 2.0, a=1)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert list(snap["histograms"]) == ["h{a=1}", "h{z=1}"]
        assert len(registry) == 4

    def test_merge_adds_counters_and_combines_histograms(self):
        registry = MetricsRegistry()
        registry.count("evals", 2)
        registry.gauge_set("utility", 1.0)
        registry.observe("wall", 3.0)
        other = MetricsRegistry()
        other.count("evals", 3)
        other.count("seeds")
        other.gauge_set("utility", 2.5)
        other.observe("wall", 1.0)
        other.observe("wall", 5.0)
        registry.merge(other.snapshot())
        snap = registry.snapshot()
        assert snap["counters"] == {"evals": 5.0, "seeds": 1.0}
        assert snap["gauges"] == {"utility": 2.5}
        wall = snap["histograms"]["wall"]
        assert (wall["count"], wall["total"]) == (3, 9.0)
        assert (wall["min"], wall["max"]) == (1.0, 5.0)

    def test_empty_histogram_mean_is_zero(self):
        assert HistogramStats().mean == 0.0


class TestTraceRecorder:
    def test_in_memory_records(self):
        recorder = TraceRecorder(clock=TickClock())
        recorder.event("a", x=1)
        with recorder.span("b", y=2):
            recorder.event("c")
        assert recorder.n_records == 4
        for record in recorder.records:
            validate_record(record)
        assert span_pairs_balanced(recorder.records)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        with TraceRecorder(path, clock=TickClock()) as recorder:
            recorder.event("a", x=1)
            with recorder.span("b"):
                pass
        records = read_trace(path)
        assert [r["name"] for r in records] == ["a", "b", "b"]
        assert recorder.records == []  # a file recorder keeps none in memory

    def test_tick_clock_output_is_byte_deterministic(self, tmp_path):
        def run(path):
            with TraceRecorder(path, clock=TickClock(step=0.5)) as recorder:
                recorder.event("a", value=1.25, flag=True)
                with recorder.span("b", n=3):
                    recorder.event("c", items=[1, 2, None])
        run(tmp_path / "one.jsonl")
        run(tmp_path / "two.jsonl")
        assert (tmp_path / "one.jsonl").read_bytes() == (
            tmp_path / "two.jsonl"
        ).read_bytes()

    def test_non_finite_attrs_become_null(self):
        recorder = TraceRecorder(clock=TickClock())
        recorder.event(
            "a",
            dead=float("-inf"),
            nan=float("nan"),
            ok=1.0,
            mixed=[float("inf"), 2.0],
        )
        attrs = recorder.records[0]["attrs"]
        assert attrs["dead"] is None and attrs["nan"] is None
        assert attrs["ok"] == 1.0
        assert attrs["mixed"] == [None, 2.0]
        validate_record(recorder.records[0])

    def test_span_ids_are_unique_and_increasing(self):
        recorder = TraceRecorder(clock=TickClock())
        spans = [recorder.span("s") for _ in range(3)]
        assert [s.span_id for s in spans] == [0, 1, 2]
        for span in spans:
            span.__exit__(None, None, None)
        assert span_pairs_balanced(recorder.records)

    def test_span_end_carries_duration(self):
        recorder = TraceRecorder(clock=TickClock(step=1.0))
        with recorder.span("s"):
            pass
        end = recorder.records[-1]
        assert end["kind"] == "span_end"
        assert end["dur"] == 1.0

    def test_foreign_pid_emissions_are_dropped(self):
        recorder = TraceRecorder(clock=TickClock())
        recorder._pid = os.getpid() + 1  # simulate a forked child
        recorder.event("a")
        assert recorder.n_records == 0

    def test_metrics_reach_the_registry(self):
        recorder = TraceRecorder(clock=TickClock())
        recorder.count("c", scheme="X")
        recorder.gauge_set("g", 2.0)
        recorder.observe("h", 0.5)
        snap = recorder.snapshot()
        assert snap["counters"] == {"c{scheme=X}": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_close_is_idempotent(self, tmp_path):
        recorder = TraceRecorder(tmp_path / "t.jsonl", clock=TickClock())
        recorder.close()
        recorder.close()

    def test_events_named_filters(self):
        recorder = TraceRecorder(clock=TickClock())
        recorder.event("a")
        recorder.event("b")
        recorder.event("a")
        assert len(events_named(recorder.records, "a")) == 2

    def test_read_trace_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1}\n', encoding="utf-8")
        with pytest.raises(TraceSchemaError, match="line 1"):
            read_trace(path)


class TestRecorderProtocol:
    def test_trace_recorder_is_a_recorder(self):
        assert isinstance(TraceRecorder(clock=TickClock()), Recorder)
        assert TraceRecorder(clock=TickClock()).enabled

    def test_iteration_detail_flag_propagates(self):
        assert not TraceRecorder(clock=TickClock()).iteration_detail
        assert TraceRecorder(
            clock=TickClock(), iteration_detail=True
        ).iteration_detail
