"""``repro.obs`` — tracing and metrics for the reproduction.

The observability layer makes the paper's *dynamic* claims inspectable:
Fig. 3's near-optimality and Fig. 8's runtime advantage depend on how
TTSA converges (acceptance rate, the Algorithm-2 phase switch at
``1.75·L`` accepted-worse moves, the α₁→α₂ cooling split), and this
package records those trajectories instead of re-running them.

The cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.clock` — the injected monotonic clock every timed
  call site uses (lint rule R008 bans direct ``time.*`` elsewhere);
* :mod:`repro.obs.recorder` / :mod:`repro.obs.trace` — the
  :class:`Recorder` interface, the zero-overhead :class:`NullRecorder`
  default, and the JSONL schema-v3 :class:`TraceRecorder`, which also
  takes in the records pool workers return with their results;
* :mod:`repro.obs.metrics` — per-series counters/gauges/histograms;
* :mod:`repro.obs.analyze` — the ``tsajs obs explain`` report (span
  tree, critical path, annealing runs, reconcile rounds, cache hits).
  Import it directly: it is kept out of this package's eager imports.

The cardinal rule: **instrumentation never influences results.**  The
null path is held bitwise-identical to an uninstrumented build by test,
and its cost shows in perfbench's untraced ``solve_p50_s``; recorders
never touch any RNG stream; trace payloads carry monotonic deltas only.
"""

from repro.obs.clock import (
    Clock,
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
from repro.obs.trace import (
    Span,
    TraceRecorder,
    events_named,
    read_trace,
)

__all__ = [
    "Clock",
    "MonotonicClock",
    "TickClock",
    "Stopwatch",
    "default_clock",
    "set_default_clock",
    "monotonic",
    "MetricsRegistry",
    "HistogramStats",
    "metric_key",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "SCHEMA_VERSION",
    "TraceSchemaError",
    "validate_record",
    "validate_trace",
    "iter_trace_lines",
    "span_pairs_balanced",
    "TraceRecorder",
    "Span",
    "read_trace",
    "events_named",
]
