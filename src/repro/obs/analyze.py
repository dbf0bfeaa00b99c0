"""Trace analysis behind ``tsajs obs explain``.

Consumes schema-v3 records (one trace file; a pool sweep's workers are
in it, labelled by ``shard``) and explains a run from the events the
program already emits:

* :func:`build_span_tree` — the reconstructed span hierarchy with
  per-span **total** (the span's own ``dur``) and **self** time (total
  minus the sum of direct children; clamped at 0, since children that
  ran in parallel workers can legitimately sum past their
  coordinator-side parent);
* :func:`critical_path` — the longest chain through the tree: from the
  heaviest root, repeatedly descend into the heaviest child.  On a
  sweep trace this names the seed/cluster/worker that gated wall clock;
* :func:`explain` — the whole report: time per top-level span and the
  critical path, one block per annealing run (acceptance rate per
  temperature level, phase-switch levels, best-so-far curve, iterations
  after the final best, evaluation counters), shard reconcile rounds
  and cache hits.

Everything here is a pure function of its input records — analysis
never re-runs experiments, and deterministic inputs render to
byte-identical reports.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.convergence import ascii_sparkline, summarize_trace
from repro.obs.schema import span_pairs_balanced

#: Attrs worth echoing inline in span and run labels (identity, not bulk).
_KEY_ATTRS = ("task", "seed", "scheme", "cluster", "round")

#: Acceptance rates printed per line of a run block.
_RATES_PER_LINE = 10


@dataclass
class SpanNode:
    """One reconstructed span with its children and timing."""

    span_id: int
    name: str
    start_t: float
    attrs: Dict[str, Any]
    shard: Optional[str] = None
    parent_id: Optional[int] = None
    dur: Optional[float] = None
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        """The span's own duration (0 for spans missing their end)."""
        return self.dur if self.dur is not None else 0.0

    @property
    def self_s(self) -> float:
        """Duration not covered by direct children (clamped at 0)."""
        covered = sum(child.total_s for child in self.children)
        return max(0.0, self.total_s - covered)

    def label(self) -> str:
        """``name`` plus identifying attrs and shard provenance."""
        parts = [self.name]
        for key in _KEY_ATTRS:
            if key in self.attrs:
                parts.append(f"{key}={self.attrs[key]}")
        if self.shard is not None:
            parts.append(f"[shard {self.shard}]")
        return " ".join(parts)


def _span_nodes(records: List[Dict[str, Any]]) -> Dict[int, SpanNode]:
    """Every span by id, children linked through the ``parent`` field."""
    nodes: Dict[int, SpanNode] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "span_start":
            node = SpanNode(
                span_id=int(record["id"]),
                name=str(record["name"]),
                start_t=float(record["t"]),
                attrs=dict(record.get("attrs", {})),
                shard=record.get("shard"),
                parent_id=record.get("parent"),
            )
            nodes[node.span_id] = node
        elif kind == "span_end":
            node = nodes.get(int(record["id"]))
            if node is not None:
                node.dur = float(record.get("dur", 0.0))
    for node in nodes.values():
        parent = _parent(node, nodes)
        if parent is not None:
            parent.children.append(node)
    return nodes


def _parent(node: SpanNode, nodes: Dict[int, SpanNode]) -> Optional[SpanNode]:
    parent = nodes.get(node.parent_id) if node.parent_id is not None else None
    return parent if parent is not node else None


def build_span_tree(records: List[Dict[str, Any]]) -> List[SpanNode]:
    """Reconstruct the span hierarchy from decoded trace records.

    Children are linked through the schema's ``parent`` field; spans
    with no (or an unknown) parent become roots.  Record order is
    preserved among siblings, so deterministic traces yield
    deterministic trees.
    """
    nodes = _span_nodes(records)
    return [node for node in nodes.values() if _parent(node, nodes) is None]


def critical_path(roots: List[SpanNode]) -> List[SpanNode]:
    """The heaviest root-to-leaf chain (what gated the wall clock)."""
    if not roots:
        return []
    path: List[SpanNode] = []
    node = max(roots, key=lambda n: (n.total_s, -n.start_t))
    while True:
        path.append(node)
        if not node.children:
            return path
        node = max(node.children, key=lambda n: (n.total_s, -n.start_t))


def render_critical_path(path: List[SpanNode]) -> str:
    """One line per hop: duration, share of the root, and the span label."""
    if not path:
        return "(no spans)"
    root_total = path[0].total_s
    lines = []
    for node in path:
        share = (node.total_s / root_total * 100.0) if root_total > 0 else 0.0
        lines.append(f"{node.total_s:12.6f}s {share:6.1f}%  {node.label()}")
    return "\n".join(lines)


# --- explain -----------------------------------------------------------------


@dataclass
class _Run:
    """One annealing run: its ``anneal.*`` events and its scheduler result."""

    label: str
    levels: List[Dict[str, Any]] = field(default_factory=list)
    switch_levels: List[int] = field(default_factory=list)
    finish: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None


def _run_label(record: Dict[str, Any], nodes: Dict[int, SpanNode]) -> str:
    """Identity attrs of the spans enclosing ``record`` (innermost wins)."""
    found: Dict[str, Any] = {}
    node = nodes.get(record["parent"]) if "parent" in record else None
    while node is not None:
        for key in _KEY_ATTRS:
            if key in node.attrs and key not in found:
                found[key] = node.attrs[key]
        node = _parent(node, nodes)
    parts = [f"{key}={found[key]}" for key in _KEY_ATTRS if key in found]
    if "shard" in record:
        parts.append(f"[shard {record['shard']}]")
    return " ".join(parts) if parts else "(no enclosing span)"


def _explain_time(roots: List[SpanNode]) -> List[str]:
    if not roots:
        return ["time: no spans"]
    lines = ["time (top-level spans):", f"{'total_s':>14} {'self_s':>12}  span"]
    lines += [
        f"{root.total_s:14.6f} {root.self_s:12.6f}  {root.label()}"
        for root in roots
    ]
    lines.append("critical path:")
    lines.append(render_critical_path(critical_path(roots)))
    return lines


def _explain_run(index: int, run: _Run) -> List[str]:
    finish = run.finish or {}
    result = run.result or {}
    last = run.levels[-1]
    iterations = int(finish.get("iterations", last["iterations"]))
    lines = [
        f"run {index}: {run.label}",
        f"  levels={len(run.levels)} iterations={iterations} "
        f"evaluations={result.get('evaluations', 'n/a')} "
        f"fast_coolings={finish.get('fast_coolings', 'n/a')}",
    ]
    # A dead assignment's -inf best is stored as null; the best-so-far
    # series is non-decreasing, so its finite part is a suffix.
    best = [
        float("-inf") if lv["best"] is None else float(lv["best"])
        for lv in run.levels
    ]
    finite = [value for value in best if value > float("-inf")]
    if finite:
        skipped = len(best) - len(finite)
        report = summarize_trace(finite)
        lines.append(
            f"  best {ascii_sparkline(finite, width=min(len(finite), 60))}"
        )
        lines.append(
            f"  final={report.final_value:.4f} "
            f"to90=level {skipped + report.levels_to_90} "
            f"to99=level {skipped + report.levels_to_99} "
            f"auc={report.normalized_auc:.3f}"
        )
        reached = best.index(best[-1])
        after = iterations - int(run.levels[reached]["iterations"])
        share = after / iterations * 100.0 if iterations else 0.0
        lines.append(
            f"  final best first reached at level {reached}: {after} of "
            f"{iterations} iterations ({share:.1f}%) came after it"
        )
    else:
        lines.append("  best: no finite utility")
    switched = set(run.switch_levels)
    lines.append(f"  phase switch fired {len(run.switch_levels)} times")
    if run.switch_levels:
        levels = ", ".join(str(level) for level in run.switch_levels)
        lines += textwrap.wrap(
            f"at levels {levels}",
            width=76,
            initial_indent="    ",
            subsequent_indent="    ",
        )
    lines.append("  acceptance rate per level (* = phase switch):")
    prev_accepted = prev_iterations = 0
    cells: List[str] = []
    for lv in run.levels:
        d_iter = int(lv["iterations"]) - prev_iterations
        d_acc = int(lv["accepted_moves"]) - prev_accepted
        rate = d_acc / d_iter if d_iter else 0.0
        mark = "*" if lv["level"] in switched else " "
        cells.append(f"{rate:.2f}{mark}")
        prev_accepted = int(lv["accepted_moves"])
        prev_iterations = int(lv["iterations"])
    for start in range(0, len(cells), _RATES_PER_LINE):
        chunk = " ".join(cells[start : start + _RATES_PER_LINE])
        lines.append(f"  {start:6d}: {chunk}".rstrip())
    return lines


def explain(records: List[Dict[str, Any]]) -> str:
    """Why a traced run spent its time and ended where it did.

    ``records`` are decoded, schema-validated trace records.  Annealing
    runs are split where ``anneal.level`` restarts at ``level == 0``;
    each run's ``anneal.finish`` and the next ``scheduler.result`` after
    it supply its iteration, fast-cooling and evaluation counters.
    """
    nodes = _span_nodes(records)
    roots = [node for node in nodes.values() if _parent(node, nodes) is None]
    runs: List[_Run] = []
    sharded: List[List[str]] = []
    hits = seeds = 0
    for record in records:
        name, attrs = record["name"], record["attrs"]
        if record["kind"] == "span_start":
            if name == "runner.seed":
                seeds += 1
            elif name == "shard.schedule":
                sharded.append(
                    [
                        f"  {nodes[record['id']].label()}: "
                        f"{attrs.get('n_clusters')} clusters, "
                        f"{attrs.get('n_boundary_users')} boundary users"
                    ]
                )
            continue
        if record["kind"] != "event":
            continue
        if name == "anneal.level":
            if attrs["level"] == 0 or not runs:
                runs.append(_Run(_run_label(record, nodes)))
            runs[-1].levels.append(attrs)
        elif name == "anneal.phase_switch" and runs:
            runs[-1].switch_levels.append(int(attrs["level"]))
        elif name == "anneal.finish" and runs and runs[-1].finish is None:
            runs[-1].finish = attrs
        elif (
            name == "scheduler.result"
            and runs
            and runs[-1].finish is not None
            and runs[-1].result is None
        ):
            runs[-1].result = attrs
        elif name == "shard.reconcile_round" and sharded:
            sharded[-1].append(
                f"    round {attrs['round']}: "
                f"improved={'yes' if attrs['improved'] else 'no'} "
                f"accepted_clusters={attrs['accepted_clusters']} "
                f"utility={float(attrs['utility']):.4f}"
            )
        elif name == "runner.journal_hit":
            hits += 1

    balanced = "yes" if span_pairs_balanced(records) else "NO"
    lines = [f"{len(records)} records, schema valid, spans balanced: {balanced}"]
    lines.append("")
    lines += _explain_time(roots)
    lines.append("")
    lines.append(f"annealing runs: {len(runs)}")
    if not runs:
        lines.append("  no annealing runs in this trace")
    for index, run in enumerate(runs):
        lines += _explain_run(index, run)
    lines.append("")
    lines.append(f"sharded solves: {len(sharded)}")
    for block in sharded:
        if len(block) == 1:
            block.append("    no reconcile rounds")
        lines += block
    lines.append("")
    lines.append(
        f"cache: {hits} hits (runner.journal_hit), "
        f"{seeds} computed seeds (runner.seed)"
    )
    return "\n".join(lines)
