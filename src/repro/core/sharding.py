"""Sharded TSAJS: per-cluster TTSA solves plus boundary reconciliation.

:class:`ShardedScheduler` decomposes one metro-scale JTORA instance
along the spatial partition of :mod:`repro.core.partition`:

1. every cluster is extracted as an independent sub-scenario and solved
   by a plain :class:`~repro.core.scheduler.TsajsScheduler` (the delta
   evaluation path by default, or the scalar oracle / batch path);
2. the per-cluster decisions are stitched into one global decision —
   feasible by construction, since a cluster's users only occupy slots
   of the cluster's own stations;
3. a deterministic fixed-point pass re-anneals the **boundary**
   clusters with the out-of-cluster interference frozen into the
   objective (``external_rx``) and the stitched decision as the
   ``schedule(initial=...)`` warm start, accepting a cluster's update
   only when the *globally* evaluated utility improves.

Determinism contract: with a fixed input generator the full run is a
pure function of ``(scenario, seed)``.  The caller's generator is used
only to draw one independent sub-seed per cluster plus one for the
reconciliation pass (in the deterministic cluster order), so cluster
solves never interleave draws and the trajectory is independent of any
execution-order concern.  When the partition yields a **single**
cluster the caller's generator is handed to the inner scheduler
unchanged and the inner result is returned verbatim (modulo an identity
index mapping), making the sharded solve bitwise identical to the
global scalar/delta/batch paths — the gate pinned by
``tests/test_sharded_equivalence.py``.

``ShardedScheduler`` implements the ordinary
:class:`~repro.core.scheduler.Scheduler` protocol, so it composes with
the :mod:`repro.sim.runner` sweep machinery and every
:class:`~repro.sim.executors.base.SweepExecutor` backend exactly like
any other scheme: an executor runs each (position, seed) cell whole —
the pool backend in a worker process — while the cell's sharded solve
handles the spatial decomposition within it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.allocation import kkt_allocation
from repro.core.annealing import AnnealingSchedule
from repro.core.decision import OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.objective import ObjectiveEvaluator
from repro.core.partition import (
    Partition,
    extract_cluster_scenario,
    external_interference,
    partition_scenario,
    restrict_decision,
    scatter_decision,
    validate_radii,
)
from repro.core.scheduler import (
    DEFAULT_BATCH_SIZE,
    ScheduleResult,
    TsajsScheduler,
    check_batch_size,
    resolve_use_delta,
)
from repro.errors import ConfigurationError
from repro.obs.clock import Stopwatch
from repro.obs.recorder import get_recorder
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario

#: Upper bound (exclusive) for the per-cluster sub-seeds drawn from the
#: caller's generator; any value representable as a non-negative int64.
_SEED_BOUND = 2**63 - 1

#: Default grid-tile side (km) of the station partition.
DEFAULT_CLUSTER_RADIUS_KM = 2.0
#: Default fixed-point cap of the boundary reconciliation.
DEFAULT_RECONCILE_ROUNDS = 2


class ShardedScheduler:
    """Spatially sharded TSAJS (cluster solves + boundary reconciliation).

    Parameters
    ----------
    cluster_radius_km:
        Side of the square grid tiles stations are binned into; the
        knob trading solution quality (larger clusters, fewer cut
        interference edges) against per-cluster solve cost.
    interference_radius_km:
        Distance beyond which a foreign station's co-channel coupling
        is treated as negligible (the far-field cutoff).  Defaults to
        the topology's inter-site distance at solve time.
    max_reconcile_rounds:
        Fixed-point iteration cap for the boundary pass; ``0`` disables
        reconciliation entirely.
    schedule, neighborhood, record_trace, use_delta, use_batch, batch_size:
        Forwarded to the inner per-cluster
        :class:`~repro.core.scheduler.TsajsScheduler` instances.  With
        ``record_trace`` the result's trace is the concatenation of the
        per-cluster traces in cluster order.  The boundary re-anneals run
        on the delta path unless ``use_delta=False`` selects the scalar
        oracle (the batch path cannot model ``external_rx``).
    """

    name = "TSAJS-Shard"

    def __init__(
        self,
        cluster_radius_km: float = DEFAULT_CLUSTER_RADIUS_KM,
        interference_radius_km: Optional[float] = None,
        max_reconcile_rounds: int = DEFAULT_RECONCILE_ROUNDS,
        schedule: Optional[AnnealingSchedule] = None,
        neighborhood: Optional[NeighborhoodSampler] = None,
        record_trace: bool = False,
        use_delta: Optional[bool] = None,
        use_batch: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        validate_radii(cluster_radius_km, interference_radius_km)
        check_batch_size(batch_size)
        if max_reconcile_rounds < 0:
            raise ConfigurationError(
                "max_reconcile_rounds must be non-negative, got "
                f"{max_reconcile_rounds}"
            )
        self.cluster_radius_km = cluster_radius_km
        self.interference_radius_km = interference_radius_km
        self.max_reconcile_rounds = max_reconcile_rounds
        self.schedule_params = schedule if schedule is not None else AnnealingSchedule()
        self.neighborhood = (
            neighborhood if neighborhood is not None else NeighborhoodSampler()
        )
        self.record_trace = record_trace
        self.use_delta = resolve_use_delta(use_delta, use_batch)
        self.use_batch = use_batch
        self.batch_size = batch_size

    # --- Inner-scheduler factories -----------------------------------------

    def _inner_scheduler(self) -> TsajsScheduler:
        """Per-cluster solver on the configured evaluation path."""
        return TsajsScheduler(
            schedule=self.schedule_params,
            neighborhood=self.neighborhood,
            record_trace=self.record_trace,
            use_delta=self.use_delta,
            use_batch=self.use_batch,
            batch_size=self.batch_size,
        )

    def _reconcile_scheduler(self, external_rx: np.ndarray) -> TsajsScheduler:
        """Boundary re-anneal solver with frozen external interference.

        The delta evaluator folds ``external_rx`` into its touched
        buckets in the full path's operation order, so it re-anneals
        bitwise equal to the scalar oracle; ``use_delta=False`` keeps the
        oracle.  The batch evaluator does not model the term, so batch
        configurations re-anneal on the delta path too.
        """
        use_delta = self.use_batch or self.use_delta
        evaluator_cls = DeltaEvaluator if use_delta else ObjectiveEvaluator

        def factory(scenario: "Scenario") -> ObjectiveEvaluator:
            return evaluator_cls(scenario, external_rx=external_rx)

        return TsajsScheduler(
            schedule=self.schedule_params,
            neighborhood=self.neighborhood,
            use_delta=use_delta,
            evaluator_factory=factory,
        )

    # --- Scheduling ---------------------------------------------------------

    def schedule(
        self,
        scenario: "Scenario",
        rng: Optional[np.random.Generator] = None,
        *,
        initial: Optional[OffloadingDecision] = None,
    ) -> ScheduleResult:
        """Solve ``scenario`` via the spatial decomposition.

        ``initial`` warm-starts every cluster from its restriction of
        the given global decision (assignments to foreign-cluster
        stations are dropped to local).
        """
        from repro.sim.rng import make_rng

        rng = rng if rng is not None else make_rng()
        interference_radius = (
            self.interference_radius_km
            if self.interference_radius_km is not None
            else (
                scenario.topology.inter_site_distance_km
                if scenario.topology is not None
                else self.cluster_radius_km
            )
        )
        partition = partition_scenario(
            scenario, self.cluster_radius_km, interference_radius
        )
        rec = get_recorder()
        watch = Stopwatch()
        n_boundary = int(
            np.add.reduce(
                np.array(
                    [c.boundary_users.size for c in partition.clusters],
                    dtype=np.int64,
                )
            )
        ) if partition.clusters else 0
        with rec.span(
            "shard.schedule",
            scheme=self.name,
            n_users=scenario.n_users,
            n_servers=scenario.n_servers,
            n_clusters=partition.n_clusters,
            n_boundary_users=n_boundary,
            cluster_radius_km=float(self.cluster_radius_km),
            interference_radius_km=float(interference_radius),
        ):
            if partition.n_clusters == 1:
                return self._schedule_single(scenario, partition, rng, initial, watch)
            return self._schedule_multi(scenario, partition, rng, initial, watch)

    def _schedule_single(
        self,
        scenario: "Scenario",
        partition: Partition,
        rng: np.random.Generator,
        initial: Optional[OffloadingDecision],
        watch: Stopwatch,
    ) -> ScheduleResult:
        """Degenerate one-cluster partition: defer to the inner solver.

        The sub-scenario extraction and index mapping still run (they
        are identity maps and bit-preserving), so this path exercises
        the same machinery as the multi-cluster one while remaining
        bitwise identical to a direct ``TsajsScheduler`` solve — the
        caller's generator is consumed by the inner solve alone.
        """
        cluster = partition.clusters[0]
        sub_scenario = extract_cluster_scenario(scenario, cluster)
        sub_initial = (
            restrict_decision(initial, cluster, scenario.n_servers)
            if initial is not None
            else None
        )
        result = self._inner_scheduler().schedule(
            sub_scenario, rng, initial=sub_initial
        )
        decision = OffloadingDecision.all_local(
            scenario.n_users, scenario.n_servers, scenario.n_subbands
        )
        scatter_decision(decision, cluster, result.decision)
        allocation = np.zeros((scenario.n_users, scenario.n_servers))
        allocation[np.ix_(cluster.users, cluster.servers)] = result.allocation
        return ScheduleResult(
            decision=decision,
            allocation=allocation,
            utility=result.utility,
            evaluations=result.evaluations,
            wall_time_s=watch.elapsed(),
            trace=list(result.trace),
            accepted_moves=result.accepted_moves,
            fast_coolings=result.fast_coolings,
        )

    def _schedule_multi(
        self,
        scenario: "Scenario",
        partition: Partition,
        rng: np.random.Generator,
        initial: Optional[OffloadingDecision],
        watch: Stopwatch,
    ) -> ScheduleResult:
        from repro.sim.rng import make_rng

        rec = get_recorder()
        # One upfront draw block from the caller's stream: each cluster
        # gets an independent generator derived from its own sub-seed,
        # so the per-cluster draw sequences are fixed regardless of how
        # the cluster solves are later parallelised or reordered.
        cluster_seeds = rng.integers(0, _SEED_BOUND, size=partition.n_clusters)
        reconcile_seed = int(rng.integers(0, _SEED_BOUND))

        composed = OffloadingDecision.all_local(
            scenario.n_users, scenario.n_servers, scenario.n_subbands
        )
        inner = self._inner_scheduler()
        sub_scenarios: List["Scenario"] = []
        evaluations = 0
        accepted_moves = fast_coolings = 0
        trace: List[float] = []
        for cluster in partition.clusters:
            sub_scenario = extract_cluster_scenario(scenario, cluster)
            sub_scenarios.append(sub_scenario)
            sub_initial = (
                restrict_decision(initial, cluster, scenario.n_servers)
                if initial is not None
                else None
            )
            with rec.span(
                "shard.cluster",
                cluster=cluster.index,
                n_users=cluster.n_users,
                n_servers=cluster.n_servers,
                n_boundary_users=int(cluster.boundary_users.size),
            ):
                cluster_watch = Stopwatch()
                result = inner.schedule(
                    sub_scenario,
                    make_rng(int(cluster_seeds[cluster.index])),
                    initial=sub_initial,
                )
                if rec.enabled:
                    rec.observe(
                        "shard.cluster_solve_s",
                        cluster_watch.elapsed(),
                        cluster=cluster.index,
                    )
            scatter_decision(composed, cluster, result.decision)
            evaluations += result.evaluations
            accepted_moves += result.accepted_moves
            fast_coolings += result.fast_coolings
            trace.extend(result.trace)

        global_eval = ObjectiveEvaluator(scenario)
        utility = global_eval.evaluate(composed)

        reconcile_rng = make_rng(reconcile_seed)
        boundary_clusters = [
            cluster
            for cluster in partition.clusters
            if cluster.boundary_users.size > 0
        ]
        rounds_used = 0
        for _ in range(self.max_reconcile_rounds):
            if not boundary_clusters:
                break
            improved = False
            rounds_used += 1
            accepted_clusters = 0
            for cluster in boundary_clusters:
                external_rx = external_interference(scenario, cluster, composed)
                warm = restrict_decision(composed, cluster, scenario.n_servers)
                result = self._reconcile_scheduler(external_rx).schedule(
                    sub_scenarios[cluster.index], reconcile_rng, initial=warm
                )
                evaluations += result.evaluations
                accepted_moves += result.accepted_moves
                fast_coolings += result.fast_coolings
                candidate = composed.copy()
                scatter_decision(candidate, cluster, result.decision)
                candidate_utility = global_eval.evaluate(candidate)
                if candidate_utility > utility:
                    composed = candidate
                    utility = candidate_utility
                    improved = True
                    accepted_clusters += 1
            if rec.enabled:
                rec.event(
                    "shard.reconcile_round",
                    round=rounds_used,
                    improved=improved,
                    accepted_clusters=accepted_clusters,
                    utility=float(utility),
                )
            if not improved:
                break
        if rec.enabled:
            rec.count("shard.reconcile_rounds", float(rounds_used))

        # Mirror TsajsScheduler's guard: staying fully local scores 0,
        # so never return a negative-utility plan (Sec. III-A-4).
        if utility < 0.0:
            composed = OffloadingDecision.all_local(
                scenario.n_users, scenario.n_servers, scenario.n_subbands
            )
            utility = global_eval.evaluate(composed)
        evaluations += global_eval.evaluations

        if rec.enabled:
            rec.event(
                "scheduler.result",
                scheme=self.name,
                utility=float(utility),
                evaluations=evaluations,
                accepted_moves=accepted_moves,
                n_clusters=partition.n_clusters,
                reconcile_rounds=rounds_used,
                n_offloaded=int(composed.n_offloaded()),
            )
        return ScheduleResult(
            decision=composed,
            allocation=kkt_allocation(scenario, composed),
            utility=utility,
            evaluations=evaluations,
            wall_time_s=watch.elapsed(),
            trace=trace,
            accepted_moves=accepted_moves,
            fast_coolings=fast_coolings,
        )
