"""The paper's primary contribution: TSAJS joint scheduling.

* :mod:`repro.core.decision` — the offloading decision ``X`` and its
  feasibility constraints (12b)-(12d).
* :mod:`repro.core.allocation` — the KKT closed-form computing-resource
  allocation (Eq. 20-23).
* :mod:`repro.core.objective` — utility/cost evaluation (Eq. 8-11, 16-19, 24).
* :mod:`repro.core.delta` — incremental (delta) evaluation of the same
  objective for the annealer's single-user moves.
* :mod:`repro.core.batch` — vectorized batch evaluation of whole
  Algorithm-2 neighbourhoods.
* :mod:`repro.core.annealing` — the threshold-triggered simulated-annealing
  engine (Algorithm 1's control loop).
* :mod:`repro.core.neighborhood` — the move generator (Algorithm 2).
* :mod:`repro.core.scheduler` — TSAJS itself: TTSA over decisions with KKT
  allocation, returning ``(X, F, J)``.
* :mod:`repro.core.partition` — spatial clustering of metro-scale
  topologies (grid-tile partitioner, boundary sets, sub-scenario
  extraction).
* :mod:`repro.core.sharding` — the sharded scheduler: per-cluster TTSA
  solves stitched together with a boundary-reconciliation fixed point.
"""

from repro.core.allocation import kkt_allocation, optimal_allocation_cost
from repro.core.annealing import AnnealingSchedule, ThresholdTriggeredAnnealer
from repro.core.batch import BatchEvaluator
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.objective import ObjectiveEvaluator, UtilityBreakdown
from repro.core.partition import Cluster, Partition, partition_scenario
from repro.core.scheduler import ScheduleResult, TsajsScheduler
from repro.core.sharding import ShardedScheduler

__all__ = [
    "LOCAL",
    "AnnealingSchedule",
    "BatchEvaluator",
    "Cluster",
    "DeltaEvaluator",
    "NeighborhoodSampler",
    "ObjectiveEvaluator",
    "OffloadingDecision",
    "Partition",
    "ScheduleResult",
    "ShardedScheduler",
    "ThresholdTriggeredAnnealer",
    "TsajsScheduler",
    "UtilityBreakdown",
    "kkt_allocation",
    "optimal_allocation_cost",
    "partition_scenario",
]
