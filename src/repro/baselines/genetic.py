"""Genetic-algorithm scheduler for the task-offloading problem.

The paper's related-work section cites "suboptimal algorithms based on
hierarchical genetic algorithms and particle swarm optimization" [33] as
the other major metaheuristic family applied to computation offloading.
This module implements that comparison point so TSAJS can be evaluated
against a population-based search under the identical objective:

* **chromosome** — the compact assignment vectors (feasible by repair),
* **fitness** — the closed-form optimal-value function ``J*(X)``,
* **selection** — size-``k`` tournament,
* **crossover** — per-user uniform inheritance with slot-conflict repair
  (a user whose inherited slot is already taken falls back to a free slot
  of the same server, else local),
* **mutation** — one Algorithm-2 neighbourhood move per offspring with a
  configurable probability,
* **elitism** — the best individual always survives.

Individuals are scored on the default
:class:`~repro.core.delta.DeltaEvaluator` through its vector-diff path;
``evaluator_factory=ObjectiveEvaluator`` is the bit-for-bit equal oracle.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

import numpy as np

from repro.obs.clock import Stopwatch
from repro.core.allocation import kkt_allocation
from repro.core.decision import LOCAL, OffloadingDecision
from repro.core.delta import DeltaEvaluator
from repro.core.neighborhood import NeighborhoodSampler
from repro.core.objective import ObjectiveEvaluator
from repro.core.scheduler import ScheduleResult
from repro.errors import ConfigurationError
from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.sim.scenario import Scenario


class GeneticScheduler:
    """Elitist tournament GA over feasible offloading decisions.

    Parameters
    ----------
    population_size:
        Individuals per generation.
    generations:
        Hard generation budget.
    tournament_size:
        Tournament participants per parent selection.
    mutation_probability:
        Chance an offspring receives one neighbourhood move.
    patience:
        Stop early after this many generations without improvement.
    """

    name = "GA"

    def __init__(
        self,
        population_size: int = 40,
        generations: int = 80,
        tournament_size: int = 3,
        mutation_probability: float = 0.3,
        patience: int = 20,
        neighborhood: Optional[NeighborhoodSampler] = None,
        evaluator_factory: Callable[["Scenario"], ObjectiveEvaluator] = DeltaEvaluator,
    ) -> None:
        if population_size < 2:
            raise ConfigurationError(
                f"population_size must be >= 2, got {population_size}"
            )
        if generations < 1:
            raise ConfigurationError(f"generations must be >= 1, got {generations}")
        if tournament_size < 1 or tournament_size > population_size:
            raise ConfigurationError(
                f"tournament_size must lie in [1, population_size], got {tournament_size}"
            )
        if not 0.0 <= mutation_probability <= 1.0:
            raise ConfigurationError(
                f"mutation_probability must lie in [0, 1], got {mutation_probability}"
            )
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.population_size = population_size
        self.generations = generations
        self.tournament_size = tournament_size
        self.mutation_probability = mutation_probability
        self.patience = patience
        self.neighborhood = (
            neighborhood if neighborhood is not None else NeighborhoodSampler()
        )
        self.evaluator_factory = evaluator_factory

    # --- Genetic operators ---------------------------------------------------

    def _crossover(
        self,
        parent_a: OffloadingDecision,
        parent_b: OffloadingDecision,
        rng: np.random.Generator,
    ) -> OffloadingDecision:
        """Per-user uniform crossover with slot-conflict repair."""
        n_users = parent_a.n_users
        child = OffloadingDecision.all_local(
            n_users, parent_a.n_servers, parent_a.n_channels
        )
        take_from_a = rng.random(n_users) < 0.5
        # Assign in random order so repair does not systematically favour
        # low-indexed users.
        for user in rng.permutation(n_users):
            source = parent_a if take_from_a[user] else parent_b
            server = int(source.server[user])
            channel = int(source.channel[user])
            if server == LOCAL:
                continue
            if child.occupant_of(server, channel) == LOCAL:
                child.assign(int(user), server, channel)
                continue
            # Repair: same server, any free channel; else stay local.
            free = child.free_channels(server)
            if free:
                child.assign(int(user), server, int(free[int(rng.integers(len(free)))]))
        return child

    def _tournament(
        self,
        population: List[OffloadingDecision],
        fitness: List[float],
        rng: np.random.Generator,
    ) -> OffloadingDecision:
        contenders = rng.integers(len(population), size=self.tournament_size)
        best = max(contenders, key=lambda index: fitness[index])
        return population[int(best)]

    # --- Main loop -------------------------------------------------------------

    def schedule(
        self, scenario: "Scenario", rng: Optional[np.random.Generator] = None
    ) -> ScheduleResult:
        """Evolve a population of decisions; return the fittest found."""
        rng = rng if rng is not None else make_rng()
        watch = Stopwatch()
        evaluator = self.evaluator_factory(scenario)

        if scenario.n_users == 0:
            empty = OffloadingDecision.all_local(
                0, scenario.n_servers, scenario.n_subbands
            )
            return ScheduleResult(
                decision=empty,
                allocation=kkt_allocation(scenario, empty),
                utility=evaluator.evaluate(empty),
                evaluations=evaluator.evaluations,
                wall_time_s=watch.elapsed(),
            )

        population = [
            OffloadingDecision.random_feasible(
                scenario.n_users, scenario.n_servers, scenario.n_subbands, rng
            )
            for _ in range(self.population_size)
        ]
        fitness = [evaluator.evaluate(individual) for individual in population]

        best_index = int(np.argmax(fitness))
        best = population[best_index].copy()
        best_value = fitness[best_index]
        stale = 0

        for _ in range(self.generations):
            offspring: List[OffloadingDecision] = [best.copy()]  # elitism
            while len(offspring) < self.population_size:
                parent_a = self._tournament(population, fitness, rng)
                parent_b = self._tournament(population, fitness, rng)
                child = self._crossover(parent_a, parent_b, rng)
                if rng.random() < self.mutation_probability:
                    child = self.neighborhood.propose(child, rng)
                offspring.append(child)
            population = offspring
            fitness = [evaluator.evaluate(individual) for individual in population]
            generation_best = int(np.argmax(fitness))
            if fitness[generation_best] > best_value:
                best = population[generation_best].copy()
                best_value = fitness[generation_best]
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    break

        # Never return a negative-utility plan (Sec. III-A-4).
        if best_value < 0.0:
            best = OffloadingDecision.all_local(
                scenario.n_users, scenario.n_servers, scenario.n_subbands
            )
            best_value = evaluator.evaluate(best)

        return ScheduleResult(
            decision=best,
            allocation=kkt_allocation(scenario, best),
            utility=float(best_value),
            evaluations=evaluator.evaluations,
            wall_time_s=watch.elapsed(),
        )
