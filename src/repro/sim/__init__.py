"""Scenario construction, experiment running and statistics."""

from repro.sim.config import SimulationConfig
from repro.sim.episodes import EpisodeConfig, EpisodeResult, EpisodeRunner, run_episode
from repro.sim.metrics import SolutionMetrics, solution_metrics
from repro.sim.runner import (
    ExperimentResult,
    SeedJournal,
    Sweep,
    run_schemes,
)
from repro.sim.scenario import Scenario
from repro.sim.stats import SummaryStats, mean_confidence_interval, summarize

__all__ = [
    "EpisodeConfig",
    "EpisodeResult",
    "EpisodeRunner",
    "ExperimentResult",
    "Scenario",
    "SeedJournal",
    "SimulationConfig",
    "SolutionMetrics",
    "SummaryStats",
    "Sweep",
    "mean_confidence_interval",
    "run_episode",
    "run_schemes",
    "solution_metrics",
    "summarize",
]
