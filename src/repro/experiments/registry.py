"""Registry mapping experiment ids to their drivers.

Each entry couples the full (paper-scale) settings with a quick preset so
both the CLI (``tsajs run fig3``) and the benchmark suite can launch any
experiment by id.  Both entry points take the :class:`~repro.sim.runner.Sweep`
the driver runs its experiment points through (serial, fail-fast and
uncached by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.experiments import (
    ablation_budget,
    ablation_cooling,
    ablation_neighborhood,
    ablation_threshold,
    ext_downlink,
    ext_episodes,
    ext_fading,
    ext_faults,
    ext_metaheuristics,
    ext_partial,
    ext_power_control,
    ext_sharding,
    fig3_suboptimality,
    fig4_user_scale,
    fig5_data_size,
    fig6_workload,
    fig7_subchannels,
    fig8_runtime,
    fig9_preferences,
)
from repro.experiments.report import ExperimentOutput
from repro.sim.runner import Sweep


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: id, description and two entry points."""

    experiment_id: str
    description: str
    run_full: Callable[..., ExperimentOutput]
    run_quick: Callable[..., ExperimentOutput]


def _spec(experiment_id: str, description: str, module) -> ExperimentSpec:
    settings_cls = getattr(
        module,
        next(
            name
            for name in dir(module)
            if name.endswith("Settings") and not name.startswith("_")
        ),
    )
    return ExperimentSpec(
        experiment_id=experiment_id,
        description=description,
        run_full=lambda sweep=Sweep(): module.run(settings_cls(), sweep),
        run_quick=lambda sweep=Sweep(): module.run(settings_cls.quick(), sweep),
    )


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        _spec(
            "fig3",
            "Suboptimality vs exhaustive optimum (small network)",
            fig3_suboptimality,
        ),
        _spec("fig4", "System utility vs user count", fig4_user_scale),
        _spec("fig5", "System utility vs task data size", fig5_data_size),
        _spec("fig6", "System utility vs task workload", fig6_workload),
        _spec("fig7", "System utility vs sub-channel count", fig7_subchannels),
        _spec("fig8", "Computation time vs sub-channel count", fig8_runtime),
        _spec("fig9", "User-preference trade-off (energy vs delay)", fig9_preferences),
        _spec(
            "ablation_threshold",
            "Threshold-triggered vs single-rate cooling",
            ablation_threshold,
        ),
        _spec(
            "ablation_neighborhood",
            "Algorithm 2 move-probability mix",
            ablation_neighborhood,
        ),
        _spec(
            "ablation_cooling",
            "Cooling-rate sweep",
            ablation_cooling,
        ),
        _spec(
            "ablation_budget",
            "Utility vs annealing budget (T_min sweep)",
            ablation_budget,
        ),
        _spec(
            "ext_power_control",
            "Extension: utility gain from uplink power control",
            ext_power_control,
        ),
        _spec(
            "ext_downlink",
            "Extension: downlink-aware scheduling vs output size",
            ext_downlink,
        ),
        _spec(
            "ext_metaheuristics",
            "Extension: TSAJS vs genetic-algorithm search",
            ext_metaheuristics,
        ),
        _spec(
            "ext_partial",
            "Extension: atomic vs bit-level partial offloading",
            ext_partial,
        ),
        _spec(
            "ext_fading",
            "Extension: robustness of mean-channel plans to fast fading",
            ext_fading,
        ),
        _spec(
            "ext_episodes",
            "Extension: episodic operation under server outages",
            ext_episodes,
        ),
        _spec(
            "ext_faults",
            "Extension: graceful degradation under injected faults",
            ext_faults,
        ),
        _spec(
            "ext_sharding",
            "Extension: sharded-vs-global utility gap vs cluster radius",
            ext_sharding,
        ),
    )
}


def list_experiments() -> List[str]:
    """All registered experiment ids, figure experiments first."""
    return list(EXPERIMENTS.keys())


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up a registered experiment by id."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(list_experiments())}"
        ) from None
