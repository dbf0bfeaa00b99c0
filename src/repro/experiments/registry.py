"""Registry mapping experiment ids to their drivers.

Each entry couples an experiment's driver with its settings class, which
carries three scales: ``quick()`` for CI and smoke runs, ``reference()``
for the tables under ``results/`` and the paper-scale defaults.  The CLI
(``tsajs run fig3 [--quick]``) and ``scripts/generate_experiments_report.py``
both launch experiments through it::

    spec = get_experiment("fig3")
    spec.run(spec.settings.quick(), sweep)
    spec.run(spec.settings.reference())

``sweep`` is the :class:`~repro.sim.runner.Sweep` the driver runs its
experiment points through (serial, fail-fast and uncached by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

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


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: id, description, driver and settings class."""

    experiment_id: str
    description: str
    run: Callable[..., ExperimentOutput]
    #: The ``*Settings`` dataclass: ``quick()``, ``reference()`` or ``()``.
    settings: Any
    #: Whether the driver runs its points through ``sweep.run`` and so
    #: honours ``tsajs run --workers``.
    honours_workers: bool = True
    #: Whether the driver reads and writes ``sweep.journal`` and so
    #: honours ``tsajs run --cache`` and ``--no-resume``.
    honours_cache: bool = True


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig3",
            "Suboptimality vs exhaustive optimum (small network)",
            fig3_suboptimality.run,
            fig3_suboptimality.Fig3Settings,
        ),
        ExperimentSpec(
            "fig4",
            "System utility vs user count",
            fig4_user_scale.run,
            fig4_user_scale.Fig4Settings,
        ),
        ExperimentSpec(
            "fig5",
            "System utility vs task data size",
            fig5_data_size.run,
            fig5_data_size.Fig5Settings,
        ),
        ExperimentSpec(
            "fig6",
            "System utility vs task workload",
            fig6_workload.run,
            fig6_workload.Fig6Settings,
        ),
        ExperimentSpec(
            "fig7",
            "System utility vs sub-channel count",
            fig7_subchannels.run,
            fig7_subchannels.Fig7Settings,
        ),
        ExperimentSpec(
            "fig8",
            "Computation time vs sub-channel count",
            fig8_runtime.run,
            fig8_runtime.Fig8Settings,
        ),
        ExperimentSpec(
            "fig9",
            "User-preference trade-off (energy vs delay)",
            fig9_preferences.run,
            fig9_preferences.Fig9Settings,
        ),
        ExperimentSpec(
            "ablation_threshold",
            "Threshold-triggered vs single-rate cooling",
            ablation_threshold.run,
            ablation_threshold.AblationThresholdSettings,
        ),
        ExperimentSpec(
            "ablation_neighborhood",
            "Algorithm 2 move-probability mix",
            ablation_neighborhood.run,
            ablation_neighborhood.AblationNeighborhoodSettings,
        ),
        ExperimentSpec(
            "ablation_cooling",
            "Cooling-rate sweep",
            ablation_cooling.run,
            ablation_cooling.AblationCoolingSettings,
        ),
        ExperimentSpec(
            "ablation_budget",
            "Utility vs annealing budget (T_min sweep)",
            ablation_budget.run,
            ablation_budget.AblationBudgetSettings,
        ),
        ExperimentSpec(
            "ext_power_control",
            "Extension: utility gain from uplink power control",
            ext_power_control.run,
            ext_power_control.ExtPowerControlSettings,
            honours_workers=False,
            honours_cache=False,
        ),
        ExperimentSpec(
            "ext_downlink",
            "Extension: downlink-aware scheduling vs output size",
            ext_downlink.run,
            ext_downlink.ExtDownlinkSettings,
            honours_workers=False,
            honours_cache=False,
        ),
        ExperimentSpec(
            "ext_metaheuristics",
            "Extension: TSAJS vs genetic-algorithm search",
            ext_metaheuristics.run,
            ext_metaheuristics.ExtMetaheuristicsSettings,
        ),
        ExperimentSpec(
            "ext_partial",
            "Extension: atomic vs bit-level partial offloading",
            ext_partial.run,
            ext_partial.ExtPartialSettings,
            honours_workers=False,
            honours_cache=False,
        ),
        ExperimentSpec(
            "ext_fading",
            "Extension: robustness of mean-channel plans to fast fading",
            ext_fading.run,
            ext_fading.ExtFadingSettings,
            honours_workers=False,
            honours_cache=False,
        ),
        ExperimentSpec(
            "ext_episodes",
            "Extension: episodic operation under server outages",
            ext_episodes.run,
            ext_episodes.ExtEpisodesSettings,
            honours_workers=False,
            honours_cache=False,
        ),
        ExperimentSpec(
            "ext_faults",
            "Extension: graceful degradation under injected faults",
            ext_faults.run,
            ext_faults.ExtFaultsSettings,
            honours_workers=False,
        ),
        ExperimentSpec(
            "ext_sharding",
            "Extension: sharded-vs-global utility gap vs cluster radius",
            ext_sharding.run,
            ext_sharding.ExtShardingSettings,
            honours_workers=False,
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
