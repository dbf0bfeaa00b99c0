#!/usr/bin/env python
"""Regenerate the reference experiment tables recorded in EXPERIMENTS.md.

Runs every figure and ablation driver at "reference" scale — denser than
the CI quick presets, lighter than the paper-scale full settings so the
whole grid finishes in tens of minutes on a laptop — and writes one table
per experiment under ``results/``.

Usage:
    python scripts/generate_experiments_report.py [--only fig3,fig9] [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import (
    ablation_budget,
    ablation_cooling,
    ablation_neighborhood,
    ablation_threshold,
    ext_downlink,
    ext_episodes,
    ext_fading,
    ext_metaheuristics,
    ext_partial,
    ext_power_control,
    fig3_suboptimality,
    fig4_user_scale,
    fig5_data_size,
    fig6_workload,
    fig7_subchannels,
    fig8_runtime,
    fig9_preferences,
)
from repro.atomicio import atomic_write_text
from repro.experiments.ext_fading import ExtFadingSettings as ExtFadingDefaults
from repro.experiments.report import render_text

#: Reference-scale settings: enough seeds/points for stable trends, small
#: enough to finish the full grid in well under an hour.
REFERENCE_RUNS = {
    "fig3": lambda: fig3_suboptimality.run(
        fig3_suboptimality.Fig3Settings(n_seeds=5, min_temperature=1e-6)
    ),
    "fig4": lambda: fig4_user_scale.run(
        fig4_user_scale.Fig4Settings(
            user_counts=(10, 30, 50, 70, 90),
            workloads_megacycles=(1000.0, 2000.0, 3000.0),
            chain_lengths=(10, 30),
            n_seeds=3,
            min_temperature=1e-6,
        )
    ),
    "fig5": lambda: fig5_data_size.run(
        fig5_data_size.Fig5Settings(n_seeds=3, min_temperature=1e-4)
    ),
    "fig6": lambda: fig6_workload.run(
        fig6_workload.Fig6Settings(n_seeds=3, min_temperature=1e-4)
    ),
    "fig7": lambda: fig7_subchannels.run(
        fig7_subchannels.Fig7Settings(
            subchannel_counts=(1, 2, 3, 5, 10, 20, 30),
            chain_lengths=(30,),
            n_users=40,
            n_seeds=2,
            min_temperature=1e-4,
        )
    ),
    "fig8": lambda: fig8_runtime.run(
        fig8_runtime.Fig8Settings(
            subchannel_counts=(1, 2, 5, 10, 20, 30),
            chain_lengths=(10, 50),
            n_users=40,
            # Ten seeds per point: with two, each 95 % CI used t(1) = 12.7
            # and many half-widths exceeded their means.
            n_seeds=10,
            min_temperature=1e-4,
        )
    ),
    "fig9": lambda: fig9_preferences.run(
        fig9_preferences.Fig9Settings(n_seeds=3, min_temperature=1e-4)
    ),
    "ablation_threshold": lambda: ablation_threshold.run(
        ablation_threshold.AblationThresholdSettings(
            n_seeds=3, min_temperature=1e-6
        )
    ),
    "ablation_neighborhood": lambda: ablation_neighborhood.run(
        ablation_neighborhood.AblationNeighborhoodSettings(
            n_seeds=3, min_temperature=1e-6
        )
    ),
    "ablation_cooling": lambda: ablation_cooling.run(
        ablation_cooling.AblationCoolingSettings(n_seeds=3, min_temperature=1e-6)
    ),
    "ext_power_control": lambda: ext_power_control.run(
        ext_power_control.ExtPowerControlSettings(n_seeds=3)
    ),
    "ext_downlink": lambda: ext_downlink.run(
        ext_downlink.ExtDownlinkSettings(n_seeds=3)
    ),
    "ext_metaheuristics": lambda: ext_metaheuristics.run(
        ext_metaheuristics.ExtMetaheuristicsSettings(n_seeds=3)
    ),
    "ext_partial": lambda: ext_partial.run(
        ext_partial.ExtPartialSettings(n_seeds=3)
    ),
    "ablation_budget": lambda: ablation_budget.run(
        ablation_budget.AblationBudgetSettings(n_seeds=3)
    ),
    "ext_fading": lambda: ext_fading.run(ExtFadingDefaults()),
    "ext_episodes": lambda: ext_episodes.run(
        ext_episodes.ExtEpisodesSettings(n_seeds=3)
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        help="comma-separated experiment ids (default: all)",
    )
    parser.add_argument(
        "--out", default="results", help="output directory (default: results/)"
    )
    args = parser.parse_args(argv)

    wanted = args.only.split(",") if args.only else list(REFERENCE_RUNS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for experiment_id in wanted:
        runner = REFERENCE_RUNS[experiment_id]
        print(f"[{time.strftime('%H:%M:%S')}] running {experiment_id} ...", flush=True)
        start = time.perf_counter()
        output = runner()
        elapsed = time.perf_counter() - start
        text = render_text(output)
        # Crash-safe: a run killed mid-write leaves the previous table
        # intact instead of a torn results/ artifact.
        atomic_write_text(out_dir / f"{experiment_id}.txt", text + "\n")
        print(text)
        print(f"[{experiment_id} finished in {elapsed:.1f}s]\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
