#!/usr/bin/env python
"""Regenerate the reference experiment tables under ``results/``.

Runs every registered experiment at its settings' ``reference()`` scale
— denser than the CI quick presets, lighter than the paper-scale
defaults — and writes one table per experiment.  EXPERIMENTS.md reads
these tables.

Usage:
    python scripts/generate_experiments_report.py [--only fig3,fig9] [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.atomicio import atomic_write_text
from repro.errors import float_error_mode
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.report import render_text


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
    with float_error_mode():
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    wanted = args.only.split(",") if args.only else list_experiments()
    # Look every id up first: a typo fails before minutes of runs.
    specs = [get_experiment(experiment_id) for experiment_id in wanted]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for spec in specs:
        print(f"[{time.strftime('%H:%M:%S')}] running {spec.experiment_id} ...", flush=True)
        start = time.perf_counter()
        output = spec.run(spec.settings.reference())
        elapsed = time.perf_counter() - start
        text = render_text(output)
        # Crash-safe: a run killed mid-write leaves the previous table
        # intact instead of a torn results/ artifact.
        atomic_write_text(out_dir / f"{spec.experiment_id}.txt", text + "\n")
        print(text)
        print(f"[{spec.experiment_id} finished in {elapsed:.1f}s]\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
