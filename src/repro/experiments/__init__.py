"""Experiment drivers reproducing every figure of the paper's Sec. V.

Each ``figN_*`` module exposes a ``Settings`` dataclass (paper-scale
defaults, a ``quick()`` preset for CI and smoke runs, and the
``reference()`` scale of the tables under ``results/``) and a ``run``
function returning an :class:`~repro.experiments.report.ExperimentOutput`
whose rows mirror the series plotted in the corresponding figure.

The ``ablation_*`` modules probe the design choices DESIGN.md calls out:
the threshold trigger, the neighbourhood move mix and the cooling rates;
the ``ext_*`` modules go beyond the paper.  :mod:`.registry` maps every
experiment id to its driver and settings class.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.report import ExperimentOutput, render_text

__all__ = [
    "EXPERIMENTS",
    "ExperimentOutput",
    "get_experiment",
    "list_experiments",
    "render_text",
]
