"""Checked-in registry of the paper's equations and algorithms.

This is the source of truth R004 validates docstring citations against.
Keys are canonical citation ids — ``"Eq. 22"`` or ``"Alg. 1"`` — produced
by :func:`parse_citations` from the free-form references that appear in
docstrings (``Eq. (3)-(4)``, ``Algorithm 2``, ``Alg. 1 line 3``, ...).

Two contracts are enforced:

* every citation parsed out of a ``repro/core`` or ``repro/net``
  docstring must name a registered equation (no citing equations the
  paper does not define — the classic reproduction-drift failure);
* every function listed in :data:`REQUIRED_CITATIONS` must exist and
  carry its required citations, so the equation-to-code mapping survives
  refactors.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

#: Equation number -> one-line description (the paper's Sec. III-IV).
EQUATIONS: Dict[str, str] = {
    "Eq. 1": "local execution time t_u^local = c_u / f_u^local",
    "Eq. 2": "local execution energy E_u^local = kappa (f_u^local)^2 c_u",
    "Eq. 3": "uplink SINR gamma_us^j with inter-cell interference",
    "Eq. 4": "achievable uplink rate R_us^j = W log2(1 + gamma)",
    "Eq. 5": "upload time t_us^up = d_u / R_us^j",
    "Eq. 6": "upload energy E_us^up = p_u t_us^up",
    "Eq. 7": "edge execution time t_us^exe = c_u / f_us",
    "Eq. 8": "offload completion time t_us = t_us^up + t_us^exe",
    "Eq. 9": "offload energy E_us = E_us^up",
    "Eq. 10": "per-user offloading utility J_u (weighted savings)",
    "Eq. 11": "system utility J(X, F) = sum_u lam_u J_u",
    "Eq. 12": "the joint JTORA MINLP",
    "Eq. 12b": "binary offloading indicators x_usj",
    "Eq. 12c": "each user holds at most one (server, sub-band) slot",
    "Eq. 12d": "each (server, sub-band) slot serves at most one user",
    "Eq. 12e": "positive CPU share for every attached user",
    "Eq. 12f": "per-server CPU capacity budget",
    "Eq. 16": "utility rewritten with the constant gain term",
    "Eq. 17": "per-user communication-cost coefficient phi_u",
    "Eq. 18": "per-user energy-cost coefficient psi_u",
    "Eq. 19": "J = gain - Gamma(X) - Lambda(X, F) decomposition",
    "Eq. 20": "the CRA sub-problem min_F Lambda(X, F)",
    "Eq. 20a": "the CRA objective sum_s sum_u eta_u / f_us",
    "Eq. 21": "diagonal positive Hessian (CRA convexity)",
    "Eq. 22": "KKT closed-form optimum f*_us = f_s sqrt(eta_u)/sum sqrt(eta_v)",
    "Eq. 23": "optimal computation cost Lambda(X, F*)",
    "Eq. 24": "optimal-value objective J*(X) of the TTSA search",
}

#: Algorithm number -> description (the paper's pseudocode blocks).
ALGORITHMS: Dict[str, str] = {
    "Alg. 1": "TSAJS: threshold-triggered simulated annealing control loop",
    "Alg. 2": "GetNeighborhood: the four-branch move generator",
}

#: Every registered citation id.
KNOWN_CITATIONS: Dict[str, str] = {**EQUATIONS, **ALGORITHMS}

#: module -> {qualified function name -> citations its docstring must carry}.
#: This is the machine-checked equation-to-code map; extend it when new
#: model math lands in ``core/`` or ``net/``.
REQUIRED_CITATIONS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "repro/core/allocation.py": {
        "kkt_allocation": ("Eq. 22",),
        "optimal_allocation_cost": ("Eq. 23",),
        "allocation_cost": ("Eq. 20a",),
    },
    "repro/core/objective.py": {
        "ObjectiveEvaluator.evaluate_assignment": ("Eq. 24",),
        "ObjectiveEvaluator.evaluate_move": ("Eq. 24",),
        "ObjectiveEvaluator._score_assignment": ("Eq. 24",),
        "ObjectiveEvaluator.evaluate": ("Eq. 24",),
        "ObjectiveEvaluator.breakdown": ("Eq. 11",),
    },
    "repro/core/delta.py": {
        "DeltaEvaluator._score_assignment": ("Eq. 24",),
    },
    "repro/core/annealing.py": {
        "ThresholdTriggeredAnnealer.run": ("Alg. 1",),
    },
    "repro/core/scheduler.py": {
        "TsajsScheduler.schedule": ("Alg. 1",),
    },
    "repro/core/neighborhood.py": {
        "NeighborhoodSampler.propose": ("Alg. 2",),
        "NeighborhoodSampler.propose_move": ("Alg. 2",),
    },
    "repro/net/sinr.py": {
        "compute_link_stats": ("Eq. 3", "Eq. 4"),
        "compute_rates": ("Eq. 4",),
    },
}

_EQ_PATTERN = re.compile(
    r"\bEqs?\.?\s*\(?(\d+[a-f]?)\)?(?:\s*[-–]\s*\(?(\d+[a-f]?)\)?)?"
)
_ALG_PATTERN = re.compile(r"\b(?:Algorithm|Alg\.?)\s*(\d+)")


def _expand(start: str, end: str) -> List[str]:
    if start.isdigit() and end.isdigit():
        low, high = int(start), int(end)
        if low < high <= low + 50:
            return [str(n) for n in range(low, high + 1)]
    return [start, end]


def parse_citations(text: str) -> List[str]:
    """Canonical citation ids found in free-form docstring text.

    ``"Eq. (3)-(4)"`` yields ``["Eq. 3", "Eq. 4"]``; ``"Alg. 1 line 3"``
    yields ``["Alg. 1"]``.  Unrecognisable fragments are simply skipped —
    the rule validates what it can parse, it does not guess.
    """
    found: List[str] = []
    for match in _EQ_PATTERN.finditer(text):
        start, end = match.group(1), match.group(2)
        numbers = [start] if end is None else _expand(start, end)
        found.extend(f"Eq. {number}" for number in numbers)
    found.extend(f"Alg. {match.group(1)}" for match in _ALG_PATTERN.finditer(text))
    return found
