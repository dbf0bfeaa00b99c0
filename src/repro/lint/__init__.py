"""repro.lint — project-specific static analysis for the TSAJS reproduction.

The delta-evaluation fast path (:mod:`repro.core.delta`) is only correct
under invariants the language cannot express: identical float accumulation
order, fully seeded randomness, deterministic iteration, and a faithful
equation-to-code mapping against the paper.  This package enforces those
contracts at commit time with AST-based rules:

======  ==============================================================
R001    no unseeded/global randomness outside ``repro/sim/rng.py``
R002    determinism hazards in delta-contract modules (``core/``, ``net/``)
R003    unit discipline — telecom magic constants must route via ``units.py``
R004    paper traceability — model math must cite a registered equation
R005    float accumulation order — no Python ``sum()`` or BLAS in ``core/``
R006    config drift — every ``SimulationConfig`` field consumed + documented
R007    exception hygiene — no bare ``except:``, no swallowed broad handler
R008    telemetry discipline — no direct clock or ``print()``; atomic writes
R011    no float reduction over a set / ``as_completed`` / directory listing
======  ==============================================================

Run ``python -m repro.lint src/``.  There is no suppression comment: fix
the finding.  See ``docs/linting.md``.

The package imports nothing eagerly: the cache key
(:func:`repro.experiments.persistence.code_fingerprint`) reads
:mod:`repro.lint.equations` and must not load the lint engine.  Import
from the submodules (``repro.lint.engine``, ``repro.lint.registry``,
``repro.lint.diagnostics``).
"""
