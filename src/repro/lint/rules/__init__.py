"""Built-in rule modules.

Importing this package registers every rule with the global registry;
each module calls :func:`repro.lint.registry.register` at import time.

Every rule but R006 (a cross-file config check) works on one file at a
time.
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401
    r001_seeded_rng,
    r002_determinism,
    r003_units,
    r004_equations,
    r005_accumulation,
    r006_config_drift,
    r007_exceptions,
    r008_telemetry,
    r011_unordered_reduction,
)

__all__ = [
    "r001_seeded_rng",
    "r002_determinism",
    "r003_units",
    "r004_equations",
    "r005_accumulation",
    "r006_config_drift",
    "r007_exceptions",
    "r008_telemetry",
    "r011_unordered_reduction",
]
