"""Static checks of the hazard matrix in ``scripts/gate_matrix.py``.

Runs no gate (the matrix itself takes minutes; CI's ``gate-matrix`` job
runs it).  These checks keep the rows pointing at real code and the
checked-in table in docs/linting.md consistent with them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TELEMETRY_SHAPES = {"draw in an emission argument", "draw under an enable flag"}


def _load_gate_matrix():
    spec = importlib.util.spec_from_file_location(
        "gate_matrix", ROOT / "scripts" / "gate_matrix.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


gate_matrix = _load_gate_matrix()


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")


def test_every_anchor_occurs_once_and_the_injection_compiles():
    for hazard in gate_matrix.HAZARDS:
        text = (SRC / hazard.path).read_text(encoding="utf-8")
        assert text.count(hazard.anchor) == 1, (hazard.path, hazard.name)
        patched = text.replace(hazard.anchor, hazard.replacement)
        compile(patched + "\n" + hazard.appendix, hazard.path, "exec")


def test_every_submit_site_has_a_row():
    covered = {h.path for h in gate_matrix.HAZARDS if ".submit(" in h.anchor}
    sites = {rel for rel, text in _sources() if ".submit(" in text}
    assert sites
    assert sites <= covered


def test_every_recorder_file_outside_obs_has_both_telemetry_rows():
    files = {
        rel
        for rel, text in _sources()
        if "get_recorder()" in text and not rel.startswith("obs/")
    }
    assert files
    for rel in files:
        names = {h.name for h in gate_matrix.HAZARDS if h.path == rel}
        assert TELEMETRY_SHAPES <= names, rel


def test_checked_in_table_matches_the_rows_and_leaves_none_uncaught():
    lines = gate_matrix.checked_in_table().splitlines()
    header, rows = lines[:2], lines[2:]
    assert header == gate_matrix.render_table([]).splitlines()
    cells = [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows]
    assert [(c[0], c[1]) for c in cells] == [
        (h.name, f"`{h.path}`") for h in gate_matrix.HAZARDS
    ]
    for (name, _, kind, lint, runtime), hazard in zip(cells, gate_matrix.HAZARDS):
        assert kind == ("inert" if hazard.inert else "hazard"), name
        if hazard.inert:
            assert runtime == "none", name
        else:
            assert (lint, runtime) != ("none", "none"), f"uncaught: {name}"


def test_every_registered_rule_fires_on_some_row():
    from repro.lint.registry import all_rules

    fired = set()
    for row in gate_matrix.checked_in_table().splitlines()[2:]:
        lint = row.strip("|").split(" | ")[3].strip()
        fired.update(rule.strip() for rule in lint.split(","))
    missing = [rule.rule_id for rule in all_rules() if rule.rule_id not in fired]
    assert missing == []
