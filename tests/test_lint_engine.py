"""Engine-level tests: registry, reporters, the CLI entry point, file
collection, and the meta-test asserting the shipped ``src/`` tree is
lint-clean."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import PARSE_ERROR, lint_paths
from repro.lint.registry import all_rules, get_rule
from repro.lint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


class TestRegistry:
    def test_all_nine_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
            "R011",
        ]

    def test_rules_carry_title_and_rationale(self):
        for rule in all_rules():
            assert rule.title
            assert rule.rationale

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("R999")


class TestReporters:
    def _result(self, tmp_path):
        _write(
            tmp_path,
            "repro/core/x.py",
            "total = sum([1.0])\n",
        )
        return lint_paths([tmp_path], rule_ids=["R005"], root=tmp_path)

    def test_text_report_lines(self, tmp_path):
        text = render_text(self._result(tmp_path))
        lines = text.splitlines()
        assert len(lines) == 2
        assert "R005" in lines[0]
        # path:line:col: prefix
        assert lines[0].count(":") >= 3
        assert "1 finding in 1 file(s)" == lines[1]

    def test_json_report_schema(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert set(payload) == {"version", "files_checked", "findings", "rules"}
        assert payload["version"] == 3
        assert payload["files_checked"] == 1
        assert payload["rules"] == ["R005"]
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "R005"
        assert finding["line"] == 1

    def test_parse_errors_are_reported(self, tmp_path):
        _write(tmp_path, "repro/core/x.py", "def broken(:\n")
        result = lint_paths([tmp_path], root=tmp_path)
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].rule_id == PARSE_ERROR
        assert result.exit_code == 1

    def test_findings_are_sorted(self, tmp_path):
        _write(tmp_path, "repro/core/b.py", "x = sum([1.0])\n")
        _write(tmp_path, "repro/core/a.py", "import random\ny = random.random()\nz = sum([2.0])\n")
        result = lint_paths([tmp_path], root=tmp_path)
        keys = [(d.path, d.line, d.col, d.rule_id) for d in result.diagnostics]
        assert keys == sorted(keys)


class TestCli:
    def test_module_entry_point_clean_tree(self, tmp_path):
        _write(tmp_path, "repro/core/x.py", "VALUE = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 findings" in proc.stdout

    def test_module_entry_point_findings_exit_1(self, tmp_path):
        _write(tmp_path, "repro/core/x.py", "total = sum([1.0])\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "R005" in proc.stdout

    def test_tsajs_does_not_load_the_linter(self):
        # ``python -m repro.lint`` is the one entry point; the tsajs CLI
        # does not import the lint engine.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('repro.lint')))",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_list_rules(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "R001", "R002", "R003", "R004", "R005", "R006", "R007", "R008",
            "R011",
        ):
            assert rule_id in out
        for gone in ("R009", "R010", "R012"):
            assert gone not in out

    def test_unknown_rule_exits_2(self, capsys):
        from repro.lint.cli import main

        assert main(["--rule", "R001,R999", "src"]) == 2

    def test_rule_flag_repeatable_and_comma_splittable(self, tmp_path, capsys):
        from repro.lint.cli import main

        _write(
            tmp_path,
            "repro/core/x.py",
            "import random\ntotal = sum([1.0])\n",
        )
        # --rule R001 alone: misses the R005 finding.
        assert main([str(tmp_path), "--rule", "R001"]) == 0
        capsys.readouterr()
        # Repeated + comma-separated forms combine.
        code = main(
            [str(tmp_path), "--rule", "R001,R002", "--rule", "R005",
             "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["R001", "R002", "R005"]
        assert [f["rule"] for f in payload["findings"]] == ["R005"]

    def test_rule_flag_unknown_id_exits_2(self, capsys):
        from repro.lint.cli import main

        assert main(["--rule", "R999", "src"]) == 2

class TestFileCollection:
    """The engine walks targets in sorted, deduplicated resolved order."""

    def test_order_independent_of_argument_order(self, tmp_path):
        _write(tmp_path, "repro/core/b.py", "x = sum([1.0])\n")
        _write(tmp_path, "repro/sim/a.py", "total = 0\n")
        forward = lint_paths(
            [tmp_path / "repro/core", tmp_path / "repro/sim"], root=tmp_path
        )
        backward = lint_paths(
            [tmp_path / "repro/sim", tmp_path / "repro/core"], root=tmp_path
        )
        assert render_text(forward) == render_text(backward)
        assert [d.render() for d in forward.diagnostics] == [
            d.render() for d in backward.diagnostics
        ]

    def test_overlapping_targets_deduplicate(self, tmp_path):
        _write(tmp_path, "repro/core/x.py", "total = sum([1.0])\n")
        once = lint_paths([tmp_path], root=tmp_path)
        twice = lint_paths(
            [tmp_path, tmp_path / "repro/core/x.py", tmp_path],
            root=tmp_path,
        )
        assert twice.files_checked == once.files_checked
        assert len(twice.diagnostics) == len(once.diagnostics)

    def test_collection_is_sorted(self, tmp_path):
        from repro.lint.engine import _collect_files

        _write(tmp_path, "repro/core/z.py", "A = 1\n")
        _write(tmp_path, "repro/core/a.py", "B = 2\n")
        _write(tmp_path, "repro/sim/m.py", "C = 3\n")
        files = _collect_files(
            [tmp_path / "repro/sim", tmp_path / "repro/core"]
        )
        resolved = [f.resolve() for f in files]
        assert resolved == sorted(resolved)


class TestShippedTreeIsClean:
    """The acceptance meta-test: zero findings on the repo's own src/."""

    def test_src_tree_has_no_findings(self):
        result = lint_paths([SRC], root=REPO_ROOT)
        rendered = "\n".join(d.render() for d in result.diagnostics)
        assert result.diagnostics == [], f"lint findings on src/:\n{rendered}"
        assert result.files_checked > 80
