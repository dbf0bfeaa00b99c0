"""Flow-layer tests: symbol table, unordered-iterable taint, and R011.

Fixture packages mirror the real ``repro`` layout (the engine maps any
``repro/...`` directory to package-relative module names), so name
resolution works exactly as it does on the shipped tree.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.engine import Project, _collect_files, _parse
from repro.lint.flow import analyze_project

RNG_MODULE = """\
import numpy as np


def make_rng(seed):
    return np.random.default_rng(seed)


def child_rng(seed, stream):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    )
"""

def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def _fixture_root(tmp_path: Path) -> Path:
    _write(tmp_path, "repro/__init__.py", "")
    _write(tmp_path, "repro/sim/__init__.py", "")
    _write(tmp_path, "repro/sim/rng.py", RNG_MODULE)
    return tmp_path


def _build_project(root: Path) -> Project:
    project = Project()
    for path in _collect_files([root]):
        ctx, _ = _parse(path, root)
        if ctx is not None:
            project.contexts.append(ctx)
    return project


def _flow_findings(root: Path, rule_id: str):
    result = lint_paths([root], rule_ids=[rule_id], root=root)
    return [d for d in result.diagnostics if d.rule_id == rule_id]


class TestSymbolTable:
    def test_import_resolution_and_module_names(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/use.py",
            "from repro.sim.rng import make_rng as mk\n"
            "import numpy as np\n"
            "def f():\n"
            "    return mk(0)\n",
        )
        analysis = analyze_project(_build_project(root))
        symbols = analysis.symbols
        assert "repro.core.use" in symbols.modules
        assert symbols.resolve("repro.core.use", ("mk",)) == (
            "repro.sim.rng.make_rng"
        )
        assert symbols.resolve("repro.core.use", ("np", "sum")) == "numpy.sum"
        assert symbols.resolve("repro.core.use", ("nope",)) is None

    def test_function_level_imports_resolve(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/lazy.py",
            "def f():\n"
            "    from concurrent.futures import ProcessPoolExecutor\n"
            "    return ProcessPoolExecutor()\n",
        )
        analysis = analyze_project(_build_project(root))
        assert analysis.symbols.resolve(
            "repro.core.lazy", ("ProcessPoolExecutor",)
        ) == "concurrent.futures.ProcessPoolExecutor"


class TestTaint:
    def test_return_taint_crosses_calls(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/factory.py",
            "def derive(xs):\n"
            "    return set(xs)\n"
            "def use(xs):\n"
            "    items = derive(xs)\n"
            "    return items\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.factory.use"]
        assert "items" in fnt.unordered

    def test_param_taint_flows_from_call_sites(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/passer.py",
            "def consume(values):\n"
            "    return list(values)\n"
            "def produce(xs):\n"
            "    return consume({x for x in xs})\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.passer.consume"]
        # The call-site fixpoint marks the parameter unordered.
        assert "values" in fnt.unordered

    def test_unordered_sources_and_sorted_cleanse(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/core/orders.py",
            "import os\n"
            "def f(xs):\n"
            "    raw = {x for x in xs}\n"
            "    listed = list(raw)\n"
            "    pinned = sorted(raw)\n"
            "    names = os.listdir('.')\n"
            "    return raw, listed, pinned, names\n",
        )
        analysis = analyze_project(_build_project(root))
        fnt = analysis.functions["repro.core.orders.f"]
        assert "raw" in fnt.unordered
        assert "listed" in fnt.unordered
        assert "pinned" not in fnt.unordered
        assert "names" in fnt.unordered


class TestR011UnorderedReduction:
    def test_sum_over_set_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/bad.py",
            "def f(values):\n"
            "    return sum({v * 2.0 for v in values})\n",
        )
        findings = _flow_findings(root, "R011")
        assert len(findings) == 1
        assert "unordered iterable" in findings[0].message

    def test_accumulation_over_as_completed_fires(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/gather.py",
            "from concurrent.futures import as_completed\n"
            "def f(futures):\n"
            "    total = 0.0\n"
            "    for fut in as_completed(futures):\n"
            "        total += fut.result()\n"
            "    return total\n",
        )
        findings = _flow_findings(root, "R011")
        assert len(findings) == 1

    def test_sorted_cleanses(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/good.py",
            "from concurrent.futures import as_completed\n"
            "def f(values):\n"
            "    return sum(sorted({v * 2.0 for v in values}))\n"
            "def g(futures):\n"
            "    results = []\n"
            "    for fut in as_completed(futures):\n"
            "        results.append(fut.result())\n"
            "    return sum(sorted(results))\n",
        )
        assert _flow_findings(root, "R011") == []

    def test_taint_survives_list_wrapper(self, tmp_path):
        root = _fixture_root(tmp_path)
        _write(
            root,
            "repro/analysis/wrapped.py",
            "import os\n"
            "def f():\n"
            "    names = list(os.listdir('.'))\n"
            "    return sum(len(n) * 1.5 for n in names)\n",
        )
        # list() preserves the unordered directory order.
        findings = _flow_findings(root, "R011")
        assert len(findings) == 1


class TestFlowAnalysisCaching:
    def test_single_build_per_project(self, tmp_path):
        root = _fixture_root(tmp_path)
        project = _build_project(root)
        first = analyze_project(project)
        second = analyze_project(project)
        assert first is second
        assert project.flow_cache is first
