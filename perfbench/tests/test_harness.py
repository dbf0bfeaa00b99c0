"""Unit checks of the harness: statistics, layer accounting, exit status."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.layers import LayerClock, accounting_problems

ROOT = Path(__file__).resolve().parents[2]


def test_tail_leaves_ten_samples_above():
    values = list(range(1, 41))
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (30, 75.0, 40)
    assert sum(v > value for v in values) == 10


def test_tail_falls_back_to_median_when_samples_are_few():
    assert run.tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (3.0, 60.0, 5)
    assert run.tail(list(range(1, 21)))[0] == 11
    assert run.tail([1.0, 2.0, 3.0, 4.0]) == (3.0, 75.0, 4)


def _traced(clock, work_in_layer, work_in_harness=0.0, work_outside=0.0):
    """Run one fake operation; returns its externally measured seconds."""
    layered = clock.wrap(lambda: time.sleep(work_in_layer), "layer")
    t0 = time.perf_counter()
    clock.enter("harness")
    if work_in_harness:
        time.sleep(work_in_harness)
    layered()
    clock.exit()
    if work_outside:
        time.sleep(work_outside)
    return time.perf_counter() - t0


def test_layer_frames_nest_and_pass_through_outside_a_root():
    clock = LayerClock()
    inner = clock.wrap(lambda: time.sleep(0.002), "b")
    outer = clock.wrap(lambda: (time.sleep(0.001), inner(), inner()), "a")
    outer()  # outside a root frame: passes through unmeasured
    assert not clock.calls
    clock.enter("harness")
    outer()
    clock.exit()
    assert clock.calls == {"harness": 1, "a": 1, "b": 2}
    assert clock.busy_s["a"] == pytest.approx(clock.self_s["a"] + clock.self_s["b"])


def test_accounting_accepts_an_operation_its_layers_cover():
    clock = LayerClock()
    external = _traced(clock, work_in_layer=0.05)
    assert accounting_problems(clock, external) == []


def test_accounting_flags_operation_time_outside_the_frames():
    clock = LayerClock()
    external = _traced(clock, work_in_layer=0.05, work_outside=0.01)
    assert any("cover" in p for p in accounting_problems(clock, external))


def test_accounting_flags_time_no_layer_claims():
    clock = LayerClock()
    external = _traced(clock, work_in_layer=0.05, work_in_harness=0.01)
    assert any("no layer" in p for p in accounting_problems(clock, external))


def test_catalog_utilities_are_what_this_program_computes(tmp_path):
    name = "sweep-cache"
    catalog = workloads.load_catalog(name)
    workload = workloads.make(name, tmp_path)
    assert len(catalog) == workload.catalog_size
    seed, recorded = next(iter(catalog.items()))
    assert workload.cells(int(seed)) == recorded


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "solve-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
