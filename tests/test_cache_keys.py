"""Cache addresses must never drift.

Every :class:`~repro.experiments.cache.ResultCache` entry lives at a key
derived from :func:`~repro.experiments.persistence._fingerprint` and a
canonical-JSON SHA-256.  A change to either silently orphans every
existing cache: the next ``--cache`` run misses everywhere and
recomputes, with no error.  These tests pin the keys as hex literals
and check the fingerprint against a frozen copy of its earlier,
straightforward implementation.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
from collections import OrderedDict, namedtuple
from typing import Any, List

import numpy as np
import pytest

from repro.baselines import GreedyScheduler
from repro.atomicio import payload_checksum
from repro.core.annealing import AnnealingSchedule
from repro.experiments.cache import ResultCache, cell_key, digest_key
from repro.experiments.common import standard_schedulers
from repro.experiments.persistence import (
    _fingerprint,
    code_fingerprint,
    sweep_digest,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.schemes import available_schemes, build_schemes
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SolutionMetrics
from repro.sim.rng import child_rng
from repro.sim.scenario import Scenario

#: Digest of the equation/algorithm registries; every key below embeds
#: it.  When the registries change on purpose, every cache is orphaned
#: by design: update this literal and the keys together.
CODE_FINGERPRINT = "4c578ff05eebe104"

#: ``cell_key(SimulationConfig(), s, 2025)`` per standard scheduler.
GOLDEN_CELL_KEYS = {
    "TSAJS": "927b84affe0fd508502ac9db8d161e06abd3def43cf5ba2c03d78196f2973b62",
    "hJTORA": "4284bb54868750a8c6d0fd8283c35f42fb31d4fd7fa9d7f483f4cfb939e50663",
    "LocalSearch": "d98102847154a7bdd6c85813dbd45df4643ec83ee2ab19652961a17ecb1fdc7e",
    "Greedy": "51d80a6c982ecf56db306661128f4e66848b2a28cc89835b907359d40a429e36",
}

GOLDEN_DIGEST = "284a5b8a148116dc"
GOLDEN_DIGEST_KEY = "4d54593705f877f9911674782fb456eba54b155d3d9e5b3aa9478dc61a84e442"


def _reference_fingerprint(value: Any) -> Any:
    """The fingerprint as first written: a plain ``isinstance`` chain.
    Frozen here as the oracle; do not optimise it."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _reference_fingerprint(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.init
        }
        return {"__type__": type(value).__qualname__, **fields}
    if isinstance(value, dict):
        return {
            str(key): _reference_fingerprint(item)
            for key, item in sorted(value.items())
        }
    if isinstance(value, (list, tuple)):
        return [_reference_fingerprint(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, type) or callable(value):
        module = getattr(value, "__module__", "")
        qualname = getattr(value, "__qualname__", type(value).__qualname__)
        return f"{module}.{qualname}"
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__type__": type(value).__qualname__,
            **{
                str(key): _reference_fingerprint(item)
                for key, item in sorted(state.items())
            },
        }
    return repr(value)


def _assert_same_fingerprint(value: Any) -> None:
    want = repr(_reference_fingerprint(value))
    # Twice: the first call may fill the per-class field cache, the
    # second reads it.  ``repr`` compares types, order and NaNs too.
    assert repr(_fingerprint(value)) == want
    assert repr(_fingerprint(value)) == want


class TestGoldenKeys:
    def test_code_fingerprint(self):
        assert code_fingerprint() == CODE_FINGERPRINT

    def test_cell_keys(self):
        schedulers = standard_schedulers(chain_length=10, min_temperature=1e-2)
        got = {s.name: cell_key(SimulationConfig(), s, 2025) for s in schedulers}
        assert got == GOLDEN_CELL_KEYS

    def test_digest_key(self):
        digest = sweep_digest(
            SimulationConfig(n_users=20),
            standard_schedulers(chain_length=10, min_temperature=1e-2),
            extra={
                "experiment": "golden",
                "rates": (0.0, 0.25),
                "schedule": AnnealingSchedule(chain_length=5),
            },
        )
        assert digest == GOLDEN_DIGEST
        assert digest_key(digest, "TSAJS", 2025) == GOLDEN_DIGEST_KEY


class _Colour(enum.IntEnum):
    RED = 1


class _FloatSubclass(float):
    pass


class _DictSubclass(dict):
    pass


_Pair = namedtuple("_Pair", "left right")


@dataclasses.dataclass
class _WithDerived:
    base: float
    derived: float = dataclasses.field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.derived = 2.0 * self.base


class _Slotted:
    __slots__ = ("x",)

    def __init__(self) -> None:
        self.x = 1

    def __repr__(self) -> str:
        return "_Slotted(x=1)"


class TestFingerprintEquivalence:
    @pytest.mark.parametrize("name", available_schemes())
    def test_every_scheme(self, name):
        (scheduler,) = build_schemes([name])
        _assert_same_fingerprint(scheduler)

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_every_experiment_settings(self, experiment_id):
        settings = EXPERIMENTS[experiment_id].settings
        _assert_same_fingerprint(settings.quick())
        _assert_same_fingerprint(settings.reference())

    def test_schedule_result_takes_the_repr_path_for_arrays(self):
        config = SimulationConfig(n_users=6, n_servers=3, n_subbands=2)
        scenario = Scenario.build(config, seed=3)
        result = GreedyScheduler().schedule(scenario, child_rng(3, 100))
        assert isinstance(result.allocation, np.ndarray)
        _assert_same_fingerprint(result)

    @pytest.mark.parametrize(
        "value",
        [
            np.float64(0.1),
            np.int64(7),
            np.float32(0.5),
            np.bool_(True),
            float("nan"),
            _FloatSubclass(1.5),
            _Colour.RED,
            SimulationConfig,
            AnnealingSchedule,
            GreedyScheduler,
            len,
            functools.partial(int, base=2),
            lambda: None,
            _WithDerived(1.5),
            _Slotted(),
            _Pair(1, (2.0, [3])),
            _DictSubclass(b=1, a=[2]),
            OrderedDict([("z", 1), ("a", 2)]),
            {"outer": {"b": [1, (2, {"c": None})], "a": (True, "s")}, "x": []},
            [SimulationConfig(), (SimulationConfig(n_users=5), {"k": 1.0})],
            (),
            {},
            None,
        ],
    )
    def test_values(self, value):
        _assert_same_fingerprint(value)


def _reference_checksum(payload: Any) -> str:
    """Canonical-JSON SHA-256 as first written, one ``json.dumps`` per
    call.  Frozen here as the oracle."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _reference_cell_key(config: SimulationConfig, scheduler: Any, seed: int) -> str:
    """The cell address as first written: the whole payload dumped at
    once.  Frozen here as the oracle."""
    payload = {
        "config": _reference_fingerprint(config),
        "scheduler": _reference_fingerprint(scheduler),
        "seed": seed,
        "code": code_fingerprint(),
    }
    return _reference_checksum(payload)


class _SpyCache(ResultCache):
    """Records every key the seed-level calls address."""

    def __init__(self, root: Any) -> None:
        super().__init__(root)
        self.got: List[str] = []
        self.put_keys: List[str] = []

    def get(self, key: str):
        self.got.append(key)
        return super().get(key)

    def put(self, key: str, metrics: SolutionMetrics) -> None:
        self.put_keys.append(key)
        super().put(key, metrics)


_CONFIGS = {
    "default": SimulationConfig(),
    "custom": SimulationConfig(
        n_users=13, n_subbands=5, input_kb=0.1 + 0.2, kappa=1e-28, beta_time=0.3
    ),
}


def _metrics(index: int) -> SolutionMetrics:
    return SolutionMetrics(
        system_utility=0.5 + index,
        mean_time_s=1.0 / 3.0,
        mean_energy_j=2.0,
        mean_offloaded_time_s=float("nan"),
        mean_offloaded_energy_j=float("nan"),
        n_offloaded=index,
        evaluations=10 * index,
        wall_time_s=0.25,
    )


class TestSeedKeysAgree:
    """``lookup_seed`` and ``record_seed`` derive a seed's keys once, with
    the config encoded once; each must still be exactly ``cell_key`` (and
    the whole-payload form it replaced), or a warm run silently
    recomputes."""

    @pytest.mark.parametrize("config_name", sorted(_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 2025, 2**32 - 1])
    def test_lookup_and_record_address_cell_key(self, tmp_path, config_name, seed):
        config = _CONFIGS[config_name]
        schedulers = build_schemes(available_schemes())
        want = [cell_key(config, s, seed) for s in schedulers]
        assert want == [_reference_cell_key(config, s, seed) for s in schedulers]
        assert len(set(want)) == len(want)

        cache = _SpyCache(tmp_path / "c")
        metrics = [_metrics(i) for i in range(len(schedulers))]
        cache.record_seed(config, schedulers, seed, metrics)
        assert cache.put_keys == want
        assert cache.got == []

        assert repr(cache.lookup_seed(config, schedulers, seed)) == repr(metrics)
        assert cache.got == want

    def test_a_miss_stops_at_the_first_missing_scheme(self, tmp_path):
        config = _CONFIGS["custom"]
        schedulers = build_schemes(available_schemes())
        cache = _SpyCache(tmp_path / "c")
        assert cache.lookup_seed(config, schedulers, 7) is None
        assert cache.got == [cell_key(config, schedulers[0], 7)]


class TestPayloadChecksum:
    """The shared encoder gives the bytes ``json.dumps`` gave."""

    @pytest.mark.parametrize(
        "payload",
        [
            float("nan"),
            math.inf,
            -math.inf,
            {"value": float("nan"), "up": math.inf, "down": -math.inf},
            "h\u00e9llo \u2603 \U0001d11e",
            {"\u00fcber": ["\u00e9", {"\u2603": "\U0001d11e"}]},
            {"b": [1, {"z": 0.1 + 0.2, "a": [None, True, -0.0]}], "a": {"y": 1e-300}},
            [[[]], {}, {"k": [{"j": {"i": 2**64}}]}],
            dataclasses.asdict(_metrics(3)),
        ],
    )
    def test_equals_the_json_dumps_form(self, payload):
        assert payload_checksum(payload) == _reference_checksum(payload)
