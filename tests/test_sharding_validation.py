"""Bounds checks tying the sharding radii to path-loss validity."""

from __future__ import annotations

import warnings

import pytest

from repro.cli import main
from repro.core.sharding import ShardedScheduler
from repro.errors import ConfigurationError
from repro.net.pathloss import UrbanMacroPathLoss
from repro.net.topology import Topology
from repro.sim.config import SimulationConfig
from repro.sim.validation import validate_sharding_geometry

CONFIG = SimulationConfig()
PATHLOSS = UrbanMacroPathLoss()


def _geometry(cluster_km, interference_km, topology=None):
    return validate_sharding_geometry(
        cluster_km,
        interference_km,
        tx_power_watts=CONFIG.tx_power_watts,
        noise_watts=CONFIG.noise_watts,
        pathloss=PATHLOSS,
        topology=topology,
    )


def test_nonpositive_radii_rejected():
    with pytest.raises(ConfigurationError):
        _geometry(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        _geometry(-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        _geometry(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        _geometry(1.0, -0.5)


def test_config_level_rejection():
    # The sharded scheduler, which owns the radii, refuses invalid ones.
    with pytest.raises(ConfigurationError):
        ShardedScheduler(cluster_radius_km=0.0)
    with pytest.raises(ConfigurationError):
        ShardedScheduler(interference_radius_km=-1.0)
    with pytest.raises(ConfigurationError):
        ShardedScheduler(max_reconcile_rounds=-1)


def test_batch_size_rejected_at_construction():
    # Same check and message as TsajsScheduler, before any schedule().
    for batch_size in (0, -3):
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            ShardedScheduler(use_batch=True, batch_size=batch_size)


def test_paper_defaults_are_clean():
    """U=30/S=9/1 km spacing: received power at the 1 km cutoff sits
    ~30 dB below the noise floor, so no hazard fires."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        messages = _geometry(2.0, 1.0)
    assert messages == []


def test_farfield_cutoff_warning_at_short_radius():
    """At 0.1 km the mean received power exceeds the noise floor, so
    the neglected interferers are *not* negligible."""
    with pytest.warns(UserWarning, match="far-field cutoff"):
        messages = _geometry(2.0, 0.1)
    assert any("far-field" in m for m in messages)


def test_cluster_smaller_than_cutoff_warning():
    with pytest.warns(UserWarning, match="cluster diameter"):
        messages = _geometry(0.5, 1.0)
    assert any("cluster_radius_km" in m for m in messages)


def test_deployment_fits_inside_radius_warning():
    topology = Topology.hexagonal(4, inter_site_distance_km=0.5)
    with pytest.warns(UserWarning, match="extent"):
        messages = _geometry(2.0, 5.0, topology=topology)
    assert any("degenerates" in m for m in messages)


def _solve(capsys, *flags):
    """Run ``tsajs solve`` on a small instance; the geometry warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--users", "4", "--seed", "1", "--quick", *flags]) == 0
    capsys.readouterr()
    return [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def test_config_driver_resolves_none_to_inter_site_distance(capsys):
    """The CLI drives the check from its flags.  Without
    ``--interference-radius`` it validates against the inter-site
    distance (1 km), matching the scheduler's solve-time default: clean
    at the default 2 km tiles, a halo warning at 0.5 km."""
    assert _solve(capsys, "--schemes", "TSAJS-Shard") == []
    messages = _solve(capsys, "--schemes", "TSAJS-Shard", "--cluster-radius", "0.5")
    assert any("interference_radius_km=1.0 exceeds" in m for m in messages)


def test_config_driver_passes_topology_through(capsys):
    messages = _solve(
        capsys, "--schemes", "TSAJS-Shard", "--interference-radius", "5.0"
    )
    assert any("extent" in m for m in messages)


def test_cli_checks_geometry_only_for_tsajs_shard(capsys):
    flags = ("--cluster-radius", "0.5", "--interference-radius", "0.1")
    messages = _solve(capsys, "--schemes", "TSAJS-Shard,Greedy", *flags)
    assert any("far-field cutoff" in m for m in messages)
    assert _solve(capsys, "--schemes", "TSAJS,Greedy", *flags) == []

