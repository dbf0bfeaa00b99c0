"""Shared fixtures and scenario builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.sim.scenario import Scenario
from repro.tasks.device import UserDevice
from repro.tasks.server import MecServer
from repro.tasks.task import Task


def make_scenario(
    n_users: int = 4,
    n_servers: int = 2,
    n_subbands: int = 2,
    gains=None,
    input_bits: float = 1e6,
    cycles: float = 1e9,
    user_cpu_hz: float = 1e9,
    server_cpu_hz: float = 20e9,
    tx_power_watts: float = 0.01,
    kappa: float = 5e-27,
    beta_time: float = 0.5,
    operator_weight: float = 1.0,
    total_bandwidth_hz: float = 20e6,
    noise_watts: float = 1e-13,
) -> Scenario:
    """A deterministic scenario with explicit (or constant) channel gains.

    The default constant gain of 1e-9 gives a comfortable SNR
    (p*h/noise = 0.01*1e-9/1e-13 = 100) so offloading is attractive.
    """
    if gains is None:
        gains = np.full((n_users, n_servers, n_subbands), 1e-9)
    gains = np.asarray(gains, dtype=float)
    task = Task(input_bits=input_bits, cycles=cycles)
    users = [
        UserDevice(
            task=task,
            cpu_hz=user_cpu_hz,
            tx_power_watts=tx_power_watts,
            kappa=kappa,
            beta_time=beta_time,
            beta_energy=1.0 - beta_time,
            operator_weight=operator_weight,
        )
        for _ in range(n_users)
    ]
    servers = [MecServer(cpu_hz=server_cpu_hz) for _ in range(n_servers)]
    return Scenario.from_parts(
        users=users,
        servers=servers,
        gains=gains,
        total_bandwidth_hz=total_bandwidth_hz,
        noise_watts=noise_watts,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_scenario() -> Scenario:
    """4 users, 2 servers, 2 sub-bands, constant gains."""
    return make_scenario()


@pytest.fixture
def small_random_scenario() -> Scenario:
    """A small random instance drawn from the paper's generator."""
    config = SimulationConfig(n_users=8, n_servers=3, n_subbands=2)
    return Scenario.build(config, seed=99)


@pytest.fixture
def paper_config() -> SimulationConfig:
    """The paper's default configuration with a small user count."""
    return SimulationConfig(n_users=10)
