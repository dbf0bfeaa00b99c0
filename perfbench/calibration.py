"""Machine-speed calibration: a fixed kernel timed around every sample.

The benchmark runs on shared machines whose speed drifts by tens of
percent between (and within) processes.  Every gated timing is therefore
reported in *calibrated seconds*::

    calibrated = raw_seconds * K_NOMINAL / K_measured

where ``K_measured`` is the mean of the kernel timings taken right
before and right after that sample (:func:`bracket` on each side; see
``README.md`` for why each sample gets its own).  The kernel uses NumPy and the standard library
only — never the program under test — so a change to the program
cannot move it.  Its mix of small-array NumPy calls and
interpreter-bound Python work resembles the solver's inner loop, so it
slows down with most of the host's speed changes.
"""

from __future__ import annotations

import statistics
import time
import numpy as np

#: Kernel seconds on the reference machine (2-core x86-64 container,
#: Python 3.11, NumPy 2.4.6).  Calibrated seconds are seconds as that
#: machine would have measured them; the constant only sets the scale.
K_NOMINAL = 0.0200

#: Inner-loop repetitions of one kernel call.
KERNEL_REPS = 500

#: Kernel timings taken on each side of a sample.
PER_SIDE = 2

_N_USERS, _N_SERVERS, _N_SUBBANDS = 40, 5, 20


def _score(gains, power, server, channel, weights, cpu):
    """A stand-in objective: co-channel SINR, log-rate and a per-station
    square-root cost, on the same array shapes as a paper-scale solve."""
    offloaded = np.flatnonzero(server >= 0)
    if offloaded.size == 0:
        return 0.0
    srv = server[offloaded]
    chan = channel[offloaded]
    rx = np.zeros((_N_SUBBANDS, _N_SERVERS))
    np.add.at(rx, chan, power[offloaded, None] * gains[offloaded, :, chan])
    signal = power[offloaded] * gains[offloaded, srv, chan]
    sinr = signal / (rx[chan, srv] - signal + 1e-3)
    se = np.log2(1.0 + sinr)
    net = np.zeros(_N_USERS)
    net[offloaded] = weights[offloaded] - 0.1 / se
    roots = np.bincount(srv, weights=np.sqrt(weights[offloaded]), minlength=_N_SERVERS)
    return float(net.sum()) - float((roots * roots / cpu).sum())


def _kernel(reps: int) -> float:
    """``reps`` steps of a miniature annealer on a fixed random instance."""
    rng = np.random.default_rng(20251017)
    gains = rng.random((_N_USERS, _N_SERVERS, _N_SUBBANDS)) + 0.05
    power = rng.random(_N_USERS) + 0.5
    weights = rng.random(_N_USERS) + 0.5
    cpu = rng.random(_N_SERVERS) + 1.0
    server = np.full(_N_USERS, -1)
    channel = np.zeros(_N_USERS, dtype=np.int64)
    current = _score(gains, power, server, channel, weights, cpu)
    best = current
    temperature = 1.0
    for _ in range(reps):
        new_server = server.copy()
        new_channel = channel.copy()
        user = int(rng.integers(_N_USERS))
        if float(rng.random()) < 0.5:
            new_server[user] = -1
        else:
            new_server[user] = int(rng.integers(_N_SERVERS))
            new_channel[user] = int(rng.integers(_N_SUBBANDS))
        value = _score(gains, power, new_server, new_channel, weights, cpu)
        delta = value - current
        if delta > 0 or np.exp(delta / temperature) > rng.random():
            server, channel, current = new_server, new_channel, value
            best = max(best, current)
        temperature *= 0.995
    return best


def kernel_seconds() -> float:
    """Wall seconds of one kernel call (about ``K_NOMINAL`` nominally)."""
    t0 = time.perf_counter()
    _kernel(KERNEL_REPS)
    return time.perf_counter() - t0


def warm_up() -> None:
    """Run the kernel until its timing settles (first calls pay for caches)."""
    for _ in range(3):
        kernel_seconds()


def bracket() -> float:
    """One side of a sample's bracket: mean of ``PER_SIDE`` kernel timings."""
    return statistics.fmean(kernel_seconds() for _ in range(PER_SIDE))
