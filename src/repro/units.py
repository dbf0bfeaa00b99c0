"""Unit conversions and physical constants used throughout the library.

All internal computation uses SI units:

* power      — watts (W)
* bandwidth  — hertz (Hz)
* data size  — bits
* CPU speed  — cycles per second (Hz)
* time       — seconds
* energy     — joules

The paper quotes most quantities in telecom-style units (dBm, dB, MHz, KB,
Megacycles).  The helpers here are the single place where those conversions
live, so the rest of the code never multiplies by a magic constant.
"""

from __future__ import annotations

import math

#: Number of bits in one kilobyte (the paper's "420 KB" task input follows
#: the conventional 1 KB = 1024 bytes = 8192 bits used by ref. [37]).
BITS_PER_KB = 8 * 1024

#: Number of bits in one megabyte.
BITS_PER_MB = 8 * 1024 * 1024

#: Cycles in one "Megacycle" as used for task workloads in the paper.
CYCLES_PER_MEGACYCLE = 1e6

#: Hertz in one gigahertz.
HZ_PER_GHZ = 1e9

#: Hertz in one megahertz.
HZ_PER_MHZ = 1e6


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts.

    >>> round(dbm_to_watts(10.0), 6)
    0.01
    >>> dbm_to_watts(-100.0)
    1e-13
    """
    return 10.0 ** (dbm / 10.0) / 1000.0


def watts_to_dbm(watts: float) -> float:
    """Convert a power level in watts to dBm.

    Raises ``ValueError`` for non-positive powers, which have no dB
    representation.
    """
    if watts <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {watts!r}")
    return 10.0 * math.log10(watts * 1000.0)


def db_to_linear(db: float) -> float:
    """Convert a dB ratio to a linear ratio.

    >>> db_to_linear(0.0)
    1.0
    >>> db_to_linear(30.0)
    1000.0...
    """
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear ratio to dB.  Requires a positive ratio."""
    if ratio <= 0.0:
        raise ValueError(f"ratio must be positive to express in dB, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def kb_to_bits(kilobytes: float) -> float:
    """Convert kilobytes to bits (1 KB = 1024 bytes)."""
    return kilobytes * BITS_PER_KB


def megacycles_to_cycles(megacycles: float) -> float:
    """Convert Megacycles (the paper's workload unit) to CPU cycles."""
    return megacycles * CYCLES_PER_MEGACYCLE


def ghz_to_hz(ghz: float) -> float:
    """Convert gigahertz to hertz."""
    return ghz * HZ_PER_GHZ


def mhz_to_hz(mhz: float) -> float:
    """Convert megahertz to hertz."""
    return mhz * HZ_PER_MHZ
