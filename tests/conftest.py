"""Shared fixtures and builders for the test suite."""
from __future__ import annotations

import os

import numpy as np
import pytest

from syncstab.config import (AnalysisOptions, Converter, PowerSetpoint, SystemSpec,
                             parse_system_spec)
from syncstab.frequency_response import OperatingPoint
from syncstab.network import ReducedNetwork

KP, KI = 6.5, 15782.0  # benchmark PLL tuning used throughout the suite

TWO_BUS_CFG = """\
[system]
rated_frequency_hz = 50

[nodes]
bus1
grid

[branches]
bus1 grid 0.3

[slack]
grid

[converters]
C1 bus1 6.5 15782

[operating_point inject]
C1 0.5 0.0

[operating_point absorb]
C1 -0.5 0.0
"""

STATION_CFG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs",
                                "wind_storage_station.cfg")


@pytest.fixture
def two_bus_spec() -> SystemSpec:
    return parse_system_spec(TWO_BUS_CFG)


@pytest.fixture
def station_path() -> str:
    return os.path.abspath(STATION_CFG_PATH)


def synthetic_spec(n: int, *, kp: float = KP, ki: float = KI,
                   scan_points: int = 400, f0: float = 50.0,
                   root_tol_hz: float = 1e-4) -> SystemSpec:
    """A SystemSpec shell for ensemble tests that supply their own B matrix.

    Only the fields the frequency-domain pipeline reads (gains, options,
    rated frequency) carry meaning; the topology fields are placeholders.
    """
    names = tuple(f"C{i+1}" for i in range(n))
    return SystemSpec(
        rated_frequency_hz=f0,
        nodes=names + ("slack",),
        branches=(),
        slack_node="slack",
        converters=tuple(Converter(name, name, kp, ki) for name in names),
        operating_points={},
        options=AnalysisOptions(scan_points=scan_points, root_tol_hz=root_tol_hz),
    )


def random_pd_network(rng: np.random.Generator, n: int) -> ReducedNetwork:
    """Random symmetric positive-definite susceptance matrix, moderate cond."""
    a = rng.normal(size=(n, n))
    b = a @ a.T + (0.5 + rng.uniform()) * n * np.eye(n)
    return ReducedNetwork.from_b_matrix(b)


def random_operating_point(rng: np.random.Generator, n: int, *,
                           flat: bool = True) -> OperatingPoint:
    p = rng.uniform(-1.0, 1.0, size=n)
    q = rng.uniform(-0.5, 0.5, size=n)
    u = np.ones(n) if flat else rng.uniform(0.9, 1.1, size=n)
    return OperatingPoint(p, q, u)


def grouped_grid_spec(seed: int, n: int = 20) -> SystemSpec:
    """A collector grid of ``n`` converters in groups of identical units.

    Groups of 1, 2 and 3 units in turn share one step-up reactance, one of
    four collector buses and one setpoint, so each group of s units is a
    class of interchangeable converters with an (s−1)-fold eigenvalue of
    G′_net.  Every collector ties to the slack bus and the collectors form
    a chain.  Flat voltage; the seed draws the reactances and setpoints.
    """
    rng = np.random.default_rng(seed)
    collectors = 4
    nodes = ["grid", *(f"c{k}" for k in range(collectors)), *(f"t{i}" for i in range(n))]
    branches = [f"grid c{k} {rng.uniform(0.06, 0.08):.6f}" for k in range(collectors)]
    branches += [f"c{k} c{k + 1} {rng.uniform(0.015, 0.025):.6f}"
                 for k in range(collectors - 1)]
    converters, setpoints = [], []
    i = group = 0
    while i < n:
        size = min((1, 2, 3)[group % 3], n - i)
        reactance = rng.uniform(0.04, 0.06) * n / 5.0
        p = rng.uniform(0.6, 1.8) * 5.0 / n * (-1.0 if rng.uniform() < 0.2 else 1.0)
        q = rng.uniform(-0.3, 0.3) * 5.0 / n
        for _ in range(size):
            branches.append(f"t{i} c{group % collectors} {reactance:.6f}")
            converters.append(f"U{i + 1} t{i} {KP} {KI}")
            setpoints.append(f"U{i + 1} {p:.6f} {q:.6f}")
            i += 1
        group += 1
    text = "\n".join([
        "[system]", "rated_frequency_hz = 50",
        "[nodes]", *nodes, "[branches]", *branches, "[slack]", "grid",
        "[converters]", *converters, "[operating_point base]", *setpoints,
        "[options]", "flat_voltage = true", ""])
    return parse_system_spec(text)
