"""Seeded synthetic collector grids, written as syncstab config text.

A grid has ``n`` converters behind step-up transformers on four collector
buses.  Every collector ties to the slack bus and the collectors form a
chain.  Turbines come in groups of identical units (same transformer,
collector and setpoint), as in a real wind farm, so the network matrix has
repeated eigenvalues.  All converters share one PLL tuning.

The layout is fixed: groups of 1, 2 and 3 units in turn, group g on
collector g mod 4.  The seed draws the reactances and setpoints.  With a
seeded layout the cost of one grid of 24 converters differed by up to 20 %
between seeds while the eig and bisection counts stayed equal, most likely
through the multiplicity of repeated eigenvalues; a fixed layout keeps
seeds comparable.

Per-unit values are scaled with ``n`` so that a larger plant keeps the
station's electrical strength: transformer reactance grows as n/5 and
setpoints shrink as 5/n.
"""
from __future__ import annotations

import numpy as np

PLL_KP, PLL_KI = 6.5, 15782.0
COLLECTORS = 4
GROUP_SIZES = (1, 2, 3)


def grid_config(rng: np.random.Generator, n: int) -> str:
    """Config text for one random grid with ``n`` converters."""
    scale = n / 5.0
    lines = ["[system]", "rated_frequency_hz = 50", "", "[nodes]", "grid"]
    lines += [f"c{k}" for k in range(COLLECTORS)]
    lines += [f"t{i}" for i in range(n)]
    branches = [f"grid c{k} {rng.uniform(0.06, 0.08):.6f}" for k in range(COLLECTORS)]
    branches += [f"c{k} c{k + 1} {rng.uniform(0.015, 0.025):.6f}"
                 for k in range(COLLECTORS - 1)]
    converters, setpoints = [], []
    i = group = 0
    while i < n:
        size = min(GROUP_SIZES[group % len(GROUP_SIZES)], n - i)
        coll = group % COLLECTORS
        l_tr = rng.uniform(0.04, 0.06) * scale
        p = rng.uniform(0.6, 1.8) / scale
        if rng.uniform() < 0.2:
            p = -p                      # storage unit absorbing
        q = rng.uniform(-0.3, 0.3) / scale
        for _ in range(size):
            branches.append(f"t{i} c{coll} {l_tr:.6f}")
            converters.append(f"U{i + 1} t{i} {PLL_KP} {PLL_KI}")
            setpoints.append(f"U{i + 1} {p:.6f} {q:.6f}")
            i += 1
        group += 1
    lines += ["", "[branches]", *branches, "", "[slack]", "grid",
              "", "[converters]", *converters,
              "", "[operating_point base]", *setpoints,
              "", "[options]", "flat_voltage = true", ""]
    return "\n".join(lines)
