"""Numeric CSV writing: the block writer against the row-by-row g12 writer.

The reference below is the writer the large tables used before
``write_table``: one ``g12`` call per cell, one line per row.  Every table
``write_table`` produces must match it byte for byte.
"""
from __future__ import annotations

import io

import numpy as np
import pytest

from syncstab import textio
from syncstab.config import load_system_spec
from syncstab.frequency_response import per_converter_gamma, write_curves_csv
from syncstab.pipeline import run_analysis, run_oracle
from syncstab.statespace import AnglePulse, simulate, write_timeseries_csv
from syncstab.textio import g12, write_table

from conftest import STATION_CFG_PATH

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e-310, 1.0, -3.0, 1e16, 1e17, 123456789012.0, 1234567890123.0, 0.1,
           1.0 / 3.0, -2.5e-7, 1.7976931348623157e308]


def _reference_rows(header, rows) -> str:
    """The row-by-row writer: every cell through ``g12``."""
    lines = [",".join(header)]
    lines += [",".join(g12(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _table(header, columns) -> str:
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()


def _special_values(rng, size):
    """Special floats mixed with random bit patterns (every float class)."""
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    picks = np.array(SPECIAL)[rng.integers(0, len(SPECIAL), size=size)]
    return np.where(rng.uniform(size=size) < 0.5, picks, bits)


@pytest.mark.parametrize("rows", [0, 1, 7, textio._BLOCK_ROWS,
                                  2 * textio._BLOCK_ROWS + 3])
def test_write_table_matches_the_g12_rows(rows):
    rng = np.random.default_rng(rows)
    a = _special_values(rng, rows)
    b = _special_values(rng, (rows, 3))
    c = np.round(rng.normal(size=(rows, 2)) * 1e4)     # integral floats
    header = ["a", "b1", "b2", "b3", "c1", "c2"]
    expect = _reference_rows(header, ([a[k], *b[k], *c[k]] for k in range(rows)))
    assert _table(header, [a, b, c]) == expect


def test_percent_g_equals_format_g12():
    values = _special_values(np.random.default_rng(7), 50_000).tolist() + SPECIAL
    assert [("%.12g" % x) for x in values] == [format(x, ".12g") for x in values]


def test_write_table_takes_column_views():
    # transposed and sliced (non-contiguous) inputs read as their values
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 9))
    expect = _reference_rows(["x"] * 4, m.T[::2])
    assert _table(["x"] * 4, [m.T[::2]]) == expect


@pytest.fixture(scope="module")
def station_heavy():
    spec = load_system_spec(STATION_CFG_PATH)
    return spec, run_analysis(spec, "heavy", flat_voltage=False)


def test_curves_csv_matches_the_row_writer(station_heavy):
    spec, result = station_heavy
    curves = result.curves
    extra = per_converter_gamma(spec, result.op, curves.f_hz)
    names = spec.converter_names
    buf = io.StringIO()
    write_curves_csv(curves, buf, per_converter=extra, names=names)

    header = ["f_hz", "D_con", "K_con"]
    header += [f"D_net_{i + 1}" for i in range(curves.n)]
    header += [f"K_net_{i + 1}" for i in range(curves.n)]
    for name in names:
        header += [f"D_con_{name}", f"K_con_{name}"]

    def rows():
        for k in range(curves.m):
            row = [curves.f_hz[k], curves.d_con[k], curves.k_con[k]]
            row += list(curves.d_net[:, k]) + list(curves.k_net[:, k])
            for i in range(extra.shape[0]):
                row += [extra[i, k].real, extra[i, k].imag]
            yield row

    assert buf.getvalue() == _reference_rows(header, rows())


def test_timeseries_csv_matches_the_row_writer(station_heavy):
    _spec, result = station_heavy
    ss, _modes, _check = run_oracle(result)
    sim = simulate(ss, AnglePulse(start_s=0.05), dt=1e-3, duration=0.3)
    buf = io.StringIO()
    write_timeseries_csv(sim, buf)
    n = sim.theta.shape[1]
    header = (["t_s"] + [f"theta_{i + 1}" for i in range(n)]
              + [f"omega_{i + 1}" for i in range(n)] + [f"dp_{i + 1}" for i in range(n)])
    rows = ([sim.t_s[k], *sim.theta[k], *sim.omega[k], *sim.dp[k]]
            for k in range(len(sim.t_s)))
    assert buf.getvalue() == _reference_rows(header, rows)
