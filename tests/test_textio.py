"""CSV writing: the one block writer against the retired per-cell rule.

The reference below is the rule every CSV was written by before
``write_table``: one line per row, text cells as they are and every other
cell through ``g12``.  Every table ``write_table`` produces must match it
byte for byte.
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
    """The row-by-row writer: text passes through, every other cell goes
    through ``g12``."""
    lines = [",".join(header)]
    lines += [",".join(cell if isinstance(cell, str) else g12(cell) for cell in row)
              for row in rows]
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
    names = [f"C{k}" for k in range(rows)]                 # a sequence of str
    a = _special_values(rng, rows)
    b = _special_values(rng, (rows, 3))
    c = np.round(rng.normal(size=(rows, 2)) * 1e4)     # integral floats
    verdicts = np.array(["Stable", "Error[PF_DIVERGED]", "nan", "1e5"])[
        rng.integers(0, 4, size=rows)]                      # a U array
    flags = rng.uniform(size=rows) < 0.5                    # renders 1 or 0
    header = ["name", "a", "b1", "b2", "b3", "c1", "c2", "verdict", "flag"]
    expect = _reference_rows(header, ([names[k], a[k], *b[k], *c[k], verdicts[k], flags[k]]
                                      for k in range(rows)))
    assert _table(header, [names, a, b, c, verdicts, flags]) == expect
    assert all(line.split(",")[8] in ("0", "1") for line in expect.splitlines()[1:])


def test_percent_g_equals_format_g12():
    values = _special_values(np.random.default_rng(7), 50_000).tolist() + SPECIAL
    assert [("%.12g" % x) for x in values] == [format(x, ".12g") for x in values]


def test_write_table_takes_column_views():
    # transposed and sliced (non-contiguous) inputs read as their values
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 9))
    expect = _reference_rows(["x"] * 4, m.T[::2])
    assert _table(["x"] * 4, [m.T[::2]]) == expect


B = textio._BLOCK_ROWS


def _ramp(rows):
    return np.arange(rows) * 0.1 + 0.05       # a column that never folds


def _constant_run(value, run, rows):
    """``value`` in rows 0..run-1, a different value after."""
    col = np.full(rows, value, dtype=float)
    col[run:] = np.arange(rows - run) + 7.5
    return col


@pytest.mark.parametrize("value", [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e17,
                                   0.1],
                         ids=["zero", "minus_zero", "nan", "inf", "minus_inf", "subnormal",
                              "1e16", "1e17", "tenth"])
@pytest.mark.parametrize("rows", [B, 3 * B + 17], ids=["one_block", "blocks_and_a_tail"])
def test_a_constant_column_renders_as_every_cell(value, rows):
    col = np.full(rows, value)
    cases = [(["c"], [col]),                                # only the constant
             (["t", "c"], [_ramp(rows), col]),              # beside a moving column
             (["t", "c1", "c2"], [_ramp(rows), np.column_stack([col, col])])]
    for header, columns in cases:
        rows_in = zip(*[c.T[k] if c.ndim == 2 else c for c in columns
                        for k in range(c.shape[1] if c.ndim == 2 else 1)])
        assert _table(header, columns) == _reference_rows(header, rows_in)


@pytest.mark.parametrize("where", [0, 1, B // 2, B - 1, B, 2 * B - 1])
def test_zeros_of_both_signs_in_one_column_do_not_fold(where):
    rows = 2 * B + 5
    col = np.zeros(rows)
    col[where] = -0.0
    text = _table(["t", "z"], [_ramp(rows), col])
    assert text == _reference_rows(["t", "z"], zip(_ramp(rows), col))
    cells = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert [k for k, cell in enumerate(cells) if cell == "-0"] == [where]
    # the sign of the first zero does not decide the block either
    text = _table(["t", "z"], [_ramp(rows), -col])
    assert text == _reference_rows(["t", "z"], zip(_ramp(rows), -col))


@pytest.mark.parametrize("run", [1, B // 2, B - 1, B, B + 1, 3 * B, 3 * B + 100],
                         ids=["one", "half_block", "block_minus_one", "exactly_one_block",
                              "block_plus_one", "three_blocks", "mid_fourth_block"])
def test_a_constant_run_that_ends_anywhere_renders_as_every_cell(run):
    rows = 4 * B + 9
    zeros = _constant_run(0.0, run, rows)
    states = np.column_stack([zeros, _constant_run(-3.0, run, rows), zeros])
    header = ["t", "a", "b", "c"]
    expect = _reference_rows(header, ([t, *row] for t, row in zip(_ramp(rows), states)))
    assert _table(header, [_ramp(rows), states]) == expect


@pytest.mark.parametrize("rows", [1, B, B + 3])
def test_constant_bool_and_int_columns_render_as_every_cell(rows):
    flags = np.ones(rows, dtype=bool)
    offs = np.zeros(rows, dtype=bool)
    count = np.full(rows, 12345678901234567, dtype=np.int64)   # past 12 digits
    small = np.full(rows, -4, dtype=np.int32)
    header = ["flag", "off", "count", "small"]
    expect = _reference_rows(header, zip(flags, offs, count, small))
    assert _table(header, [flags, offs, count, small]) == expect
    # the same columns beside floats, which promote them when stacked
    header = ["t", *header]
    expect = _reference_rows(header, zip(_ramp(rows), flags, offs, count, small))
    assert _table(header, [_ramp(rows), flags, offs, count, small]) == expect


@pytest.mark.parametrize("rows", [1, B, 2 * B + 1])
def test_constant_floats_beside_a_text_column_stay_floats(rows):
    names = np.array(["ES1", "1e5", "nan", "Error[X]"])[np.arange(rows) % 4]
    labels = ["same"] * rows                      # a constant text column
    table = np.column_stack([np.full(rows, 2.0), np.full(rows, -0.0), _ramp(rows),
                             np.full(rows, 1e16)])
    header = ["name", "a", "b", "c", "d", "label"]
    expect = _reference_rows(header, ([nm, *row, lb] for nm, row, lb
                                      in zip(names, table, labels)))
    assert _table(header, [names, table, labels]) == expect


def test_no_rows_write_only_the_header():
    empty = np.zeros(0)
    assert _table(["a", "b"], [empty, np.zeros((0, 1))]) == "a,b\n"
    assert _table(["a", "name"], [empty, []]) == "a,name\n"


def test_same_bits_compares_bits_not_values():
    col = np.array([[0.0, np.nan, 1.0, 0.0], [-0.0, np.nan, 1.0, 0.0]])
    assert textio._same_bits(col).tolist() == [False, True, True, True]
    assert textio._same_bits(np.array([["x", "y"], ["x", "y"]])).tolist() == [False, False]
    assert textio._same_bits(np.full((3, 1), 1 + 1j)).tolist() == [False]


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


@pytest.mark.parametrize("pulse, duration", [
    (AnglePulse(start_s=0.05), 0.3),        # 50 rows at rest, less than a block
    (AnglePulse(), 3.0),                    # 2,000 rows at rest: 7 blocks and a tail
], ids=["early_pulse", "default_pulse"])
def test_timeseries_csv_matches_the_row_writer(station_heavy, pulse, duration):
    _spec, result = station_heavy
    ss, _modes, _check = run_oracle(result)
    sim = simulate(ss, pulse, dt=1e-3, duration=duration)
    buf = io.StringIO()
    write_timeseries_csv(sim, buf)
    n = sim.theta.shape[1]
    header = (["t_s"] + [f"theta_{i + 1}" for i in range(n)]
              + [f"omega_{i + 1}" for i in range(n)] + [f"dp_{i + 1}" for i in range(n)])
    rows = ([sim.t_s[k], *sim.theta[k], *sim.omega[k], *sim.dp[k]]
            for k in range(len(sim.t_s)))
    assert buf.getvalue() == _reference_rows(header, rows)
