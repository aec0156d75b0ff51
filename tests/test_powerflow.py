"""Lossless Newton-Raphson steady state against a closed-form two-bus oracle.

Oracle derivation (independent of the implementation): converter behind a
single branch of susceptance b to a 1.0 per-unit slack.  With terminal
voltage U at angle delta, write x = U cos(delta), y = U sin(delta):

    P = b * y                       ->  y = P / b
    Q = b * (U^2 - x)               ->  x^2 - x + (y^2 - Q/b) = 0
                                    ->  x = (1 + sqrt(1 - 4*(y^2 - Q/b))) / 2

taking the high-voltage root; U = hypot(x, y), delta = atan2(y, x).
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncstab.config import parse_system_spec
from syncstab.errors import PowerFlowError
from syncstab.powerflow import solve_steady_state

from conftest import TWO_BUS_CFG


def two_bus_oracle(p: float, q: float, b: float) -> tuple[float, float]:
    y = p / b
    disc = 1.0 - 4.0 * (y * y - q / b)
    if disc < 0:
        raise ValueError("no real solution")
    x = 0.5 * (1.0 + math.sqrt(disc))
    return math.hypot(x, y), math.atan2(y, x)


@pytest.fixture
def spec():
    return parse_system_spec(TWO_BUS_CFG)


def test_zero_injection_flat_solution(spec):
    st8 = solve_steady_state(spec, np.array([0.0]), np.array([0.0]))
    assert st8.iterations <= 1
    np.testing.assert_allclose(st8.u_pu, [1.0], atol=1e-12)
    np.testing.assert_allclose(st8.delta0_rad, [0.0], atol=1e-12)
    assert st8.slack_p_pu == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("p, q", [
    (0.5, 0.0), (-0.5, 0.0), (0.3, 0.3), (0.9, -0.2), (-0.7, 0.4),
    (0.0, 0.5), (0.0, -0.4), (1.2, 0.1),
])
def test_two_bus_matches_closed_form(spec, p, q):
    b = 1 / 0.3
    u_exp, d_exp = two_bus_oracle(p, q, b)
    st8 = solve_steady_state(spec, np.array([p]), np.array([q]))
    assert st8.u_pu[0] == pytest.approx(u_exp, abs=1e-8)
    assert st8.delta0_rad[0] == pytest.approx(d_exp, abs=1e-8)
    # residual check straight from the physics
    mismatch_p = p - b * st8.u_pu[0] * math.sin(st8.delta0_rad[0])
    mismatch_q = q - b * (st8.u_pu[0] ** 2
                          - st8.u_pu[0] * math.cos(st8.delta0_rad[0]))
    assert abs(mismatch_p) <= 1e-8 and abs(mismatch_q) <= 1e-8


def test_single_converter_spec_example(spec):
    # P = 0.5, Q = 0, X = 0.3: delta = asin(P*X/U) with U from the oracle
    st8 = solve_steady_state(spec, np.array([0.5]), np.array([0.0]))
    u_exp, _ = two_bus_oracle(0.5, 0.0, 1 / 0.3)
    assert st8.delta0_rad[0] == pytest.approx(math.asin(0.5 * 0.3 / u_exp),
                                              abs=1e-8)


def test_slack_balance_lossless(spec):
    st8 = solve_steady_state(spec, np.array([0.62]), np.array([-0.18]))
    assert st8.slack_p_pu == pytest.approx(-0.62, abs=1e-8)


def test_flat_voltage_mode(spec):
    st8 = solve_steady_state(spec, np.array([0.9]), np.array([0.5]),
                             flat_voltage=True)
    assert st8.flat
    assert st8.iterations == 0
    assert st8.u_pu.tolist() == [1.0]
    assert st8.delta0_rad.tolist() == [0.0]
    assert st8.slack_p_pu == pytest.approx(-0.9)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(-0.9, 0.9), q=st.floats(-0.45, 0.45))
def test_negate_p_symmetry(p, q):
    # lossless network: P -> -P (Q unchanged) mirrors the angles and keeps U
    spec = parse_system_spec(TWO_BUS_CFG)
    a = solve_steady_state(spec, np.array([p]), np.array([q]))
    b = solve_steady_state(spec, np.array([-p]), np.array([q]))
    assert b.u_pu[0] == pytest.approx(a.u_pu[0], abs=1e-8)
    assert b.delta0_rad[0] == pytest.approx(-a.delta0_rad[0], abs=1e-8)


def test_negate_p_and_q_changes_u(spec):
    # negating Q as well does NOT preserve U on a lossless network: reactive
    # injection raises the terminal voltage, absorption lowers it
    hi = solve_steady_state(spec, np.array([0.5]), np.array([0.3]))
    lo = solve_steady_state(spec, np.array([-0.5]), np.array([-0.3]))
    assert hi.u_pu[0] > 1.0 > lo.u_pu[0]
    assert abs(hi.u_pu[0] - lo.u_pu[0]) > 1e-2
    # with Q = 0 the full-negation symmetry does coincide with the P-only one
    a = solve_steady_state(spec, np.array([0.5]), np.array([0.0]))
    b = solve_steady_state(spec, np.array([-0.5]), np.array([-0.0]))
    assert b.u_pu[0] == pytest.approx(a.u_pu[0], abs=1e-8)
    assert b.delta0_rad[0] == pytest.approx(-a.delta0_rad[0], abs=1e-8)


def test_diverges_beyond_transfer_limit(spec):
    # max P over X = 0.3 at nominal voltages is well under 4.0 pu
    with pytest.raises(PowerFlowError) as exc:
        solve_steady_state(spec, np.array([4.0]), np.array([0.0]))
    assert exc.value.code in {"PF_DIVERGED", "PF_VOLTAGE_OUT_OF_BAND"}


def test_voltage_band_enforced(spec):
    # heavy reactive injection pushes U past 1.5 while still converging:
    # closed form x = (1 + sqrt(1 + 4Q/b))/2 > 1.5 once Q > 3b/4 = 2.5
    u_exp, _ = two_bus_oracle(0.0, 2.7, 1 / 0.3)
    assert u_exp > 1.5  # oracle confirms a converged out-of-band solution
    with pytest.raises(PowerFlowError) as exc:
        solve_steady_state(spec, np.array([0.0]), np.array([2.7]))
    assert exc.value.code == "PF_VOLTAGE_OUT_OF_BAND"


def test_bad_shape_rejected(spec):
    with pytest.raises(PowerFlowError) as exc:
        solve_steady_state(spec, np.array([0.1, 0.2]), np.array([0.0]))
    assert exc.value.code == "PF_BAD_SHAPE"


def test_multiconverter_station_balance(station_path):
    from syncstab.config import load_system_spec
    spec = load_system_spec(station_path)
    p, q = spec.case_injections("heavy")
    st8 = solve_steady_state(spec, p, q, flat_voltage=False)
    assert st8.slack_p_pu == pytest.approx(-p.sum(), abs=1e-8)
    assert np.all(st8.u_pu > 0.5) and np.all(st8.u_pu < 1.5)


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "solved"])
@pytest.mark.parametrize("p, q", [(np.nan, 0.0), (0.2, np.inf), (-np.inf, np.nan)])
def test_non_finite_injections_rejected(spec, flat, p, q):
    with pytest.raises(PowerFlowError) as exc:
        solve_steady_state(spec, np.array([p]), np.array([q]), flat_voltage=flat)
    assert exc.value.code == "PF_NOT_FINITE"


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "solved"])
@pytest.mark.parametrize("p, q", [([1 + 1j], [0.0]), (["a"], [0.0]), (["0.5"], [0.0]),
                                  ([True], [0.0])],
                         ids=["complex", "text", "numeric-text", "bool"])
def test_injections_that_are_not_real_numbers_are_rejected(spec, flat, p, q):
    with pytest.raises(PowerFlowError) as exc:
        solve_steady_state(spec, p, q, flat_voltage=flat)
    assert exc.value.code == "PF_NOT_FINITE"
    assert "must be real, finite numbers" in str(exc.value)


@pytest.mark.parametrize("p", [1e300, -1e300])
def test_a_huge_finite_injection_diverges_at_once_without_warnings(spec, p):
    # runtime warnings are errors here, so an overflow inside Newton's loop
    # would surface as a RuntimeWarning instead of the coded error
    with pytest.raises(PowerFlowError) as exc:
        solve_steady_state(spec, np.array([p]), np.array([0.0]), flat_voltage=False)
    assert exc.value.code == "PF_DIVERGED"
    assert "not finite after" in str(exc.value)


@pytest.mark.parametrize("value", ["no", "", 1, 0.0, None], ids=["text", "empty", "one",
                                                                 "zero", "none"])
def test_a_flat_voltage_that_is_not_a_bool_is_refused_before_the_solve(station_path, value):
    # read by truth value, "no" and 1 pinned U = 1 and "" or 0.0 solved
    from syncstab.config import load_system_spec
    from syncstab.pipeline import operating_point
    spec = load_system_spec(station_path)
    p, q = spec.case_injections("heavy")
    calls = [lambda: operating_point(dataclasses.replace(
        spec, options=dataclasses.replace(spec.options, flat_voltage=value)), "heavy")]
    if value is not None:          # None as the argument defers to the option
        calls.append(lambda: solve_steady_state(spec, p, q, flat_voltage=value))
    for call in calls:
        with pytest.raises(PowerFlowError) as exc:
            call()
        assert exc.value.code == "FLAT_VOLTAGE_INVALID"


@pytest.mark.parametrize("flat", [True, False, np.True_, np.False_])
def test_a_numpy_bool_flat_voltage_is_read_as_its_value(spec, flat):
    st8 = solve_steady_state(spec, np.array([0.5]), np.array([0.1]), flat_voltage=flat)
    assert st8.flat == bool(flat) and (st8.iterations == 0) == bool(flat)
