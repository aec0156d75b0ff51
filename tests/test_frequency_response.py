"""Converter- and network-side frequency responses.

Independent oracles used here:

* Gamma closed forms, derived by rationalizing
  Gamma(jw) = w0*(jw/G_pll + U) / (jw*U) with G_pll = kp + ki/(jw):

      Re = w0*w^2*kp / (U*(w^2*kp^2 + ki^2))
      Im = w0*(w^2*(ki - kp^2*U) - U*ki^2) / (w*U*(w^2*kp^2 + ki^2))

  so Im = 0 at w^2 = U*ki^2 / (ki - kp^2*U).

* Scalar network response G = -(P/U^2)/b + j*(w0/w)*(Q/U^2)/b.
"""
from __future__ import annotations

import dataclasses
import functools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from syncstab import frequency_response, pipeline, stability
from syncstab.config import MAX_SCAN_POINTS, PowerSetpoint, load_system_spec, parse_system_spec
from syncstab.errors import AnalysisError, SyncstabError
from syncstab.frequency_response import (OVERLAP_THRESHOLD, OperatingPoint,
                                         _match_branches, _strict_bests,
                                         build_gnet, build_gnet_sym, crossing_window,
                                         gamma, per_converter_gamma,
                                         resolve_pll_gains, sym_parts,
                                         trace_curves)
from syncstab.modal import (_weights, adjustment_compare, finite_difference_check,
                            modal_weights, modal_weights_from_report)
from syncstab.network import ReducedNetwork, build_reduced_network
from syncstab.pipeline import assess_point, operating_point, run_analysis
from syncstab.powerflow import solve_steady_state
from syncstab.stability import assess
from syncstab.statespace import assemble_state_space

from conftest import (KI, KP, STATION_CFG_PATH, TWO_BUS_CFG, grouped_grid_spec,
                      random_operating_point, random_pd_network,
                      synthetic_spec)

W0 = 2 * np.pi * 50


def gamma_oracle(w: float, u: float, kp: float = KP, ki: float = KI,
                 w0: float = W0) -> complex:
    denom = u * (w * w * kp * kp + ki * ki)
    re = w0 * w * w * kp / denom
    im = w0 * (w * w * (ki - kp * kp * u) - u * ki * ki) / (w * denom)
    return complex(re, im)


def crossing_freq_oracle(u: float, kp: float = KP, ki: float = KI) -> float:
    return np.sqrt(u * ki * ki / (ki - kp * kp * u)) / (2 * np.pi)


# --- converter side ----------------------------------------------------------

@pytest.mark.parametrize("f", [0.7, 5.0, 20.3, 33.0, 59.0])
@pytest.mark.parametrize("u", [0.9, 1.0, 1.1])
def test_gamma_matches_rationalized_form(f, u):
    w = 2 * np.pi * f
    got = gamma(w, u, KP, KI, W0)
    assert got == pytest.approx(gamma_oracle(w, u), rel=1e-12)


def test_gamma_worked_example():
    # frozen reference point: f = 20.3 Hz, U = 1
    got = gamma(2 * np.pi * 20.3, 1.0, KP, KI, W0)
    assert got.real == pytest.approx(0.1330, abs=5e-4)
    assert got.imag == pytest.approx(0.0690, abs=5e-4)


def test_gamma_imag_zero_crossing():
    f_star = crossing_freq_oracle(1.0)
    assert f_star == pytest.approx(20.0208843, abs=1e-6)
    assert gamma(2 * np.pi * f_star, 1.0, KP, KI, W0).imag == pytest.approx(
        0.0, abs=1e-12)
    # sign change around it
    assert gamma(2 * np.pi * (f_star - 0.5), 1.0, KP, KI, W0).imag < 0
    assert gamma(2 * np.pi * (f_star + 0.5), 1.0, KP, KI, W0).imag > 0


def test_gamma_re_limit_large_ki_small():
    # ki -> 0: Re Gamma -> w0/(kp*U) independent of w
    for u in (0.9, 1.0, 1.2):
        got = gamma(2 * np.pi * 17.0, u, KP, 1e-9, W0)
        assert got.real == pytest.approx(W0 / (KP * u), rel=1e-6)


def test_gamma_vectorized_and_degenerate():
    w = 2 * np.pi * np.array([1.0, 10.0, 30.0])
    vals = gamma(w, 1.0, KP, KI, W0)
    assert vals.shape == (3,)
    for wi, vi in zip(w, vals):
        assert vi == pytest.approx(gamma_oracle(wi, 1.0), rel=1e-12)
    net = ReducedNetwork.from_b_matrix(np.array([[1.0 / 0.3]]))
    op = OperatingPoint(np.array([0.5]), np.array([0.1]), np.array([1.0]))
    calls = {
        "gamma": lambda w: gamma(w, 1.0, KP, KI, W0),
        "gamma_vector": lambda w: gamma(np.array([1.0, w]), 1.0, KP, KI, W0),
        "build_gnet": lambda w: build_gnet(w, net, op, W0),
        "build_gnet_sym": lambda w: build_gnet_sym(w, net, op, W0),
        "modal_weights": lambda w: modal_weights(net, op, w, W0),
    }
    for name, call in calls.items():
        for w in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(AnalysisError) as exc:
                call(w)
            assert exc.value.code == "DEGENERATE_FREQ", (name, w)


def test_gamma_broadcasts_a_vector_u_against_a_scalar_omega():
    u = np.array([1.0, 1.02])
    got = gamma(100.0, u, KP, KI, W0)
    assert got.shape == (2,)
    assert list(got) == [gamma(100.0, 1.0, KP, KI, W0), gamma(100.0, 1.02, KP, KI, W0)]
    assert type(gamma(100.0, 1.0, KP, KI, W0)) is complex
    assert type(gamma(np.float64(100.0), np.array(1.0), KP, KI, W0)) is complex


def test_an_omega_that_is_not_a_real_number_is_degenerate_freq():
    net = ReducedNetwork.from_b_matrix(np.array([[1.0 / 0.3]]))
    op = OperatingPoint(np.array([0.5]), np.array([0.1]), np.array([1.0]))
    one_omega = {
        "gamma": lambda w: gamma(w, 1.0, KP, KI, W0),
        "build_gnet": lambda w: build_gnet(w, net, op, W0),
        "build_gnet_sym": lambda w: build_gnet_sym(w, net, op, W0),
        "modal_weights": lambda w: modal_weights(net, op, w, W0),
    }
    for name, call in one_omega.items():
        # gamma alone broadcasts over an array of ω
        arrays = [] if name == "gamma" else [[100.0, 200.0], np.array([100.0])]
        for w in (100.0 + 1j, 100.0 + 0j, "100", True, None, [100.0, [200.0]], *arrays):
            with pytest.raises(AnalysisError) as exc:
                call(w)
            assert exc.value.code == "DEGENERATE_FREQ", (name, w)


@pytest.mark.parametrize("grid", [
    ["1", "2", "3"], np.array([1.0, 2.0, 3.0]) + 1j, np.array([1.0, 2.0]) + 0j,
    [True, False], [1.0, [2.0, 3.0]], [None, None], np.array([[1.0, 2.0], [3.0, 4.0]]),
], ids=["text", "complex", "complex-real", "bool", "ragged", "none", "2-d"])
def test_a_grid_that_is_not_a_row_of_real_numbers_is_grid_invalid(grid):
    # a complex grid is refused, not cast with a ComplexWarning
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "inject", flat_voltage=True)
    for call in (lambda: trace_curves(spec, net, op, grid),
                 lambda: per_converter_gamma(spec, op, grid)):
        with pytest.raises(AnalysisError) as exc:
            call()
        assert exc.value.code == "GRID_INVALID"


def test_resolve_pll_gains_identical_and_forced():
    spec = parse_system_spec(TWO_BUS_CFG)
    kp, ki, warnings = resolve_pll_gains(spec)
    assert (kp, ki) == (6.5, 15782) and warnings == []
    mixed = parse_system_spec(TWO_BUS_CFG.replace(
        "C1 bus1 6.5 15782", "C1 bus1 6.5 15782\nC2 bus2 5.0 9000").replace(
        "[nodes]\nbus1\ngrid", "[nodes]\nbus1\nbus2\ngrid").replace(
        "[branches]\nbus1 grid 0.3", "[branches]\nbus1 grid 0.3\nbus2 grid 0.4"))
    with pytest.raises(AnalysisError) as exc:
        resolve_pll_gains(mixed)
    assert exc.value.code == "NONIDENTICAL_PLL"
    kp, ki, warnings = resolve_pll_gains(mixed, force_first_pll=True)
    assert (kp, ki) == (6.5, 15782)
    assert warnings  # carries a note about the unused second tuning


@pytest.mark.parametrize("p, q, u", [
    ([0.5, np.nan], [0.0, 0.0], [1.0, 1.0]),
    ([0.5, 0.1], [np.inf, 0.0], [1.0, 1.0]),
    ([0.5, 0.1], [0.0, 0.0], [1.0, np.nan]),
    ([0.5, 0.1], [0.0, 0.0], [1.0, np.inf]),
    ([0.5, 0.1], [0.0], [1.0, 1.0]),
    ([0.5, 0.1], [0.0, 0.0], [1.0, 0.0]),
], ids=["nan-p", "inf-q", "nan-u", "inf-u", "shape", "zero-u"])
def test_operating_point_rejects_bad_values_with_code(p, q, u):
    with pytest.raises(AnalysisError) as exc:
        OperatingPoint(np.array(p), np.array(q), np.array(u))
    assert exc.value.code == "OP_INVALID"


# values that are not real numbers are refused, not cast: numeric text and
# bools too, also beside floats in one list
@pytest.mark.parametrize("p, q, u", [
    ([1 + 1j], [0.0], [1.0]),
    (["a"], [0.0], [1.0]),
    (["0.5"], [0.0], [1.0]),
    ([True], [0.0], [1.0]),
    ([0.5], [0.0], [np.complex128(1.0)]),
    ([0.5, True], [0.0, 0.0], [1.0, 1.0]),
    ([0.5, 0.1], [0.0, 0.0], np.array([1.0, 1.0], dtype=object)),
], ids=["complex-p", "text-p", "numeric-text-p", "bool-p", "complex-u",
        "bool-beside-float", "object-u"])
def test_an_operating_point_that_is_not_real_numbers_is_op_invalid(p, q, u):
    with pytest.raises(AnalysisError) as exc:
        OperatingPoint(p, q, u)
    assert exc.value.code == "OP_INVALID"


@pytest.mark.parametrize("u", [1e-200, 1e-160], ids=["u-squared-underflows", "p-over-u2-overflows"])
@pytest.mark.parametrize("call", ["trace_curves", "modal_weights"])
def test_a_voltage_whose_p_over_u_squared_is_not_finite_is_op_invalid(call, u):
    # U² underflows to 0 at 1e-200 and P/U² overflows at 1e-160; either is
    # refused before NumPy can warn, which tier-1's filter would make an error
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    run = {"trace_curves": lambda op: trace_curves(spec, net, op),
           "modal_weights": lambda op: modal_weights(net, op, 2 * np.pi * 20, W0)}[call]
    with pytest.raises(AnalysisError) as exc:
        run(OperatingPoint(np.array([0.5]), np.array([0.1]), np.array([u])))
    assert exc.value.code == "OP_INVALID"


# a 4-long operating point against the 5-converter station network; the
# finite-difference check gets a fitting point and a converter index off it
_MISFIT_CALLS = {
    "trace_curves": lambda spec, net, op, op4: trace_curves(spec, net, op4),
    "modal_weights": lambda spec, net, op, op4: modal_weights(net, op4, 2 * np.pi * 20, W0),
    "build_gnet": lambda spec, net, op, op4: build_gnet(2 * np.pi * 20, net, op4, W0),
    "build_gnet_sym": lambda spec, net, op, op4: build_gnet_sym(2 * np.pi * 20, net, op4, W0),
    "assemble_state_space": lambda spec, net, op, op4: assemble_state_space(net, op4, KP, KI, W0),
    "per_converter_gamma":
        lambda spec, net, op, op4: per_converter_gamma(spec, op4, np.linspace(1.0, 30.0, 25)),
    "adjustment_compare":
        lambda spec, net, op, op4: adjustment_compare(spec, net, op, op4.p_pu),
    "finite_difference_check": lambda spec, net, op, op4: finite_difference_check(spec, net, op, 7),
    "finite_difference_check_negative":
        lambda spec, net, op, op4: finite_difference_check(spec, net, op, -1),
}


@pytest.mark.parametrize("call", _MISFIT_CALLS.values(), ids=_MISFIT_CALLS.keys())
def test_an_operating_point_that_does_not_fit_the_network_is_op_invalid(call):
    spec = load_system_spec(STATION_CFG_PATH)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "heavy", flat_voltage=True)
    op4 = OperatingPoint(op.p_pu[:4], op.q_pu[:4], op.u_pu[:4])
    with pytest.raises(AnalysisError) as exc:
        call(spec, net, op, op4)
    assert exc.value.code == "OP_INVALID"


# --- network side ------------------------------------------------------------

def test_gnet_scalar_closed_form():
    net = ReducedNetwork.from_b_matrix(np.array([[1 / 0.3]]))
    op = OperatingPoint(np.array([0.5]), np.array([0.2]), np.array([1.0]))
    w = 2 * np.pi * 20.0
    got = build_gnet(w, net, op, W0)
    assert got.shape == (1, 1)
    expect = -0.5 * 0.3 + 1j * (W0 / w) * 0.2 * 0.3
    assert got[0, 0] == pytest.approx(expect, rel=1e-12)


def test_gnet_voltage_scaling():
    # P/U^2 scaling: halving U quadruples the response
    net = ReducedNetwork.from_b_matrix(np.array([[2.0]]))
    op1 = OperatingPoint(np.array([0.4]), np.array([0.0]), np.array([1.0]))
    op2 = OperatingPoint(np.array([0.4]), np.array([0.0]), np.array([0.5]))
    w = 2 * np.pi * 15.0
    assert build_gnet(w, net, op2, W0)[0, 0] == pytest.approx(
        4 * build_gnet(w, net, op1, W0)[0, 0], rel=1e-12)


def test_gnet_linear_in_power():
    rng = np.random.default_rng(3)
    net = random_pd_network(rng, 4)
    u = np.ones(4)
    p, q = rng.uniform(-1, 1, 4), rng.uniform(-0.5, 0.5, 4)
    w = 2 * np.pi * 22.0
    g1 = build_gnet(w, net, OperatingPoint(p, q, u), W0)
    g2 = build_gnet(w, net, OperatingPoint(2 * p, 2 * q, u), W0)
    np.testing.assert_allclose(g2, 2 * g1, atol=1e-12)


def test_similarity_gnet_vs_symmetric():
    # eigenvalue multisets of B^-1 form and B^-1/2 ... B^-1/2 form agree
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        net = random_pd_network(rng, n)
        op = random_operating_point(rng, n)
        w = 2 * np.pi * rng.uniform(0.5, 60.0)
        ev_a = np.sort_complex(np.linalg.eigvals(build_gnet(w, net, op, W0)))
        ev_b = np.sort_complex(np.linalg.eigvals(build_gnet_sym(w, net, op, W0)))
        np.testing.assert_allclose(ev_a, ev_b, atol=1e-10)


def test_sym_parts_are_symmetric_and_consistent():
    rng = np.random.default_rng(5)
    net = random_pd_network(rng, 5)
    op = random_operating_point(rng, 5, flat=False)
    s_p, s_q = sym_parts(net, op)
    np.testing.assert_allclose(s_p, s_p.T, atol=1e-12)
    np.testing.assert_allclose(s_q, s_q.T, atol=1e-12)
    w = 2 * np.pi * 18.0
    np.testing.assert_allclose(build_gnet_sym(w, net, op, W0),
                               -s_p + 1j * (W0 / w) * s_q, atol=1e-12)


def test_gnet_real_eigenvalues_when_q_zero():
    rng = np.random.default_rng(9)
    net = random_pd_network(rng, 6)
    p = rng.uniform(-1, 1, 6)
    op = OperatingPoint(p, np.zeros(6), np.ones(6))
    vals = np.linalg.eigvals(build_gnet_sym(2 * np.pi * 12.0, net, op, W0))
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)


# --- curve tracing -----------------------------------------------------------

def test_trace_two_bus_curve_values():
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    curves = trace_curves(spec, net, op)
    assert curves.n == 1
    assert curves.m == spec.options.scan_points
    assert curves.f_hz[0] == pytest.approx(0.5)
    assert curves.f_hz[-1] == pytest.approx(60.0)
    # D_net is constant -P*L/U^2 over the whole grid for the scalar Q=0 system
    assert curves.d_net.shape == (1, curves.m)
    np.testing.assert_allclose(curves.d_net[0, :], -0.5 * 0.3, atol=1e-12)
    np.testing.assert_allclose(curves.k_net[0, :], 0.0, atol=1e-12)
    # converter side matches the closed form on the same grid
    for k in (0, 100, 600, -1):
        expect = gamma_oracle(curves.omega_rad_s[k], 1.0)
        assert curves.d_con[k] == pytest.approx(expect.real, rel=1e-12)
        assert curves.k_con[k] == pytest.approx(expect.imag, rel=1e-12)
    assert curves.branch_jumps == []


def test_trace_grid_override_and_validation():
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.1]), np.array([0.0]), np.array([1.0]))
    grid = np.linspace(5.0, 25.0, 40)
    curves = trace_curves(spec, net, op, grid_hz=grid)
    assert curves.m == 40
    with pytest.raises(AnalysisError) as exc:
        trace_curves(spec, net, op, grid_hz=np.array([5.0, 4.0]))
    assert exc.value.code == "GRID_INVALID"
    with pytest.raises(AnalysisError):
        trace_curves(spec, net, op, grid_hz=np.array([-1.0, 4.0]))


def test_branch_tracking_continuity():
    # two nearly-degenerate branches; tracked eigenvector overlap must stay
    # high on a dense grid and branch values must be smooth
    rng = np.random.default_rng(21)
    net = random_pd_network(rng, 3)
    op = random_operating_point(rng, 3)
    spec = synthetic_spec(3, scan_points=900)
    curves = trace_curves(spec, net, op)
    assert curves.branch_jumps == []
    # smoothness above the steep w0/w low-frequency edge: successive steps
    # stay small relative to curve scale for f > 5 Hz
    cols = curves.f_hz > 5.0
    d = curves.d_net[:, cols]
    step = np.abs(np.diff(d, axis=1)).max()
    scale = np.abs(d).max() + 1e-12
    assert step < 0.02 * scale


@pytest.mark.parametrize("grid_hz", [[1.0, np.nan], [1.0, np.inf], [np.nan, 2.0, 3.0],
                                     [1.0, 2.0, np.inf]])
def test_trace_rejects_non_finite_grid(grid_hz):
    spec = load_system_spec(STATION_CFG_PATH)
    _name, _steady, op = operating_point(spec, "heavy")
    with pytest.raises(AnalysisError) as exc:
        trace_curves(spec, build_reduced_network(spec), op, np.array(grid_hz))
    assert exc.value.code == "GRID_INVALID"


def _with_scan_points(spec, points):
    return dataclasses.replace(spec, options=dataclasses.replace(spec.options,
                                                                 scan_points=points))


def test_an_over_cap_scan_is_refused_before_it_solves_or_allocates(monkeypatch):
    # options built in code skip validate(), so trace_curves applies the cap
    # itself, and refuses a scan_points that is no integer
    spec = load_system_spec(STATION_CFG_PATH)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "heavy", flat_voltage=True)
    grid = np.linspace(0.5, 60.0, MAX_SCAN_POINTS + 1)

    def refuse(*args):
        raise AssertionError("an over-cap scan reached the eigensolver")

    # the scan solves most points by np.linalg.eig on its own block, not by _eig
    monkeypatch.setattr(frequency_response, "_eig", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    refused = []
    tracemalloc.start()
    try:
        for points in (200_000, 2.5, 1200.0, "1200"):
            with pytest.raises(AnalysisError) as exc:
                trace_curves(_with_scan_points(spec, points), net, op)
            refused.append(exc.value.code)
        with pytest.raises(AnalysisError) as explicit:
            trace_curves(spec, net, op, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused == ["SCAN_POINTS_INVALID"] * 4
    assert explicit.value.code == "GRID_INVALID"
    assert peak < grid.nbytes / 10
    monkeypatch.undo()
    assert trace_curves(_with_scan_points(spec, np.int64(40)), net, op).m == 40


def test_branch_order_is_deterministic():
    rng = np.random.default_rng(33)
    net = random_pd_network(rng, 4)
    op = random_operating_point(rng, 4)
    spec = synthetic_spec(4, scan_points=300)
    a = trace_curves(spec, net, op)
    b = trace_curves(spec, net, op)
    np.testing.assert_array_equal(a.d_net, b.d_net)
    np.testing.assert_array_equal(a.k_net, b.k_net)


# ------------------------------------------------------- branch matching

def _match_reference(prev_vecs, vals, vecs):
    """The greedy rule written as a keyed sort of every (branch, candidate)
    pair: descending overlap, then ascending (Re λ_j, Im λ_j, i), then the
    i-major, j-minor generation order (the sort is stable)."""
    n = len(vals)
    overlap = np.abs(prev_vecs.conj().T @ vecs)
    order = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        key=lambda ij: (-overlap[ij], vals[ij[1]].real, vals[ij[1]].imag, ij[0]))
    taken_i = np.zeros(n, dtype=bool)
    taken_j = np.zeros(n, dtype=bool)
    assign = np.empty(n, dtype=int)
    for i, j in order:
        if not (taken_i[i] or taken_j[j]):
            assign[i] = j
            taken_i[i] = taken_j[j] = True
    return assign, overlap[np.arange(n), assign]


# small integers and one-decimal values make exactly equal overlaps and
# eigenvalues common; unrestricted floats cover the generic case
_ENTRY = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-1.0, 1.0).map(lambda x: round(x, 1)),
    st.floats(-1.0, 1.0))


@st.composite
def _matching_problem(draw):
    n = draw(st.integers(1, 6))
    entries = st.lists(_ENTRY, min_size=2 * n * n, max_size=2 * n * n)

    def complex_matrix():
        x = np.array(draw(entries)).reshape(2, n, n)
        return x[0] + 1j * x[1]

    prev_vecs, vecs = complex_matrix(), complex_matrix()
    vals = complex_matrix()[0]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pairs, max_size=3)):    # duplicated columns
        vecs[:, b] = vecs[:, a]
    for a, b in draw(st.lists(pairs, max_size=3)):    # repeated eigenvalues
        vals[b] = vals[a]
    return prev_vecs, vals, vecs


def _has_distinct_strict_bests(prev_vecs, vecs):
    """Every branch has a strict best candidate and no two share one."""
    overlap = np.abs(prev_vecs.conj().T @ vecs)
    strict = all(np.count_nonzero(row == row.max()) == 1 for row in overlap)
    return strict and len(set(overlap.argmax(axis=1).tolist())) == len(overlap)


# one problem per path: distinct strict bests, and a tie in branch 0's row
_FAST_PROBLEM = (np.eye(3, dtype=complex), np.array([1.0, 2.0, 3.0 + 0j]),
                 np.array([[0.1, 0.9, 0.0], [0.8, 0.2, 0.1], [0.0, 0.3, 0.7]], dtype=complex))
_FALLBACK_PROBLEM = (np.eye(2, dtype=complex), np.array([1.0, 1.0 + 0j]),
                     np.array([[0.6, 0.6], [0.8, 0.8]], dtype=complex))


@settings(max_examples=300, deadline=None)
@given(_matching_problem())
@example(_FAST_PROBLEM)
@example(_FALLBACK_PROBLEM)
def test_match_branches_follows_the_sorted_greedy_rule(problem):
    columns, overlaps = _match_branches(*problem)
    expect_columns, expect_overlaps = _match_reference(*problem)
    np.testing.assert_array_equal(columns, expect_columns)
    np.testing.assert_array_equal(overlaps, expect_overlaps)
    assert sorted(columns.tolist()) == list(range(len(columns)))
    # the scan's fast path settles a point exactly when every branch has a
    # distinct strict best, and then takes the greedy rule's pairs
    prev_vecs, _vals, vecs = problem
    best, top, settled = _strict_bests(np.abs(prev_vecs.conj().T @ vecs)[None])
    fast = _has_distinct_strict_bests(prev_vecs, vecs)
    assert settled[0] == fast
    if fast:
        np.testing.assert_array_equal(best[0], expect_columns)
        np.testing.assert_array_equal(top[0], expect_overlaps)
    if problem is _FAST_PROBLEM or problem is _FALLBACK_PROBLEM:
        assert fast is (problem is _FAST_PROBLEM)     # each example pins one path
    event("fast path" if fast else "fallback")


def _station_curves(case_setpoints=None, grid_hz=None):
    spec = load_system_spec(STATION_CFG_PATH)
    case = "heavy"
    if case_setpoints is not None:
        p, q = spec.case_injections(case)
        block = {name: PowerSetpoint(p[i], q[i])
                 for i, name in enumerate(spec.converter_names)}
        block.update(case_setpoints)
        spec, case = spec.with_case("_repro", block), "_repro"
    _name, _steady, op = operating_point(spec, case)
    return trace_curves(spec, build_reduced_network(spec), op, grid_hz)


# the station's heavy case, and the same case with WTG1-3 (three identical
# units on one collector) at one setpoint, which makes an eigenvalue 2-fold
@pytest.mark.parametrize("setpoints", [
    None,
    {name: PowerSetpoint(0.9, 0.1) for name in ("WTG1", "WTG2", "WTG3")},
], ids=["heavy", "identical_units"])
def test_loop_at_reproduces_the_scan_bit_for_bit(setpoints):
    curves = _station_curves(setpoints)
    for k in range(curves.m):
        for i in range(curves.n):
            g, lam, phi = curves.loop_at(k, i)
            assert g == curves.d_con[k] + 1j * curves.k_con[k], (k, i)
            assert lam == curves.d_net[i, k] + 1j * curves.k_net[i, k], (k, i)
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
            # loop's overlap rule picks the branch its reference vector names
            assert curves.loop(curves.omega_rad_s[k], phi)[1] == lam, (k, i)


# the station's three cases flat and solved, and the degenerate repro
@pytest.mark.parametrize("case,flat,setpoints", [
    *((case, flat, None) for case in ("light", "heavy", "peak") for flat in (True, False)),
    ("heavy", None, {name: PowerSetpoint(0.9, 0.1) for name in ("WTG1", "WTG2", "WTG3")}),
], ids=["light_flat", "light_solved", "heavy_flat", "heavy_solved", "peak_flat",
        "peak_solved", "identical_units"])
def test_loop_reproduces_every_reported_crossing_bit_for_bit(case, flat, setpoints):
    spec = load_system_spec(STATION_CFG_PATH)
    if setpoints is not None:
        p, q = spec.case_injections(case)
        block = {name: PowerSetpoint(p[i], q[i])
                 for i, name in enumerate(spec.converter_names)}
        spec, case = spec.with_case("_repro", {**block, **setpoints}), "_repro"
    result = run_analysis(spec, case, flat_voltage=flat)
    crossings = [c for a in result.report.per_subsystem for c in a.crossings]
    assert crossings
    for c in crossings:
        g, lam, phi = result.curves.loop(c.omega_ci, c.phi)
        assert (g.real, lam) == (c.d_con, c.lam)
        assert phi.tobytes() == c.phi.tobytes()


def test_the_forced_loop_at_solved_voltages_is_gamma_at_the_mean_u():
    # WTG3 declares its own kp: the forced loop takes converter 1's gains and
    # the mean of the solved U, on the grid and off it
    with open(STATION_CFG_PATH, encoding="utf-8") as fh:
        spec = parse_system_spec(fh.read().replace("WTG3 wtg3 6.5 15782", "WTG3 wtg3 7.0 15782"))
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "heavy", flat_voltage=False)
    assert np.ptp(op.u_pu) > 1e-3
    curves = trace_curves(spec, net, op, force_first_pll=True)
    assert len(curves.warnings) == 1
    first = spec.converters[0]
    loop_args = (float(np.mean(op.u_pu)), first.pll_kp, first.pll_ki, spec.omega0)
    for k, i in ((0, 0), (curves.m // 2, 2), (curves.m - 2, curves.n - 1)):
        on_grid = curves.loop_at(k, i)
        off_grid = 0.5 * (curves.omega_rad_s[k] + curves.omega_rad_s[k + 1])
        for omega, (g, lam, _phi) in ((curves.omega_rad_s[k], on_grid),
                                      (off_grid, curves.loop(off_grid, on_grid[2]))):
            assert g == gamma(omega, *loop_args), (k, i, omega)
            eigs = np.linalg.eigvals(build_gnet_sym(omega, net, op, spec.omega0))
            assert np.min(np.abs(eigs - lam)) <= 1e-9 * np.max(np.abs(eigs)), (k, i, omega)


def test_curves_hold_no_per_point_eigenvectors():
    curves = _station_curves()
    for f in dataclasses.fields(curves):
        value = getattr(curves, f.name)
        assert np.ndim(value) <= 2, f.name
    # nor the full S_P and S_Q: the loop's only matrices are in its symmetry split
    assert all(np.ndim(value) <= 1 for value in vars(curves._loop).values())
    assert curves.columns.shape == (curves.m, curves.n)
    for k in range(curves.m):
        assert sorted(curves.columns[k].tolist()) == list(range(curves.n))


def test_per_converter_gamma_shapes():
    spec = parse_system_spec(TWO_BUS_CFG)
    op = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([0.95]))
    grid = np.linspace(1.0, 30.0, 25)
    vals = per_converter_gamma(spec, op, grid)
    assert vals.shape == (1, 25)
    expect = gamma_oracle(2 * np.pi * grid[7], 0.95)
    assert vals[0, 7] == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------ symmetry quotient

_REPRO = {name: PowerSetpoint(0.9, 0.1) for name in ("WTG1", "WTG2", "WTG3")}


def _repro_spec(scan_points: int = 1200):
    """The station's heavy case with WTG1-3 at one setpoint: with ES1 they
    share collector c7 and one transformer reactance, so WTG1-3 form a class
    of three interchangeable units."""
    spec = load_system_spec(STATION_CFG_PATH)
    p, q = spec.case_injections("heavy")
    block = {name: PowerSetpoint(p[i], q[i]) for i, name in enumerate(spec.converter_names)}
    spec = spec.with_case("_repro", {**block, **_REPRO})
    return dataclasses.replace(
        spec, options=dataclasses.replace(spec.options, scan_points=scan_points))


def _singletons(n):
    return [[j] for j in range(n)]


def _full_scan():
    """Patch the class detector so that every trace sees n singleton classes,
    whose quotient is the n×n G′_net."""
    return mock.patch.object(frequency_response, "_classes",
                             side_effect=lambda net, op: _singletons(op.n))


def _eig_shapes():
    """Spy on np.linalg.eig: the shapes of the matrices it is given."""
    shapes = []
    eig = np.linalg.eig

    def spy(a):
        shapes.append(a.shape)
        return eig(a)

    return shapes, mock.patch.object(np.linalg, "eig", spy)


def _crossing_freqs(report):
    return sorted(c.f_ci for a in report.per_subsystem for c in a.crossings)


# the degenerate repro flat and solved, and five grouped grids of 20 units
@pytest.mark.parametrize("make,case,flat", [
    (_repro_spec, "_repro", True), (_repro_spec, "_repro", False),
    *((lambda seed=seed: grouped_grid_spec(seed), "base", None) for seed in range(5)),
], ids=["repro_flat", "repro_solved", *(f"grouped{seed}" for seed in range(5))])
def test_quotient_scan_matches_the_full_scan(make, case, flat):
    spec = make()
    reduced = run_analysis(spec, case, flat_voltage=flat)
    with _full_scan():
        full = run_analysis(spec, case, flat_voltage=flat)
    n = reduced.op.n
    assert len(reduced.curves._loop.sym.classes) < n
    assert full.curves._loop.sym.classes == _singletons(n)
    assert reduced.report.verdict == full.report.verdict
    assert abs(reduced.report.critical.d_net1 - full.report.critical.d_net1) <= 1e-9
    f_reduced, f_full = _crossing_freqs(reduced.report), _crossing_freqs(full.report)
    assert len(f_reduced) == len(f_full)
    assert np.all(np.abs(np.subtract(f_reduced, f_full)) <= spec.options.root_tol_hz)
    # the same spectrum at every grid point, whatever the branch order
    for part in ("d_net", "k_net"):
        a = np.sort(getattr(reduced.curves, part), axis=0)
        b = np.sort(getattr(full.curves, part), axis=0)
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))
    assert reduced.curves.branch_jumps == []


@pytest.mark.parametrize("points,full_jumps", [(300, 11), (1200, 49), (4000, 165)])
def test_quotient_scan_has_no_branch_jumps_on_the_repro(points, full_jumps):
    spec = _repro_spec(points)
    _name, _steady, op = operating_point(spec, "_repro")
    net = build_reduced_network(spec)
    assert trace_curves(spec, net, op).branch_jumps == []
    # the n×n scan of the same input jumps inside the degenerate pair
    with _full_scan():
        assert len(trace_curves(spec, net, op).branch_jumps) == full_jumps


@pytest.mark.parametrize("make,case", [(_repro_spec, "_repro"),
                                       (lambda: grouped_grid_spec(0), "base")],
                         ids=["repro", "grouped0"])
def test_every_solve_of_a_grouped_input_is_g_by_g(make, case):
    spec = make()
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, case)
    g = len(frequency_response._classes(net, op))
    shapes, spy = _eig_shapes()
    with spy:
        curves = trace_curves(spec, net, op)
        scan = len(shapes)
        stability.assess(spec, curves)
    # the scan solves one matrix per point, the refinement stacks of them
    assert scan == spec.options.scan_points and set(shapes[:scan]) == {(g, g)}
    assert len(shapes) > scan          # the refinement solved too
    assert {shape[-2:] for shape in shapes} == {(g, g)} and g < op.n


# the station's six inputs and the two-bus config's two cases, flat and solved
@pytest.mark.parametrize("cfg,case,flat", [
    *((STATION_CFG_PATH, case, flat) for case in ("light", "heavy", "peak")
      for flat in (True, False)),
    *((TWO_BUS_CFG, case, flat) for case in ("inject", "absorb") for flat in (True, False)),
], ids=[*(f"station_{c}_{'flat' if f else 'solved'}" for c in ("light", "heavy", "peak")
          for f in (True, False)),
        *(f"two_bus_{c}_{'flat' if f else 'solved'}" for c in ("inject", "absorb")
          for f in (True, False))])
def test_a_plant_without_groups_scans_g_prime_net_itself(cfg, case, flat):
    spec = load_system_spec(cfg) if cfg is STATION_CFG_PATH else parse_system_spec(cfg)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, case, flat_voltage=flat)
    sym = trace_curves(spec, net, op)._loop.sym
    assert sym.classes == _singletons(op.n) and sym.diffs.shape == (op.n, 0)
    s_p, s_q = sym_parts(net, op)
    assert sym.s_p.tobytes() == s_p.tobytes() and sym.s_q.tobytes() == s_q.tobytes()


def test_the_singleton_quotient_is_s_p_and_s_q_bit_for_bit():
    rng = np.random.default_rng(15)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        net = random_pd_network(rng, n)
        op = random_operating_point(rng, n, flat=bool(trial % 2))
        # all-zero P and all-zero Q make every entry of S_P or S_Q a zero
        zero = np.zeros(n)
        op = (op, OperatingPoint(zero, op.q_pu, op.u_pu),
              OperatingPoint(op.p_pu, zero, op.u_pu))[trial % 3]
        s_p, s_q = sym_parts(net, op)
        sym = frequency_response._symmetry(_singletons(n), s_p, s_q)
        assert sym.s_p.tobytes() == s_p.tobytes(), trial
        assert sym.s_q.tobytes() == s_q.tobytes(), trial


def test_modal_weights_of_a_grouped_input_solves_only_the_quotient():
    spec = grouped_grid_spec(0)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "base")
    g = len(frequency_response._classes(net, op))
    shapes, spy = _eig_shapes()
    with spy:
        weights = modal_weights(net, op, 2 * np.pi * 20.0, spec.omega0)
    assert shapes == [(g, g)] and g < op.n
    assert abs(weights.lam1.real + weights.eta @ op.p_pu) <= 1e-9


def test_modal_weights_on_a_repeated_eigenvalue_is_the_helmert_vector():
    # three interchangeable absorbing units: the difference eigenvalue, 2-fold,
    # has the minimal real part, and φ is one of its two Helmert vectors
    net = ReducedNetwork.from_b_matrix(4.0 * np.eye(3) - np.ones((3, 3)))
    op = OperatingPoint(np.full(3, -0.5), np.full(3, 0.1), np.ones(3))
    shapes, spy = _eig_shapes()
    with spy:
        weights = modal_weights(net, op, 2 * np.pi * 20.0, W0)
    assert shapes == [(1, 1)]
    helmert = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])
    assert any(np.array_equal(weights.phi, d / np.linalg.norm(d)) for d in helmert.T)
    assert abs(weights.lam1.real + weights.eta @ op.p_pu) <= 1e-12


def test_near_symmetry_takes_the_full_scan():
    # WTG1 and WTG2 at one setpoint: a class of two, which either change breaks
    spec = _repro_spec(300)
    p, q = spec.case_injections("heavy")
    p[3], q[3] = p[1], q[1]
    net = build_reduced_network(spec)
    op = OperatingPoint(p, q, np.ones(5))
    assert frequency_response._classes(net, op) == [[0], [1, 3], [2], [4]]
    b = net.b_matrix.copy()
    b[1, 0] = b[0, 1] = b[0, 1] * (1.0 + 1e-9)        # WTG1's coupling to ES1
    p = op.p_pu.copy()
    p[3] *= 1.0 + 1e-9                                 # WTG2's setpoint
    for net2, op2 in ((ReducedNetwork.from_b_matrix(b, spec.converter_names), op),
                      (net, OperatingPoint(p, op.q_pu, op.u_pu))):
        assert frequency_response._classes(net2, op2) == _singletons(5)
        shapes, spy = _eig_shapes()
        with spy:
            curves = trace_curves(spec, net2, op2)
        assert curves._loop.sym.classes == _singletons(5)
        assert set(shapes) == {(5, 5)}


def test_a_class_that_fails_the_residual_check_takes_the_full_scan():
    # ES1 and WTG1 share a collector and a transformer reactance, but not a
    # setpoint: their difference vector is no eigenvector of S_P or S_Q
    spec = _repro_spec(300)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "_repro")
    s_p, s_q = sym_parts(net, op)
    wrong = [[0, 1], [2], [3], [4]]
    assert frequency_response._symmetry(wrong, s_p, s_q).classes == _singletons(5)
    with mock.patch.object(frequency_response, "_classes", return_value=wrong):
        curves = trace_curves(spec, net, op)
    assert curves._loop.sym.classes == _singletons(5)
    with _full_scan():
        full = trace_curves(spec, net, op)
    np.testing.assert_array_equal(curves.d_net, full.d_net)


def test_difference_branch_carries_its_helmert_vector_and_the_rayleigh_identity():
    spec = grouped_grid_spec(0)
    result = run_analysis(spec, "base")
    sym, curves = result.curves._loop.sym, result.curves
    g = len(sym.classes)
    diff_crossings = [c for a in result.report.per_subsystem for c in a.crossings
                      if curves.columns[0, c.subsystem] >= g]
    assert diff_crossings
    for c in diff_crossings:
        column = curves.columns[0, c.subsystem]
        assert (curves.columns[:, c.subsystem] == column).all()
        np.testing.assert_array_equal(c.phi, sym.diffs[:, column - g])
        weights = _weights(result.net, result.op, c.omega_ci, spec.omega0, c.lam, c.phi)
        assert abs(c.d_neti + weights.eta @ result.op.p_pu) <= 1e-9
        assert abs(c.k_neti - spec.omega0 / c.omega_ci * weights.eta @ result.op.q_pu) <= 1e-9


# ------------------------------------------------- eigensolver failures

def _refusing_eig(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# the n×n solve of the station and the quotient solve of the repro
@pytest.mark.parametrize("make,case", [(lambda: load_system_spec(STATION_CFG_PATH), "heavy"),
                                       (_repro_spec, "_repro")], ids=["station", "repro"])
def test_eigensolver_failure_is_a_coded_error(monkeypatch, make, case):
    spec = make()
    result = run_analysis(spec, case)
    monkeypatch.setattr(np.linalg, "eig", _refusing_eig)
    with pytest.raises(AnalysisError) as exc:
        run_analysis(spec, case)
    assert exc.value.code == "EIG_NOT_CONVERGED"
    assert "f_hz = 0.5" in str(exc.value)
    with pytest.raises(AnalysisError) as exc:
        modal_weights(result.net, result.op, 2 * np.pi * 20.0, spec.omega0)
    assert exc.value.code == "EIG_NOT_CONVERGED"
    assert "f_hz = 20" in str(exc.value)


def test_a_failing_stack_names_the_first_omega_that_fails_alone(monkeypatch):
    curves = _station_curves()
    sym, omega0 = curves._loop.sym, curves._loop.omega0
    omega = curves.omega_rad_s[[100, 200, 300, 400, 500]] + 0.25
    eig = np.linalg.eig

    def refusing(bad=(), stacks=False):
        """np.linalg.eig refusing the matrices at ``omega[bad]``, and every
        stack if ``stacks``."""
        refused = [-sym.s_p + 1j * (omega0 / omega[k]) * sym.s_q for k in bad]

        def spy(a):
            matrices = a.reshape(-1, *a.shape[-2:])
            if (stacks and a.ndim == 3) or any(np.array_equal(m, r) for m in matrices
                                                 for r in refused):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)
        return spy

    picks = [0] * len(omega)
    expected = [(g, lam, phi.tobytes()) for g, lam, phi in curves.loops(omega, picks)]
    monkeypatch.setattr(np.linalg, "eig", refusing(bad=[3, 1]))
    with pytest.raises(AnalysisError) as exc:
        curves.loops(omega, picks)
    assert exc.value.code == "EIG_NOT_CONVERGED"
    assert f"f_hz = {omega[1] / (2.0 * np.pi):.12g}:" in str(exc.value)
    # a stack that fails while each of its matrices converges alone is solved alone
    monkeypatch.setattr(np.linalg, "eig", refusing(stacks=True))
    got = [(g, lam, phi.tobytes()) for g, lam, phi in curves.loops(omega, picks)]
    assert got == expected


def test_the_refinement_holds_no_more_memory_than_the_scan():
    # the refinement solves stacks of at most _BLOCK_ENTRIES entries, as the
    # scan does, so what it allocates above what it leaves held (the report
    # for assess, the curves for the scan) stays at or below the scan's
    spec = grouped_grid_spec(0)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "base")
    tracemalloc.start()
    try:
        curves = trace_curves(spec, net, op)
        held, peak = tracemalloc.get_traced_memory()
        scan = peak - held
        tracemalloc.reset_peak()
        report = assess(spec, curves)
        held, peak = tracemalloc.get_traced_memory()
        refine = peak - held
    finally:
        tracemalloc.stop()
    assert sum(len(a.crossings) for a in report.per_subsystem) > 1
    assert refine <= scan, (refine, scan)


# ---------------------------------------------- the scan, a block at a time

def _match_per_point(prev_vecs, vals, vecs):
    """The per-point matcher: the row-wise bests where they are distinct and
    strict, else the greedy rule.  Returns (columns, overlaps, took the
    row-wise bests)."""
    if _has_distinct_strict_bests(prev_vecs, vecs):
        overlap = np.abs(prev_vecs.conj().T @ vecs)
        best = overlap.argmax(axis=1)
        return best, overlap[np.arange(len(vals)), best], True
    return (*_match_reference(prev_vecs, vals, vecs), False)


def _trace_per_point(spec, net, op, grid_hz):
    """The scan one grid point at a time: one eigensolve, then one match
    against the previous point's tracked eigenvectors.  Returns (λ, columns,
    branch jumps, the points that took the greedy rule)."""
    omega0 = spec.omega0
    omega_grid = 2.0 * np.pi * np.asarray(grid_hz, dtype=float)
    n, m = op.n, len(omega_grid)
    sym = frequency_response._symmetry(frequency_response._classes(net, op),
                                       *sym_parts(net, op))
    g = len(sym.classes)
    lam = np.empty((n, m), dtype=complex)
    columns = np.empty((m, n), dtype=int)
    jumps, greedy = [], []
    for k, w in enumerate(omega_grid):
        vals, vecs = frequency_response._eig(sym.s_p, sym.s_q, omega0, w)
        if k == 0:
            every = sym.values(vals, omega0 / w)
            order = np.lexsort((every.imag, every.real))
            tracked = np.flatnonzero(order < g)
            matched, overlaps = order[tracked], np.ones(g)
        else:
            matched, overlaps, fast = _match_per_point(prev_vecs, vals, vecs)
            if not fast:
                greedy.append(k)
            order[tracked] = matched
        lam[tracked, k], prev_vecs = vals[matched], vecs[:, matched]
        columns[k] = order
        jumps.extend((k, int(tracked[i])) for i in np.flatnonzero(overlaps < OVERLAP_THRESHOLD))
    for i in np.flatnonzero(order >= g):
        lam[i] = -sym.a[order[i] - g] + 1j * (omega0 / omega_grid) * sym.b[order[i] - g]
    return lam, columns, jumps, greedy


def _block_length(g):
    return max(1, frequency_response._BLOCK_ENTRIES // g**2)


def _scan_both_ways(spec, net, op, grid_hz=None):
    """Trace with the block scan and with the per-point reference; assert
    equal bits.  Returns (curves, the reference's greedy points)."""
    with mock.patch.object(frequency_response, "_match_branches",
                           wraps=_match_branches) as greedy_calls:
        curves = trace_curves(spec, net, op, grid_hz)
    lam, columns, jumps, greedy = _trace_per_point(spec, net, op, curves.f_hz)
    assert curves.d_net.tobytes() == lam.real.tobytes()
    assert curves.k_net.tobytes() == lam.imag.tobytes()
    assert curves.columns.dtype == np.min_scalar_type(op.n)
    np.testing.assert_array_equal(curves.columns, columns)
    assert curves.branch_jumps == jumps
    assert all(type(k) is int and type(i) is int for k, i in curves.branch_jumps)
    assert greedy_calls.call_count == len(greedy)
    return curves, greedy


def _case_input(make, case, flat=None):
    spec = make()
    _name, _steady, op = operating_point(spec, case, flat_voltage=flat)
    return spec, build_reduced_network(spec), op


def _no_symmetry_input(seed, n=20):
    rng = np.random.default_rng(seed)
    net = random_pd_network(rng, n)
    return synthetic_spec(n), net, random_operating_point(rng, n, flat=bool(seed % 2))


# the station's six inputs, two-bus, the WTG1-3 repro, grouped n = 20 grids
# and n = 20 grids without symmetry
@pytest.mark.parametrize("make", [
    *((lambda case=case, flat=flat: _case_input(
        lambda: load_system_spec(STATION_CFG_PATH), case, flat))
      for case in ("light", "heavy", "peak") for flat in (True, False)),
    *((lambda case=case, flat=flat: _case_input(
        lambda: parse_system_spec(TWO_BUS_CFG), case, flat))
      for case in ("inject", "absorb") for flat in (True, False)),
    lambda: _case_input(_repro_spec, "_repro"),
    *((lambda seed=seed: _case_input(lambda: grouped_grid_spec(seed), "base"))
      for seed in (0, 1)),
    *((lambda seed=seed: _no_symmetry_input(seed)) for seed in (0, 1)),
], ids=[*(f"station_{c}_{'flat' if f else 'solved'}" for c in ("light", "heavy", "peak")
          for f in (True, False)),
        *(f"two_bus_{c}_{'flat' if f else 'solved'}" for c in ("inject", "absorb")
          for f in (True, False)),
        "repro", "grouped0", "grouped1", "no_symmetry0", "no_symmetry1"])
def test_the_block_scan_matches_the_per_point_scan_bit_for_bit(make):
    _scan_both_ways(*make())


# grids that end inside the first block, on its last point, one past it, and
# one short of the second block's end (points 1.. are matched in blocks)
@pytest.mark.parametrize("make", [lambda: _case_input(
    lambda: load_system_spec(STATION_CFG_PATH), "heavy"),
    lambda: _case_input(_repro_spec, "_repro")], ids=["station", "repro"])
def test_the_block_scan_on_grids_around_the_block_length(make):
    spec, net, op = make()
    g = len(frequency_response._classes(net, op))
    b = _block_length(g)
    for m in sorted({2, 3, b, b + 1, b + 2, 2 * b - 1, 2 * b + 1}):
        curves, _greedy = _scan_both_ways(spec, net, op, np.linspace(0.5, 60.0, m))
        assert curves.m == m


def test_the_block_scan_takes_the_greedy_rule_inside_a_block_and_jumps_on_its_edge():
    # the n×n scan of the repro: its degenerate pair gives tied and shared
    # best overlaps and low overlaps, at points inside blocks and on the
    # first point of a block, whose overlaps use the carried eigenvectors
    spec, net, op = _case_input(_repro_spec, "_repro")
    with _full_scan():
        curves, greedy = _scan_both_ways(spec, net, op)
    b = _block_length(op.n)
    assert any((k - 1) % b for k in greedy)
    assert any((k - 1) % b == 0 for k, _i in curves.branch_jumps)


@pytest.mark.parametrize("make", [lambda: _case_input(
    lambda: load_system_spec(STATION_CFG_PATH), "heavy"),
    lambda: _case_input(lambda: grouped_grid_spec(0), "base")], ids=["station", "grouped0"])
def test_the_scan_solves_once_per_grid_point(make):
    spec, net, op = make()
    for m in (2, 17, 300, 1200):
        shapes, spy = _eig_shapes()
        with spy:
            trace_curves(spec, net, op, np.linspace(0.5, 60.0, m))
        assert len(shapes) == m


def _eig_inputs():
    """A spy for np.linalg.eig, and a copy of every array it is given (the
    scan overwrites each matrix with its eigenvectors)."""
    given = []
    eig = np.linalg.eig

    def spy(a):
        given.append(a.copy())
        return eig(a)

    return given, spy


# the station's heavy case (g = 5, blocks of 16) and the WTG1-3 repro (g = 3,
# blocks of 44)
@pytest.mark.parametrize("setpoints", [None, _REPRO], ids=["heavy", "identical_units"])
def test_the_scan_solves_the_matrix_that_loop_at_solves(setpoints):
    # one formula: a block of the scan and loop_at's stack of one hold the same
    # bits at a grid point, so loop_at's column restarts the branch the scan took
    given, spy = _eig_inputs()
    with mock.patch.object(np.linalg, "eig", spy):
        curves = _station_curves(setpoints)
    scan = given[:]
    assert len(scan) == curves.m and {a.ndim for a in scan} == {2}
    b = _block_length(len(curves._loop.sym.classes))
    for k in (1, b, b + 1, curves.m - 1):
        for i in (0, curves.n - 1):
            given.clear()
            with mock.patch.object(np.linalg, "eig", spy):
                curves.loop_at(k, i)
            (stack,) = given
            assert stack.shape == (1, *scan[k].shape)
            assert stack[0].tobytes() == scan[k].tobytes(), (k, i)


def test_a_point_the_scan_cannot_solve_names_its_own_frequency(monkeypatch):
    # a refused point inside a block, solved again alone, raises at its own f
    curves = _station_curves()
    sym, omega0 = curves._loop.sym, curves._loop.omega0
    k = _block_length(len(sym.classes)) + 3
    refused = -sym.s_p + 1j * (omega0 / curves.omega_rad_s[k]) * sym.s_q
    eig = np.linalg.eig

    def spy(a):
        if any(np.array_equal(m, refused) for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    with pytest.raises(AnalysisError) as exc:
        _station_curves()
    assert exc.value.code == "EIG_NOT_CONVERGED"
    assert f"f_hz = {curves.f_hz[k]:.12g}:" in str(exc.value)


def test_the_scan_transient_memory_does_not_grow_with_the_grid():
    spec, net, op = _case_input(lambda: load_system_spec(STATION_CFG_PATH), "heavy")

    def transient(m):
        grid = np.linspace(0.5, 60.0, m)
        tracemalloc.start()
        try:
            curves = trace_curves(spec, net, op, grid)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert curves.m == m
        return peak - held

    assert abs(transient(12_000) - transient(1200)) <= 8192


# ------------------------------------------ coded errors on any input

_EXTREMES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-150,
             1e150, 1e300, 1e308, -1e308, np.finfo(float).max]
_NUMBERS = st.sampled_from(_EXTREMES) | st.floats()
_FREQS = st.sampled_from(_EXTREMES) | st.floats(0.1, 100.0) | st.floats()
_POWERS = st.floats(-2.0, 2.0) | st.floats(-1e308, 1e308) | st.sampled_from(_EXTREMES)
_DTYPES = st.sampled_from([np.float64, np.float32, np.int64, np.uint8, np.complex128,
                           np.bool_, np.str_, object])
# grids and frequencies of any dtype, shape and order: ascending real rows
# often enough that a scan runs, everything else refused
_GRIDS = (st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8, unique=True).map(sorted)
          | st.lists(_FREQS, max_size=8).map(sorted)
          | st.lists(_FREQS, max_size=8)
          | hnp.arrays(_DTYPES, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4))
          | st.lists(st.lists(_FREQS, max_size=3), max_size=3)
          | st.none() | _FREQS)
_OMEGAS = (_FREQS | st.integers(-5, 10**30) | st.complex_numbers() | st.text(max_size=3)
           | st.none() | st.booleans() | st.lists(_FREQS, max_size=3)
           | hnp.arrays(_DTYPES, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)))


def _coded_or_result(call):
    """``call()``, or None when it raises a coded error; any other exception
    or any warning fails the example."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except SyncstabError as exc:
            event(exc.code)
            return None
    event("result")
    return result


@settings(max_examples=500, deadline=None)
@given(fmin=st.floats(0.1, 10.0) | _FREQS, fmax=st.floats(10.0, 100.0) | _FREQS,
       tol=st.floats(1e-12, 1.0) | _NUMBERS, p=_POWERS, q=_POWERS,
       points=st.integers(2, 30) | st.sampled_from([-2, 0, 1, MAX_SCAN_POINTS + 1, 2.5, 12.0,
                                                     True]),
       flat=st.booleans())
def test_run_analysis_on_any_options_and_setpoints_raises_only_coded_errors(
        fmin, fmax, tol, p, q, points, flat):
    spec = parse_system_spec(TWO_BUS_CFG)
    options = dataclasses.replace(spec.options, scan_fmin_hz=fmin, scan_fmax_hz=fmax,
                                  scan_points=points, root_tol_hz=tol)
    spec = dataclasses.replace(spec, options=options).with_case("x", {"C1": PowerSetpoint(p, q)})
    result = _coded_or_result(lambda: run_analysis(spec, "x", flat_voltage=flat))
    if result is not None:
        assert result.curves.m == points


@settings(max_examples=300, deadline=None)
@given(grid=_GRIDS, p=_POWERS, q=_POWERS)
def test_trace_curves_on_any_grid_raises_only_coded_errors(grid, p, q):
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    curves = _coded_or_result(lambda: trace_curves(spec, net, OperatingPoint([p], [q], [1.0]),
                                                   grid))
    if curves is not None:
        assert np.isfinite([curves.d_con, curves.k_con, curves.d_net[0], curves.k_net[0]]).all()


@settings(max_examples=300, deadline=None)
@given(omega=_OMEGAS, p=_POWERS, q=_POWERS)
def test_modal_weights_at_any_omega_raises_only_coded_errors(omega, p, q):
    net = ReducedNetwork.from_b_matrix(np.array([[1.0 / 0.3]]))
    weights = _coded_or_result(lambda: modal_weights(net, OperatingPoint([p], [q], [1.0]),
                                                     omega, W0))
    if weights is not None:
        assert np.isfinite(weights.eta).all()


@functools.cache
def _coarse_plant(name):
    """The station or a grouped n = 20 grid, scanned at 60 points."""
    spec = load_system_spec(STATION_CFG_PATH) if name == "station" else grouped_grid_spec(0)
    return dataclasses.replace(spec, options=dataclasses.replace(spec.options, scan_points=60))


_INDUCTANCES = (st.floats(0.01, 0.1) | st.sampled_from(_EXTREMES) | st.floats()
                | st.sampled_from([-0.05, 1e-320, 1e-308, "a", "0.05", None, 1j, True]))


@settings(max_examples=200, deadline=None)
@given(plant=st.sampled_from(["station", "grouped"]), data=st.data(), flat=st.booleans(),
       tol=st.floats(1e-9, 1.0) | _NUMBERS)
def test_a_multi_converter_plant_built_in_code_raises_only_coded_errors(plant, data, flat,
                                                                        tol):
    # each layer called directly, on branches, setpoints and a tolerance set in code
    spec = _coarse_plant(plant)
    branches = list(spec.branches)
    for k, value in data.draw(st.lists(st.tuples(st.integers(0, len(branches) - 1),
                                                 _INDUCTANCES), max_size=3)):
        branches[k] = dataclasses.replace(branches[k], inductance_pu=value)
    p, q = spec.case_injections()
    for k, p_k, q_k in data.draw(st.lists(st.tuples(st.integers(0, len(p) - 1), _POWERS,
                                                    _POWERS), max_size=3)):
        p[k], q[k] = p_k, q_k
    spec = dataclasses.replace(spec, branches=tuple(branches),
                               options=dataclasses.replace(spec.options, root_tol_hz=tol))
    net = _coded_or_result(lambda: build_reduced_network(spec))
    steady = _coded_or_result(lambda: solve_steady_state(spec, p, q, flat_voltage=flat))
    if net is None or steady is None:
        return
    op = _coded_or_result(lambda: OperatingPoint(p, q, steady.u_pu))
    curves = op and _coded_or_result(lambda: trace_curves(spec, net, op))
    report = curves and _coded_or_result(lambda: assess(spec, curves))
    if report is not None and report.critical is not None:
        assert np.isfinite(report.margin)
        weights = _coded_or_result(
            lambda: modal_weights_from_report(net, op, report, spec.omega0))
        assert weights is None or np.isfinite(weights.eta).all()


# ----------------------------------------------- the certified crossing window

def _with_options(spec, **options):
    return dataclasses.replace(spec, options=dataclasses.replace(spec.options, **options))


def _crossings(report):
    """Every crossing of ``report``, bit for bit, whatever its branch number."""
    return sorted((c.f_ci, c.net_damping, c.lam, c.phi.tobytes())
                  for a in report.per_subsystem for c in a.crossings)


def _same_report(window, full):
    """The windowed report against the full scan's: the same crossings and
    the same critical crossing and verdict."""
    assert window.verdict == full.verdict
    assert _crossings(window) == _crossings(full)
    if full.critical is None:
        assert window.critical is None
        return
    w, f = window.critical, full.critical
    assert (w.d_net1, w.f_c1, w.margin, w.d_con_at_c1, w.lam1) == (
        f.d_net1, f.f_c1, f.margin, f.d_con_at_c1, f.lam1)
    np.testing.assert_array_equal(w.phi, f.phi)


def _assert_window_holds(spec, net, op) -> int:
    """The full scan's sign-change cells and exact zeros all lie in the
    window, the window is a slice of the scan's own floats, and the windowed
    report equals the full one; returns the number of crossings."""
    curves = trace_curves(spec, net, op)
    window = crossing_window(spec, net, op)
    a = int(np.searchsorted(curves.f_hz, window[0])) if len(window) else 0
    b = a + len(window) - 1
    np.testing.assert_array_equal(window, curves.f_hz[a:b + 1])
    for i in range(curves.n):
        g = curves.k_con + curves.k_net[i]
        zero, neg = g == 0.0, g < 0.0
        cells = np.flatnonzero((neg[:-1] != neg[1:]) & ~zero[:-1] & ~zero[1:])
        assert all(a <= k and k + 1 <= b for k in cells), (i, cells, a, b)
        assert all(a <= k <= b for k in np.flatnonzero(zero)), (i, a, b)
    full = assess(spec, curves)
    _same_report(assess_point(spec, net, op), full)
    return sum(len(s.crossings) for s in full.per_subsystem)


_STATION_INPUTS = [("station", case, flat) for case in ("light", "heavy", "peak")
                   for flat in (True, False)]
_TWO_BUS_INPUTS = [("two_bus", case, flat) for case in ("inject", "absorb")
                   for flat in (True, False)]


@pytest.mark.parametrize("plant, case, flat", _STATION_INPUTS + _TWO_BUS_INPUTS)
def test_every_crossing_of_the_full_scan_lies_in_the_window(plant, case, flat):
    spec = (load_system_spec(STATION_CFG_PATH) if plant == "station"
            else parse_system_spec(TWO_BUS_CFG))
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, case, flat_voltage=flat)
    assert _assert_window_holds(spec, net, op) == (5 if plant == "station" else 1)
    assert len(crossing_window(spec, net, op)) < spec.options.scan_points / 40


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_crossing_of_a_grouped_grid_lies_in_the_window(seed):
    spec = grouped_grid_spec(seed)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec)
    assert _assert_window_holds(spec, net, op) == 20


def test_every_crossing_of_an_ensemble_sample_lies_in_the_window():
    from test_acceptance import ensemble
    sample = ensemble()[::8]                      # 125 members, spread voltages
    crossings = 0
    for net, op, _flat, _omegas in sample:
        spec = synthetic_spec(op.n)
        try:
            crossings += _assert_window_holds(spec, net, op)
        except SyncstabError as exc:
            with pytest.raises(SyncstabError) as window:
                assess_point(spec, net, op)
            assert window.value.code == exc.code
    assert len(sample) >= 100
    assert crossings >= len(sample)


def test_a_cell_that_h_jumps_across_is_kept():
    # three grid points: h falls from ~1 to ~-7.8 across each cell, while the
    # range of S_Q (1 × 1) is the single value 0.3·Q/U²
    spec = _with_options(parse_system_spec(TWO_BUS_CFG), scan_points=3)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "inject")
    window = crossing_window(spec, net, op)
    assert len(window) == 2
    q_range = np.linalg.eigvalsh(sym_parts(net, op)[1])
    omega = 2 * np.pi * window
    h = -gamma(omega, float(np.mean(op.u_pu)), KP, KI, W0).imag * omega / W0
    assert h[1] < q_range[0] <= q_range[-1] < h[0]
    assert _assert_window_holds(spec, net, op) == 1


def _mixed(spec):
    first, *rest = spec.converters
    return dataclasses.replace(spec, converters=(dataclasses.replace(first, pll_kp=7.0),
                                                 *rest))


def _two_bus_point(q=0.1, **options):
    spec = _with_options(parse_system_spec(TWO_BUS_CFG), **options)
    return spec, build_reduced_network(spec), OperatingPoint([0.5], [q], [1.0])


def _station_point(**options):
    spec = _with_options(load_system_spec(STATION_CFG_PATH), **options)
    _name, _steady, op = operating_point(spec, "heavy")
    return spec, build_reduced_network(spec), op


# each input has two faults or more; the first in the scan's order is raised
_ERROR_CASES = {
    "scan_points before the gains": (
        lambda: _station_point(scan_points=1), _mixed, "SCAN_POINTS_INVALID"),
    "the gains before gamma": (
        lambda: _station_point(scan_fmin_hz=1e-310), _mixed, "NONIDENTICAL_PLL"),
    "gamma before sym_parts": (
        lambda: (*_station_point(scan_fmin_hz=1e-310)[:2], OperatingPoint([1.0], [0.0], [1.0])),
        None, "DEGENERATE_FREQ"),
    "sym_parts": (
        lambda: (*_station_point()[:2], OperatingPoint([1.0], [0.0], [1.0])), None,
        "OP_INVALID"),
    # the window is empty (S_Q = 9e149), yet (ω0/ω)·S_Q passes 1e300 at 1e-150 Hz
    "the scale at the grid's lowest point": (
        lambda: _two_bus_point(q=3e150, scan_fmin_hz=1e-150), None, "DEGENERATE_FREQ"),
    "the tolerance last, also with an empty window": (
        lambda: _two_bus_point(q=10.0), lambda s: _with_options(s, root_tol_hz=0.0),
        "ROOT_TOL_INVALID"),
}


@pytest.mark.parametrize("case", list(_ERROR_CASES))
def test_the_window_raises_the_full_scans_error_in_its_order(case):
    make, change, code = _ERROR_CASES[case]
    spec, net, op = make()
    spec = change(spec) if change else spec
    with pytest.raises(SyncstabError) as full:
        assess(spec, trace_curves(spec, net, op))
    with pytest.raises(SyncstabError) as window:
        assess_point(spec, net, op)
    assert full.value.code == window.value.code == code
    assert str(full.value) == str(window.value)
    if code != "ROOT_TOL_INVALID":
        with pytest.raises(SyncstabError) as helper:
            crossing_window(spec, net, op)
        assert str(helper.value) == str(full.value)
    else:
        assert len(crossing_window(spec, net, op)) == 0


@pytest.mark.parametrize("force", [False, True])
def test_an_empty_window_is_no_crossing_without_an_eigensolve(monkeypatch, force):
    # above 30 Hz the station's spring sums keep one sign
    spec = _with_options(load_system_spec(STATION_CFG_PATH), scan_fmin_hz=30.0)
    spec = _mixed(spec) if force else spec
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, "heavy")
    full = assess(spec, trace_curves(spec, net, op, force_first_pll=force))
    assert full.verdict == "NoCrossing"
    eig = np.linalg.eig
    solves = []
    monkeypatch.setattr(np.linalg, "eig", lambda a: solves.append(a) or eig(a))
    report = assess_point(spec, net, op, force_first_pll=force)
    assert solves == []
    assert report.verdict == "NoCrossing" and report.margin is None
    assert report.per_subsystem == full.per_subsystem
    assert report.notes == full.notes and len(report.notes) == 1 + force


@pytest.mark.parametrize("field, value, code", [
    ("root_tol_hz", "a", "ROOT_TOL_INVALID"),
    ("root_tol_hz", True, "ROOT_TOL_INVALID"),
    ("scan_fmin_hz", "1", "SCAN_RANGE_INVALID"),
    ("scan_fmax_hz", True, "SCAN_RANGE_INVALID"),
    ("flat_voltage", "no", "FLAT_VOLTAGE_INVALID"),
])
def test_options_that_are_not_numbers_are_refused_with_a_code(field, value, code):
    spec = _with_options(parse_system_spec(TWO_BUS_CFG), **{field: value})
    _s, net, op = _two_bus_point()
    for call in (lambda: run_analysis(spec, "inject"),
                 lambda: trace_curves(spec, net, op),
                 lambda: crossing_window(spec, net, op),
                 lambda: assess_point(spec, net, op)):
        with pytest.raises(SyncstabError) as exc:
            call()
        assert exc.value.code == code


def test_a_force_first_pll_that_is_not_a_bool_is_refused_with_a_code():
    # "no" and 1 used to force converter 1's gains on a plant of mixed gains,
    # and None used to raise NONIDENTICAL_PLL
    spec, net, op = _station_point()
    spec = _mixed(spec)
    calls = {
        "resolve_pll_gains": lambda force: resolve_pll_gains(spec, force_first_pll=force),
        "trace_curves": lambda force: trace_curves(spec, net, op, force_first_pll=force),
        "crossing_window": lambda force: crossing_window(spec, net, op, force_first_pll=force),
        "assess_point": lambda force: assess_point(spec, net, op, force_first_pll=force),
        "run_analysis": lambda force: run_analysis(spec, "heavy", force_first_pll=force),
        "adjustment_compare": lambda force: adjustment_compare(spec, net, op, op.p_pu,
                                                               force_first_pll=force),
    }
    for name, call in calls.items():
        for force in ("no", 1, None):
            with pytest.raises(SyncstabError) as exc:
                call(force)
            assert exc.value.code == "FORCE_FIRST_PLL_INVALID", (name, force)
            assert repr(force) in str(exc.value)
    # refused whatever the gains
    with pytest.raises(SyncstabError) as exc:
        resolve_pll_gains(parse_system_spec(TWO_BUS_CFG), force_first_pll="no")
    assert exc.value.code == "FORCE_FIRST_PLL_INVALID"
    # a NumPy bool is a bool
    kp, _ki, notes = calls["resolve_pll_gains"](np.True_)
    assert kp == 7.0 and len(notes) == 1
    full = assess(spec, calls["trace_curves"](np.True_))
    assert full.verdict in ("Stable", "Unstable", "Marginal")
    assert len(calls["crossing_window"](np.True_)) == len(crossing_window(
        spec, net, op, force_first_pll=True)) > 0
    _same_report(calls["assess_point"](np.True_), full)
    _same_report(calls["run_analysis"](np.True_).report, full)
    _same_report(calls["adjustment_compare"](np.True_).before, full)


_ONE_LOOP_INPUTS = [(case, flat, None) for case in ("light", "heavy", "peak")
                    for flat in (True, False)] + [("heavy", True, 30.0)]


@pytest.mark.parametrize("case, flat, fmin", _ONE_LOOP_INPUTS)
def test_assess_point_resolves_the_gains_and_splits_the_loop_once(monkeypatch, case, flat,
                                                                  fmin):
    # the window is read off the point's one loop, which the scan then runs on;
    # above 30 Hz the window is empty
    spec = load_system_spec(STATION_CFG_PATH)
    spec = _with_options(spec, scan_fmin_hz=fmin) if fmin else spec
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, case, flat_voltage=flat)
    window = crossing_window(spec, net, op)
    own = frequency_response._Loop(spec, net, op, window, False) if len(window) else None
    calls = dict.fromkeys(("resolve_pll_gains", "sym_parts", "_classes"), 0)
    for name in calls:
        def spy(*args, _name=name, _call=getattr(frequency_response, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        for module in (frequency_response, pipeline):
            monkeypatch.setattr(module, name, spy, raising=False)
    scanned = []
    monkeypatch.setattr(pipeline, "_scan", lambda loop: scanned.append(loop) or
                        frequency_response._scan(loop))
    report = assess_point(spec, net, op)
    assert calls == dict.fromkeys(calls, 1)
    assert (report.verdict == "NoCrossing") == (own is None)
    # the scan sees the window only, as copies, so the full grid is freed first;
    # the window's Γ is the one a loop of the window alone computes
    (loop,) = scanned
    assert loop.f_hz.tobytes() == window.tobytes()
    assert loop.f_hz.base is None and loop.omega.base is None and loop.gamma.base is None
    if own is not None:
        assert (loop.omega.tobytes(), loop.gamma.tobytes()) == (own.omega.tobytes(),
                                                                own.gamma.tobytes())
