"""Modal weights, sensitivities, finite-difference checks, adjustments.

Independent facts used as oracles:
* Scalar system: the (single) weight is eta = L/U^2 = 1/(b U^2), because
  phi = 1, phi_B = B^(-1/2) = sqrt(L).
* Exact Rayleigh-quotient identities for any unit eigenvector phi of the
  symmetrized response: Re lambda = -sum eta_i P_i, Im lambda = (w0/w) *
  sum eta_i Q_i, with eta_i = |(B^(-1/2) phi)_i|^2 / U_i^2 >= 0.
* B-weighted normalization: phi_B* B phi_B = phi* phi = 1.
"""
from __future__ import annotations

import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from syncstab import modal
from syncstab.config import PowerSetpoint, load_system_spec, parse_system_spec
from syncstab.errors import AnalysisError, SyncstabError
from syncstab.frequency_response import OperatingPoint, build_gnet_sym, trace_curves
from syncstab.modal import (_weights, adjustment_compare, finite_difference_check,
                            modal_weights, modal_weights_from_report,
                            sensitivities)
from syncstab.network import build_reduced_network
from syncstab.pipeline import operating_point, run_analysis
from syncstab.stability import MARGINAL, STABLE, UNSTABLE, assess

from conftest import (KI, KP, STATION_CFG_PATH, TWO_BUS_CFG, random_operating_point,
                      random_pd_network, synthetic_spec)

W0 = 2 * np.pi * 50


def test_scalar_eta_closed_form():
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    curves = trace_curves(spec, net, op)
    report = assess(spec, curves)
    w = modal_weights_from_report(net, op, report, W0)
    assert w.eta[0] == pytest.approx(0.3, abs=1e-12)
    assert abs(w.phi[0]) == pytest.approx(1.0, abs=1e-12)
    # scaled voltage: eta = L/U^2
    op2 = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([0.9]))
    curves2 = trace_curves(spec, net, op2)
    report2 = assess(spec, curves2)
    w2 = modal_weights_from_report(net, op2, report2, W0)
    assert w2.eta[0] == pytest.approx(0.3 / 0.81, rel=1e-10)


def test_rayleigh_identities_ensemble():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        net = random_pd_network(rng, n)
        op = random_operating_point(rng, n, flat=False)
        w = 2 * np.pi * rng.uniform(0.5, 60.0)
        weights = modal_weights(net, op, w, W0)
        lam = weights.lam1
        assert np.all(weights.eta >= 0)
        assert lam.real == pytest.approx(-(weights.eta @ op.p_pu), abs=1e-9)
        assert lam.imag == pytest.approx(
            (W0 / w) * (weights.eta @ op.q_pu), abs=1e-9)
        # B-weighted normalization of the back-transformed eigenvector
        quad = weights.phi_b1.conj() @ net.b_matrix @ weights.phi_b1
        assert quad.real == pytest.approx(1.0, abs=1e-9)
        assert quad.imag == pytest.approx(0.0, abs=1e-9)


def test_eta_phase_invariance():
    # eta must not depend on the arbitrary phase of the eigenvector; check by
    # validating eta against an independently computed eigenvector from the
    # raw symmetrized matrix
    rng = np.random.default_rng(77)
    net = random_pd_network(rng, 5)
    op = random_operating_point(rng, 5)
    w = 2 * np.pi * 24.0
    weights = modal_weights(net, op, w, W0)
    g = build_gnet_sym(w, net, op, W0)
    vals, vecs = np.linalg.eig(g)
    k = int(np.argmin(np.abs(vals - weights.lam1)))
    phi = vecs[:, k] / np.linalg.norm(vecs[:, k])
    phi = phi * np.exp(1j * 0.83)  # arbitrary global phase
    phi_b = net.b_inv_sqrt @ phi
    eta = np.abs(phi_b) ** 2 / op.u_pu ** 2
    np.testing.assert_allclose(eta, weights.eta, atol=1e-9)


def test_modal_weights_reference_vector_selection():
    # supplying the report's eigenvector keeps the same branch; omitting it
    # falls back to the minimum-real-part eigenvalue
    rng = np.random.default_rng(15)
    net = random_pd_network(rng, 4)
    op = random_operating_point(rng, 4)
    spec = synthetic_spec(4, scan_points=600)
    curves = trace_curves(spec, net, op)
    report = assess(spec, curves)
    if report.critical is None:
        pytest.skip("no crossing for this draw")
    via_report = modal_weights_from_report(net, op, report, W0)
    direct = modal_weights(net, op, report.critical.omega_c1, W0)
    assert via_report.lam1 == pytest.approx(report.critical.lam1, abs=1e-9)
    # the min-Re fallback agrees here because the critical branch is minimal
    assert direct.lam1.real <= via_report.lam1.real + 1e-12


# the station's heavy case flat and solved, and the degenerate repro with
# WTG1-3 (three identical units on one collector) at one setpoint
@pytest.mark.parametrize("flat,setpoints", [
    (True, None),
    (False, None),
    (None, {name: PowerSetpoint(0.9, 0.1) for name in ("WTG1", "WTG2", "WTG3")}),
], ids=["heavy_flat", "heavy_solved", "identical_units"])
def test_weights_read_off_the_critical_crossing(station_path, monkeypatch,
                                                flat, setpoints):
    spec, case = load_system_spec(station_path), "heavy"
    if setpoints is not None:
        p, q = spec.case_injections(case)
        block = {name: PowerSetpoint(p[i], q[i])
                 for i, name in enumerate(spec.converter_names)}
        spec, case = spec.with_case("_repro", {**block, **setpoints}), "_repro"
    result = run_analysis(spec, case, flat_voltage=flat)
    net, op, c = result.net, result.op, result.report.critical
    _g, lam, phi = result.curves.loop(c.omega_c1, c.phi)
    resolved = _weights(net, op, c.omega_c1, spec.omega0, lam, phi)

    def refuse(*args, **kwargs):
        raise AssertionError("the weights solved an eigenproblem again")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    weights = modal_weights_from_report(net, op, result.report, spec.omega0)
    assert weights.lam1 == resolved.lam1
    for name in ("eta", "eta_complex", "phi", "phi_b1"):
        np.testing.assert_array_equal(getattr(weights, name), getattr(resolved, name))


def test_sensitivities_structure():
    rng = np.random.default_rng(4)
    net = random_pd_network(rng, 3)
    op = random_operating_point(rng, 3)
    weights = modal_weights(net, op, 2 * np.pi * 20.0, W0)
    sens = sensitivities(weights)
    np.testing.assert_allclose(sens.dd_dp, -weights.eta, atol=1e-15)
    np.testing.assert_allclose(sens.dd_dq, 0.0, atol=1e-15)
    assert sens.dominant == int(np.argmax(weights.eta))
    assert np.all(sens.dd_dp <= 0)


def test_finite_difference_scalar_exact():
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    check = finite_difference_check(spec, net, op, 0)
    assert check.rel_err < 1e-6
    assert check.predicted == pytest.approx(-0.3, abs=1e-10)


def test_finite_difference_multivariable():
    rng = np.random.default_rng(123)
    rel_errs = []
    tried = 0
    while len(rel_errs) < 8 and tried < 40:
        tried += 1
        n = int(rng.integers(2, 6))
        net = random_pd_network(rng, n)
        op = random_operating_point(rng, n)
        spec = synthetic_spec(n, scan_points=500)
        try:
            check = finite_difference_check(spec, net, op, int(rng.integers(n)))
        except AnalysisError:
            continue  # no crossing in band for this draw
        rel_errs.append(check.rel_err)
    assert len(rel_errs) >= 8
    assert float(np.median(rel_errs)) < 0.1


def test_finite_difference_rejects_mixed_pll_gains(station_path):
    # no force option: the check runs only on a system with one shared PLL
    with open(station_path, encoding="utf-8") as fh:
        spec = parse_system_spec(fh.read().replace("WTG3 wtg3 6.5 15782",
                                                   "WTG3 wtg3 7.0 15782"))
    net = build_reduced_network(spec)
    p, q = spec.case_injections("heavy")
    op = OperatingPoint(p, q, np.ones(spec.n_converters))
    with pytest.raises(AnalysisError) as info:
        finite_difference_check(spec, net, op, 0)
    assert info.value.code == "NONIDENTICAL_PLL"


@pytest.mark.parametrize("i", [1.5, True, np.float64(0.0), "0", None, [0]])
def test_finite_difference_refuses_an_index_that_is_not_an_integer(i):
    spec, net, op = _adjustable("station")
    with pytest.raises(AnalysisError) as info:
        finite_difference_check(spec, net, op, i)
    assert info.value.code == "OP_INVALID"


def test_weights_from_another_plants_report_are_op_invalid():
    spec, net, op = _adjustable("station")
    report = assess(spec, trace_curves(spec, net, op))
    _spec2, net2, op2 = _adjustable("two_bus")
    for other_net, other_op in ((net2, op2), (net, op2), (net2, op)):
        with pytest.raises(AnalysisError) as info:
            modal_weights_from_report(other_net, other_op, report, spec.omega0)
        assert info.value.code == "OP_INVALID"


def test_adjustment_scalar_flip():
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    before = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    cmp = adjustment_compare(spec, net, before, np.array([-0.5]))
    assert cmp.before.verdict == "Unstable"
    assert cmp.after.verdict == "Stable"
    assert cmp.before.critical.d_net1 == pytest.approx(-0.15, abs=1e-10)
    assert cmp.after.critical.d_net1 == pytest.approx(+0.15, abs=1e-10)
    assert cmp.improvement
    assert cmp.positive_inertia_before == 1
    assert cmp.positive_inertia_after == 0
    np.testing.assert_allclose(cmp.per_converter_delta_p, [-1.0], atol=1e-15)


def test_adjustment_identity_is_noop():
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    cmp = adjustment_compare(spec, net, op, op.p_pu)
    assert cmp.before.critical.d_net1 == cmp.after.critical.d_net1
    assert cmp.before.critical.margin == cmp.after.critical.margin
    assert not cmp.improvement


def test_adjustment_first_order_prediction():
    # small delta P: the change in D_net1 matches -eta . dP to first order
    rng = np.random.default_rng(8)
    net = random_pd_network(rng, 3)
    op = random_operating_point(rng, 3)
    spec = synthetic_spec(3, scan_points=600)
    curves = trace_curves(spec, net, op)
    report = assess(spec, curves)
    if report.critical is None:
        pytest.skip("no crossing for this draw")
    weights = modal_weights_from_report(net, op, report, W0)
    dp = np.array([0.02, -0.01, 0.005])
    cmp = adjustment_compare(spec, net, op, op.p_pu + dp)
    predicted = -(weights.eta @ dp)
    actual = cmp.after.critical.d_net1 - cmp.before.critical.d_net1
    assert actual == pytest.approx(predicted, abs=2e-4 + 0.15 * abs(predicted))


@cache
def _adjustable(name: str):
    """(spec, net, op) at flat voltage, on a 150-point scan to keep examples cheap."""
    if name == "two_bus":
        spec, case = parse_system_spec(TWO_BUS_CFG), "inject"
    else:
        spec, case = load_system_spec(STATION_CFG_PATH), "heavy"
    spec = replace(spec, options=replace(spec.options, scan_points=150))
    _case, _steady, op = operating_point(spec, case, flat_voltage=True)
    return spec, build_reduced_network(spec), op


_P_ENTRY = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]) | st.floats(-2.0, 2.0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_adjustment_compare_raises_only_coded_errors(data):
    spec, net, op = _adjustable(data.draw(st.sampled_from(["two_bus", "station"])))
    lengths = st.integers(0, op.n + 1)
    shape = data.draw(st.just(()) | st.tuples(lengths) | st.tuples(lengths, lengths))
    size = math.prod(shape)
    p_after = np.array(data.draw(st.lists(_P_ENTRY, min_size=size, max_size=size)),
                       dtype=float).reshape(shape)
    fits = np.atleast_1d(p_after).shape == (op.n,) and np.isfinite(p_after).all()
    try:
        cmp = adjustment_compare(spec, net, op, p_after)
    except SyncstabError as exc:
        event(exc.code)
        assert fits or exc.code == "OP_INVALID"
        return
    assert fits
    assert cmp.after.verdict in (STABLE, UNSTABLE, MARGINAL)


# ES1 = 1e308 puts entries near 1e307 into S_P, whose squared norm overflows;
# 1e150 keeps it finite
@pytest.mark.parametrize("name,p0,coded", [("station", 1e308, True), ("two_bus", 1e200, True),
                                           ("station", 1e150, False)])
def test_powers_whose_norm_overflows_are_op_invalid(name, p0, coded):
    spec, net, op = _adjustable(name)
    p_after = op.p_pu.copy()
    p_after[0] = p0
    if not coded:        # runtime warnings are errors here, so this one raised none
        assert adjustment_compare(spec, net, op, p_after).after.verdict == UNSTABLE
        return
    with pytest.raises(AnalysisError) as exc:
        adjustment_compare(spec, net, op, p_after)
    assert exc.value.code == "OP_INVALID"


@pytest.mark.parametrize("case, flat", [("heavy", True), ("heavy", False), ("peak", False)])
def test_the_finite_difference_check_equals_the_full_grids_bit_for_bit(monkeypatch, case,
                                                                       flat):
    spec = load_system_spec(STATION_CFG_PATH)
    net = build_reduced_network(spec)
    _name, _steady, op = operating_point(spec, case, flat_voltage=flat)
    window = [finite_difference_check(spec, net, op, i) for i in range(op.n)]
    monkeypatch.setattr(modal, "assess_point",
                        lambda spec, net, op, force_first_pll: assess(
                            spec, trace_curves(spec, net, op, force_first_pll=force_first_pll)))
    assert [finite_difference_check(spec, net, op, i) for i in range(op.n)] == window
