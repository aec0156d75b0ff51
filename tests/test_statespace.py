"""State-space oracle: assembly, modes, simulation.

Independent oracles:
* P = Q = 0 decouples every converter; each contributes the pair of roots of
  s^2 + kp*U*s + ki*U = 0 (for U = 1, kp = 6.5, ki = 15782: -3.25 +- j125.584).
* Scalar characteristic polynomial with loading (derived by eliminating x
  from the two-state loop with the +M_P/+M_Q closure):
      s^2*(w0 - U*kp*M_P) + s*(w0*U*kp - U*ki*M_P - w0*U*kp*M_Q)
        + w0*U*ki*(1 - M_Q) = 0,   M_P = P*L/U^2, M_Q = Q*L/U^2
  whose Routh boundary is exactly M_P = (w0*kp/ki)*(1 - M_Q): the same
  boundary as the net-damping criterion.  This cross-model identity is the
  strongest scalar consistency check available.
"""
from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncstab.config import load_system_spec, parse_system_spec
from syncstab.errors import AnalysisError
from syncstab.frequency_response import OperatingPoint, trace_curves
from syncstab.network import ReducedNetwork, build_reduced_network
from syncstab.pipeline import run_analysis, run_oracle
from syncstab.stability import CriticalPoint, StabilityReport, assess
from syncstab.statespace import (AnglePulse, CrossCheck, DominantMode, ModeSet,
                                 assemble_state_space, crosscheck, modes, simulate)

from conftest import (KI, KP, TWO_BUS_CFG, random_operating_point,
                      random_pd_network)

W0 = 2 * np.pi * 50


def _scalar_ss(p, q=0.0, u=1.0, l_pu=0.3):
    net = ReducedNetwork.from_b_matrix(np.array([[1.0 / l_pu]]))
    op = OperatingPoint(np.array([p]), np.array([q]), np.array([u]))
    return assemble_state_space(net, op, KP, KI, W0)


def scalar_poly_roots(p, q=0.0, u=1.0, l_pu=0.3):
    m_p = p * l_pu / u**2
    m_q = q * l_pu / u**2
    a = W0 - u * KP * m_p
    b = W0 * u * KP - u * KI * m_p - W0 * u * KP * m_q
    c = W0 * u * KI * (1 - m_q)
    return np.roots([a, b, c])


def test_unloaded_modes_closed_form():
    ss = _scalar_ss(0.0)
    ms = modes(ss)
    expect = np.roots([1.0, KP, KI])  # s^2 + kp s + ki
    got = sorted(ms.eigenvalues, key=lambda z: z.imag)
    exp = sorted(expect, key=lambda z: z.imag)
    np.testing.assert_allclose(got, exp, atol=1e-9)
    assert ms.dominant is not None
    assert ms.dominant.sigma == pytest.approx(-3.25, abs=1e-9)
    assert abs(ms.eigenvalues[0].imag) == pytest.approx(125.5844, abs=1e-3)
    assert ms.dominant.f_hz == pytest.approx(19.99, abs=0.01)


def test_unloaded_block_structure():
    # with P = Q = 0: theta' = -kp*U*theta + x + kp*U*d ; x' = -ki*U*theta + ki*U*d
    u = 0.93
    ss = _scalar_ss(0.0, u=u)
    np.testing.assert_allclose(
        ss.a_matrix, [[-KP * u, 1.0], [-KI * u, 0.0]], atol=1e-12)
    np.testing.assert_allclose(ss.b_pulse, [KP * u, KI * u], atol=1e-12)
    np.testing.assert_allclose(ss.b_omega, [KP * u], atol=1e-12)
    assert ss.labels == ("theta_c1", "x_c1")


@pytest.mark.parametrize("p, q", [(0.3, 0.0), (0.6, 0.2), (-0.5, -0.1),
                                  (0.43, 0.0), (0.9, 0.4)])
def test_scalar_loaded_modes_match_characteristic_polynomial(p, q):
    ss = _scalar_ss(p, q)
    got = sorted(modes(ss).eigenvalues, key=lambda z: (z.imag, z.real))
    exp = sorted(scalar_poly_roots(p, q), key=lambda z: (z.imag, z.real))
    np.testing.assert_allclose(got, exp, atol=1e-8)


def test_scalar_stability_boundary_matches_criterion():
    # boundary M_P = (w0 kp/ki)(1 - M_Q) <=> P* = (w0 kp/ki) U^2/L * (1 - M_Q)
    p_star = (W0 * KP / KI) / 0.3
    for eps, sign in ((-1e-3, -1), (1e-3, +1)):
        ss = _scalar_ss(p_star + eps)
        dom = modes(ss).dominant
        assert np.sign(dom.sigma) == sign
    # on the boundary the real part collapses toward zero
    dom0 = modes(_scalar_ss(p_star)).dominant
    assert abs(dom0.sigma) < 1e-6


def test_modes_sorted_and_conjugate_closed():
    rng = np.random.default_rng(31)
    net = random_pd_network(rng, 4)
    op = random_operating_point(rng, 4)
    ss = assemble_state_space(net, op, KP, KI, W0)
    ms = modes(ss)
    vals = np.array(ms.eigenvalues)
    assert len(vals) == 8
    # conjugate closure (A real)
    for z in vals:
        assert np.min(np.abs(vals - np.conj(z))) < 1e-9
    # dominant = max real part among oscillatory modes
    osc = vals[np.abs(vals.imag) > 2 * np.pi * 0.5]
    assert ms.dominant.sigma == pytest.approx(osc.real.max(), abs=1e-12)


def test_eigenvalues_invariant_under_converter_permutation():
    rng = np.random.default_rng(13)
    net = random_pd_network(rng, 3)
    op = random_operating_point(rng, 3)
    perm = np.array([2, 0, 1])
    net_p = ReducedNetwork.from_b_matrix(net.b_matrix[np.ix_(perm, perm)])
    op_p = OperatingPoint(op.p_pu[perm], op.q_pu[perm], op.u_pu[perm])
    v1 = np.sort_complex(np.array(modes(
        assemble_state_space(net, op, KP, KI, W0)).eigenvalues))
    v2 = np.sort_complex(np.array(modes(
        assemble_state_space(net_p, op_p, KP, KI, W0)).eigenvalues))
    np.testing.assert_allclose(v1, v2, atol=1e-8)


def test_simulate_zero_disturbance_stays_zero():
    ss = _scalar_ss(0.4)
    sim = simulate(ss, None, dt=1e-3, duration=0.5)
    assert np.all(sim.theta == 0) and np.all(sim.omega == 0)
    assert np.all(sim.dp == 0)
    assert sim.t_s[0] == 0.0
    assert sim.t_s[-1] == pytest.approx(0.5, abs=1e-9)


def test_simulate_growth_rate_matches_sigma():
    # unstable scalar case: post-pulse envelope grows like exp(sigma t)
    p = 0.55
    ss = _scalar_ss(p)
    dom = modes(ss).dominant
    assert dom.sigma > 0
    sim = simulate(ss, AnglePulse(start_s=0.2, width_s=0.02, amplitude_rad=0.1),
                   dt=1e-4, duration=2.2)
    y = np.abs(sim.theta[:, 0])
    t = sim.t_s
    # fit log envelope via peaks over two disjoint windows
    def peak(lo, hi):
        w = (t >= lo) & (t < hi)
        return float(np.max(y[w]))
    t1, t2 = (0.5, 0.7), (1.8, 2.0)
    g_meas = (np.log(peak(*t2)) - np.log(peak(*t1))) / (np.mean(t2) - np.mean(t1))
    assert g_meas == pytest.approx(dom.sigma, rel=0.05)


def test_simulate_decay_for_stable_case():
    ss = _scalar_ss(-0.4)
    dom = modes(ss).dominant
    assert dom.sigma < 0
    sim = simulate(ss, AnglePulse(start_s=0.1, width_s=0.02, amplitude_rad=0.1),
                   dt=1e-4, duration=1.5)
    y = np.abs(sim.theta[:, 0])
    t = sim.t_s
    early = y[(t > 0.2) & (t < 0.4)].max()
    late = y[(t > 1.2) & (t < 1.4)].max()
    assert late < 0.2 * early


def test_simulate_output_identities():
    # dp = P~ * delta, delta = M_P omega/w0 + M_Q theta must hold pointwise
    p, q, l_pu = 0.5, 0.2, 0.3
    ss = _scalar_ss(p, q, l_pu=l_pu)
    sim = simulate(ss, AnglePulse(start_s=0.05, width_s=0.02, amplitude_rad=0.1),
                   dt=1e-3, duration=0.3)
    m_p = p * l_pu
    m_q = q * l_pu
    delta = m_p * sim.omega[:, 0] / W0 + m_q * sim.theta[:, 0]
    np.testing.assert_allclose(sim.dp[:, 0], p * delta, atol=1e-12)


def test_crosscheck_agree_disagree_skip(station_path):
    from syncstab.config import load_system_spec
    spec = load_system_spec(station_path)
    for case in ("light", "heavy", "peak"):
        result = run_analysis(spec, case)
        _ss, ms, chk = run_oracle(result)
        assert chk.status == "AGREE", (case, chk.reason)
        assert chk.freq_dev_hz is not None and chk.freq_dev_hz < 1.5
    # no-crossing -> SKIPPED
    two = parse_system_spec(TWO_BUS_CFG +
                            "\n[options]\nscan_fmin_hz = 25\nscan_fmax_hz = 60\n")
    net = build_reduced_network(two)
    op = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    curves = trace_curves(two, net, op)
    report = assess(two, curves)
    ss = assemble_state_space(net, op, KP, KI, W0)
    chk = crosscheck(report, modes(ss))
    assert chk.status == "SKIPPED"


def _report(verdict, margin, f_c1):
    critical = None if f_c1 is None else CriticalPoint(
        subsystem=0, omega_c1=2 * np.pi * f_c1, f_c1=f_c1, d_net1=0.0,
        d_con_at_c1=margin, margin=margin, lam1=0j, phi=np.ones(1))
    return StabilityReport(verdict, margin, critical, ())


def _modeset(sigma, f_hz):
    if sigma is None:
        return ModeSet(np.array([-1.0, -2.0]), None, note="NO_OSC_MODE")
    lam = complex(sigma, 2 * np.pi * f_hz)
    return ModeSet(np.array([lam, lam.conjugate()]),
                   DominantMode(sigma, f_hz, -sigma / abs(lam)))


@pytest.mark.parametrize("report, modeset, expect", [
    (_report("Stable", 0.1, 20.0), _modeset(None, None),
     CrossCheck("SKIPPED", None, "oracle found no oscillatory mode")),
    (_report("NoCrossing", None, None), _modeset(-0.5, 20.0),
     CrossCheck("SKIPPED", None, "criterion had no crossing")),
    (_report("Marginal", 5e-4, 20.0), _modeset(0.1, 20.5),
     CrossCheck("SKIPPED", 0.5, "margin inside the marginal band")),
    (_report("Stable", 0.1, 20.0), _modeset(-0.5, 20.25), CrossCheck("AGREE", 0.25, "")),
    (_report("Unstable", -0.1, 20.0), _modeset(-0.5, 19.5), CrossCheck("DISAGREE", 0.5, "")),
], ids=["no-oscillatory-mode", "no-crossing", "marginal-band", "agree", "disagree"])
def test_crosscheck_gives_status_frequency_deviation_and_reason(report, modeset, expect):
    assert crosscheck(report, modeset) == expect


def _station_with_wtg3_gains(station_path, kp):
    with open(station_path, encoding="utf-8") as fh:
        return parse_system_spec(fh.read().replace("WTG3 wtg3 6.5 15782",
                                                   f"WTG3 wtg3 {kp} 15782"))


def test_run_oracle_uses_the_declared_gains(station_path):
    spec = _station_with_wtg3_gains(station_path, 7.0)
    result = run_analysis(spec, "heavy", force_first_pll=True)
    ss, _ms, chk = run_oracle(result)
    assert chk.status in ("AGREE", "DISAGREE", "SKIPPED")
    kp = [KP, KP, KP, KP, 7.0]        # station order: ES1 WTG1 ES2 WTG2 WTG3
    assert [c.pll_kp for c in spec.converters] == kp
    expected = assemble_state_space(result.net, result.op, kp, [KI] * 5, spec.omega0)
    assert np.array_equal(ss.a_matrix, expected.a_matrix)
    forced = assemble_state_space(result.net, result.op, KP, KI, spec.omega0)
    assert not np.array_equal(ss.a_matrix, forced.a_matrix)


def _refusing_eigvals(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_oracle_eigensolver_failure_is_a_coded_error(station_path, monkeypatch):
    result = run_analysis(load_system_spec(station_path), "heavy")
    ss = run_oracle(result)[0]
    monkeypatch.setattr(np.linalg, "eigvals", _refusing_eigvals)
    for call in (lambda: modes(ss), lambda: run_oracle(result)):
        with pytest.raises(AnalysisError) as exc:
            call()
        assert exc.value.code == "EIG_NOT_CONVERGED"
        assert "state-space oracle" in str(exc.value)


def test_forced_gains_that_misstate_the_system_disagree(station_path):
    # WTG3 at kp = 4.0: the forced analysis (converter 1's gains) reads
    # Unstable, but the declared-gain oracle's dominant mode is damped
    spec = _station_with_wtg3_gains(station_path, 4.0)
    result = run_analysis(spec, "heavy", flat_voltage=True, force_first_pll=True)
    assert result.report.verdict == "Unstable"
    assert result.report.margin == pytest.approx(-0.00248, abs=1e-5)
    _ss, modeset, chk = run_oracle(result)
    assert modeset.dominant.sigma == pytest.approx(-0.0588, abs=1e-3)
    assert chk.status == "DISAGREE"


def _simulate_reference(ss, pulse, dt, duration):
    """Every trapezoidal step from t = 0, as the integration was first written."""
    steps = int(round(duration / dt))
    t = np.arange(steps + 1) * dt
    d = np.where((t >= pulse.start_s) & (t < pulse.start_s + pulse.width_s),
                 pulse.amplitude_rad, 0.0)
    eye = np.eye(ss.a_matrix.shape[0])
    left_inv = np.linalg.inv(eye - 0.5 * dt * ss.a_matrix)
    step_mat = left_inv @ (eye + 0.5 * dt * ss.a_matrix)
    step_in = left_inv @ (0.5 * dt * ss.b_pulse)
    z = np.zeros((steps + 1, len(eye)))
    for k in range(steps):
        z[k + 1] = step_mat @ z[k] + step_in * (d[k] + d[k + 1])
    return z


@pytest.mark.parametrize("pulse", [
    AnglePulse(start_s=0.0),
    AnglePulse(start_s=0.0, width_s=0.5, amplitude_rad=-0.3),
    AnglePulse(start_s=0.1),
    AnglePulse(start_s=0.3),                          # last sample only
    AnglePulse(start_s=0.5),                          # past the end
    AnglePulse(start_s=0.1, amplitude_rad=0.0),
    AnglePulse(start_s=0.1, amplitude_rad=-0.0),
    AnglePulse(),                                     # the CLI's pulse at 2.0 s
], ids=["at_zero", "at_zero_wide", "mid_run", "last_sample", "past_end",
        "amplitude_zero", "amplitude_minus_zero", "default"])
@pytest.mark.parametrize("case", ["light", "peak"])
@pytest.mark.parametrize("duration", [0.3, 3.0], ids=["short", "cli_default"])
def test_simulate_is_bit_equal_to_the_full_loop(station_path, case, pulse, duration):
    from syncstab.config import load_system_spec
    result = run_analysis(load_system_spec(station_path), case, flat_voltage=False)
    ss, _ms, _chk = run_oracle(result)
    sim = simulate(ss, pulse, dt=1e-4, duration=duration)
    z = _simulate_reference(ss, pulse, 1e-4, duration)
    n = ss.n
    # tobytes compares bit patterns, so the sign of every zero counts
    assert sim.theta.tobytes() == np.ascontiguousarray(z[:, :n]).tobytes()
    a11, a12 = ss.a_matrix[:n, :n], ss.a_matrix[:n, n:]
    t = np.arange(len(z)) * 1e-4
    d = np.where((t >= pulse.start_s) & (t < pulse.start_s + pulse.width_s),
                 pulse.amplitude_rad, 0.0)
    omega = z[:, :n] @ a11.T + z[:, n:] @ a12.T + np.outer(d, ss.b_omega)
    assert sim.omega.tobytes() == omega.tobytes()
    # + 0.0: a proxy at rest is 0, not the -0.0 of a zero times a negative P̃
    dp = ((omega / ss.omega0) @ ss.m_p.T + z[:, :n] @ ss.m_q.T) * ss.p_tilde + 0.0
    assert sim.dp.tobytes() == dp.tobytes()


@pytest.mark.parametrize("pulse", [AnglePulse(), AnglePulse(amplitude_rad=0.0)],
                         ids=["default", "never_steps"])
def test_simulate_holds_no_2n_wide_array(station_path, pulse):
    # theta has rows of its own, so the result keeps no view of the (steps + 1)
    # x 2n state and its integrator half is freed, whether the loop ran or not
    from syncstab.config import load_system_spec
    result = run_analysis(load_system_spec(station_path), "light", flat_voltage=True)
    ss, _ms, _chk = run_oracle(result)
    n = ss.n
    tracemalloc.start()
    try:
        sim = simulate(ss, pulse)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = len(sim.t_s)
    for a in (sim.theta, sim.omega, sim.dp):
        assert a.base is None and a.shape == (m, n)
    # the three (m, n) outputs and t_s, and no (m, 2n) state
    assert held <= 8 * m * (3 * n + 1) + 16_384 < 8 * m * (5 * n + 1)


@pytest.mark.parametrize("kp, ki, omega0", [
    (np.nan, KI, W0), (KP, np.inf, W0), (KP, KI, np.nan),
    (np.array([KP, np.nan]), KI, W0),
    # not one real number, nor one per converter
    ([KP] * 3, KI, W0), ("a", KI, W0), (1 + 1j, KI, W0), (True, KI, W0),
    (KP, np.full((2, 1), KI), W0), (KP, KI, "x"), (KP, KI, [W0]),
])
def test_assemble_rejects_non_finite_parameters(kp, ki, omega0, capfd):
    net = ReducedNetwork.from_b_matrix(np.array([[4.0, -1.0], [-1.0, 3.0]]))
    op = OperatingPoint(np.array([0.5, -0.2]), np.array([0.1, 0.0]), np.ones(2))
    with pytest.raises(AnalysisError) as exc:
        assemble_state_space(net, op, kp, ki, omega0)
    assert exc.value.code == "ORACLE_PARAMS_INVALID"
    assert capfd.readouterr().err == ""      # no LAPACK complaint on stderr


@pytest.mark.parametrize("dt, duration", [(np.nan, 1.0), (1e-3, np.inf), (1e-3, np.nan),
                                          (0.0, 1.0), (0.1, 0.1), (1e-9, 3.0),
                                          (5e-324, 1e300)],
                         ids=["nan-dt", "inf-duration", "nan-duration", "zero-dt",
                              "dt-equals-duration", "too-many-steps", "infinite-steps"])
def test_simulate_rejects_bad_step_or_duration(dt, duration):
    with pytest.raises(AnalysisError) as exc:
        simulate(_scalar_ss(0.4), AnglePulse(), dt=dt, duration=duration)
    assert exc.value.code == "SIM_PARAMS_INVALID"


@pytest.mark.parametrize("dt, duration, disturbance", [
    ("a", 3.0, None), (1e-3, "3", None), (1e-3, 1 + 0j, None), (1e-3, [1.0], None),
    (np.array([1e-3]), 3.0, None), (True, 3.0, None), (1e-3, None, None),
    (1e-3, 3.0, 0.1), (1e-3, 3.0, "pulse"), (1e-3, 3.0, (2.0, 0.02, 0.1)),
], ids=["text-dt", "text-duration", "complex-duration", "list-duration",
        "array-dt", "bool-dt", "none-duration", "float-disturbance",
        "text-disturbance", "tuple-disturbance"])
def test_simulate_rejects_arguments_that_are_not_its_types(dt, duration, disturbance):
    # one real number each for dt and duration (a bool is not 1 s), and an
    # AnglePulse or None for the disturbance
    with pytest.raises(AnalysisError) as exc:
        simulate(_scalar_ss(0.4), disturbance, dt=dt, duration=duration)
    assert exc.value.code == "SIM_PARAMS_INVALID"


def test_simulate_reads_numpy_and_integer_numbers_as_floats():
    ss = _scalar_ss(0.4)
    pulse = AnglePulse(start_s=0.5)
    expect = simulate(ss, pulse, dt=0.25, duration=2.0)
    for dt, duration in [(np.float64(0.25), np.int64(2)), (np.array(0.25), 2)]:
        sim = simulate(ss, pulse, dt=dt, duration=duration)
        assert sim.t_s.dtype == np.float64
        assert sim.theta.tobytes() == expect.theta.tobytes()


@pytest.mark.parametrize("field", ["start_s", "width_s", "amplitude_rad"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pulse_rejects_non_finite_fields(field, value):
    with pytest.raises(AnalysisError) as exc:
        AnglePulse(**{field: value})
    assert exc.value.code == "SIM_PARAMS_INVALID"


@pytest.mark.parametrize("field", ["start_s", "width_s", "amplitude_rad"])
@pytest.mark.parametrize("value", ["a", "0.5", None, 1j, True, [0.1]])
def test_pulse_rejects_fields_that_are_not_real_numbers(field, value):
    with pytest.raises(AnalysisError) as exc:
        AnglePulse(**{field: value})
    assert exc.value.code == "SIM_PARAMS_INVALID"


_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([1e308, -1e308, 0.0, 0.01, 0.05, -0.05]))


@settings(max_examples=60, deadline=None)
@given(start=_finite, width=_finite, amplitude=_finite)
@example(start=0.01, width=0.05, amplitude=1e308)
@example(start=0.01, width=0.05, amplitude=-1e308)
@example(start=0.01, width=0.05, amplitude=1e300)
@example(start=-1e308, width=1e308, amplitude=1.0)
@example(start=0.5, width=0.05, amplitude=1e308)       # past the end: all zero
def test_simulate_output_is_finite_or_coded(start, width, amplitude):
    pulse = AnglePulse(start_s=start, width_s=width, amplitude_rad=amplitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sim = simulate(_scalar_ss(0.4), pulse, dt=1e-3, duration=0.1)
        except AnalysisError as exc:
            assert exc.code == "SIM_NOT_FINITE"
            return
    for arr in (sim.t_s, sim.theta, sim.omega, sim.dp):
        assert np.isfinite(arr).all()


@pytest.mark.parametrize("amplitude", [1e308, -1e308])
def test_simulate_overflow_is_coded(amplitude):
    with pytest.raises(AnalysisError) as exc:
        simulate(_scalar_ss(0.4), AnglePulse(start_s=0.01, amplitude_rad=amplitude),
                 dt=1e-3, duration=0.1)
    assert exc.value.code == "SIM_NOT_FINITE"


def test_an_overdamped_plant_has_no_oscillatory_mode():
    # kp² > 4·ki/U: s² + kp·U·s + ki·U has two real roots per converter
    net = ReducedNetwork.from_b_matrix(np.array([[4.0, -1.0], [-1.0, 3.0]]))
    op = OperatingPoint(np.zeros(2), np.zeros(2), np.ones(2))
    modeset = modes(assemble_state_space(net, op, 100.0, 100.0, W0))
    assert modeset.dominant is None and modeset.note == "NO_OSC_MODE"
    assert not np.any(modeset.eigenvalues.imag)


def test_a_singular_algebraic_loop_is_coded():
    # kp·U·M_P = ω0 makes the Δω loop matrix I − K_P·U·M_P/ω0 exactly zero
    net = ReducedNetwork.from_b_matrix(np.array([[1.0]]))
    op = OperatingPoint(np.array([2.0]), np.array([0.0]), np.ones(1))
    with pytest.raises(AnalysisError) as exc:
        assemble_state_space(net, op, 1.0, 100.0, 2.0)
    assert exc.value.code == "ALGEBRAIC_LOOP_SINGULAR"
