"""Crossing detection, refinement, and verdicts.

Scalar oracle facts used below (single converter, branch L, slack):
* With Q = 0 the network spring K_net is identically zero, so the crossing
  sits exactly where Im Gamma = 0: f* = sqrt(U ki^2/(ki - kp^2 U))/2pi.
* At that crossing D_con = w0*kp/ki exactly (substituting f* into the
  rationalized Gamma), and D_net1 = -P*L/U^2 at every frequency.
"""
from __future__ import annotations

from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from syncstab import stability
from syncstab.config import PowerSetpoint, load_system_spec, parse_system_spec
from syncstab.errors import AnalysisError
from syncstab.frequency_response import (_BLOCK_ENTRIES, OperatingPoint, SubsystemCurves,
                                         build_gnet, trace_curves)
from syncstab.modal import modal_weights_from_report
from syncstab.network import build_reduced_network
from syncstab.pipeline import operating_point, run_analysis
from syncstab.stability import (MARGINAL, MARGINAL_BAND, NO_CROSSING, STABLE,
                                UNSTABLE, assess, find_crossings)

from conftest import KI, KP, STATION_CFG_PATH, TWO_BUS_CFG, synthetic_spec, \
    random_pd_network, random_operating_point, grouped_grid_spec

W0 = 2 * np.pi * 50


def scalar_crossing_hz(u: float) -> float:
    return float(np.sqrt(u * KI * KI / (KI - KP * KP * u)) / (2 * np.pi))


def _two_bus(case_p: float, case_q: float = 0.0, u: float = 1.0):
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([case_p]), np.array([case_q]), np.array([u]))
    curves = trace_curves(spec, net, op)
    return spec, net, op, curves


def test_scalar_crossing_frequency_and_dcon():
    spec, net, op, curves = _two_bus(0.5)
    report = assess(spec, curves)
    c = report.critical
    assert c is not None
    assert c.f_c1 == pytest.approx(scalar_crossing_hz(1.0), abs=2e-4)
    # D_con at the true crossing is exactly w0*kp/ki; the crossing itself is
    # located to root_tol = 1e-4 Hz, which perturbs D_con in the 6th digit
    assert c.d_con_at_c1 == pytest.approx(W0 * KP / KI, rel=1e-5)
    assert c.d_net1 == pytest.approx(-0.5 * 0.3, abs=1e-10)
    assert report.margin == pytest.approx(W0 * KP / KI - 0.15, abs=1e-5)
    assert report.verdict == UNSTABLE if report.margin < 0 else STABLE


def test_d_net1_equals_eig_recompute():
    # the reported D_net1 must equal Re lambda_1{G_net(j w_c1)} recomputed
    # from scratch at the reported crossing
    spec, net, op, curves = _two_bus(0.37, 0.21)
    report = assess(spec, curves)
    c = report.critical
    lam = np.linalg.eigvals(build_gnet(c.omega_c1, net, op, W0))
    best = lam[np.argmin(np.abs(lam - (c.d_net1 + 1j * 0)))]
    # scalar case: single eigenvalue
    assert c.d_net1 == pytest.approx(lam[0].real, abs=1e-9)
    del best


def test_multivariable_d_net1_recompute():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        net = random_pd_network(rng, n)
        op = random_operating_point(rng, n)
        spec = synthetic_spec(n, scan_points=600)
        curves = trace_curves(spec, net, op)
        report = assess(spec, curves)
        if report.critical is None:
            continue
        c = report.critical
        lam = np.linalg.eigvals(build_gnet(c.omega_c1, net, op, W0))
        assert np.min(np.abs(lam - c.lam1)) < 1e-9
        assert c.d_net1 == pytest.approx(c.lam1.real, abs=1e-12)


def test_grid_density_invariance():
    # the refined crossing must not depend on scan density (within tol)
    results = []
    for points in (400, 900, 2000):
        spec = parse_system_spec(TWO_BUS_CFG + f"\n[options]\nscan_points = {points}\n")
        net = build_reduced_network(spec)
        op = OperatingPoint(np.array([0.5]), np.array([0.15]), np.array([1.0]))
        curves = trace_curves(spec, net, op)
        report = assess(spec, curves)
        results.append((report.critical.f_c1, report.critical.d_net1))
    f_vals = [r[0] for r in results]
    d_vals = [r[1] for r in results]
    assert max(f_vals) - min(f_vals) < 5e-4
    assert max(d_vals) - min(d_vals) < 1e-8


def test_margin_monotone_in_p():
    # increasing P strictly lowers the scalar margin
    margins = []
    for p in (0.1, 0.3, 0.5, 0.7):
        spec, net, op, curves = _two_bus(p)
        margins.append(assess(spec, curves).margin)
    assert all(a > b for a, b in zip(margins, margins[1:]))


def test_verdict_boundaries_and_marginal_band():
    # place the margin inside the +-1e-3 band by tuning P near the boundary:
    # margin = w0 kp/ki - P*L/U^2 = 0 at P* = (w0 kp/ki)/0.3
    p_star = (W0 * KP / KI) / 0.3
    spec, net, op, curves = _two_bus(p_star)
    report = assess(spec, curves)
    assert abs(report.margin) < MARGINAL_BAND
    assert report.verdict == MARGINAL
    spec, net, op, curves = _two_bus(p_star + 0.02)
    assert assess(spec, curves).verdict == UNSTABLE
    spec, net, op, curves = _two_bus(p_star - 0.02)
    assert assess(spec, curves).verdict == STABLE


def test_no_crossing_verdict():
    # strong reactive absorption moves the net spring zero out of the band:
    # K_net = (w0/w) * Q~ * L is large positive, K_con + K_net > 0 everywhere
    # in-band when Q is large positive... use a scan band that excludes the
    # crossing instead (robust): scan 25..60 Hz only.
    spec = parse_system_spec(TWO_BUS_CFG +
                             "\n[options]\nscan_fmin_hz = 25\nscan_fmax_hz = 60\n")
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0]))
    curves = trace_curves(spec, net, op)
    report = assess(spec, curves)
    assert report.verdict == NO_CROSSING
    assert report.critical is None
    assert report.margin is None
    assert any("crossing" in note.lower() for note in report.notes)


def test_find_crossings_near_grid_zero_refines_within_tol():
    # a 3-point grid bracketing the zero still localizes it to root_tol
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.4]), np.array([0.0]), np.array([1.0]))
    f_star = scalar_crossing_hz(1.0)
    grid = np.array([f_star - 1.0, f_star + 1e-3, f_star + 1.0])
    curves = trace_curves(spec, net, op, grid_hz=grid)
    crossings = find_crossings(curves, 0, root_tol_hz=1e-4)
    assert len(crossings) == 1
    assert crossings[0].f_ci == pytest.approx(f_star, abs=2e-4)


def test_find_crossings_exact_grid_zero_taken_directly():
    # when the tabulated net spring is exactly zero at a grid point, that
    # point is reported as the crossing with no refinement drift, and the
    # neighbouring sign-change pairs do not double count it
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.4]), np.array([0.0]), np.array([1.0]))
    f_star = scalar_crossing_hz(1.0)
    grid = np.array([f_star - 1.0, f_star, f_star + 1.0])
    curves = trace_curves(spec, net, op, grid_hz=grid)
    # force the middle sample onto the zero exactly (float evaluation of the
    # closed form lands within ~1e-12 of it)
    curves.k_con[1] = -curves.k_net[0, 1]
    crossings = find_crossings(curves, 0)
    assert len(crossings) == 1
    assert crossings[0].f_ci == grid[1]


@pytest.mark.parametrize("end", [0, -1], ids=["first", "last"])
def test_find_crossings_exact_zero_at_grid_end(end):
    # an exact zero on the first or last grid point is a crossing of its own;
    # the cell next to it is not a sign change
    spec = parse_system_spec(TWO_BUS_CFG)
    net = build_reduced_network(spec)
    op = OperatingPoint(np.array([0.4]), np.array([0.0]), np.array([1.0]))
    f_star = scalar_crossing_hz(1.0)
    grid = f_star + (np.array([0.0, 1.0, 2.0]) if end == 0
                     else np.array([-2.0, -1.0, 0.0]))
    curves = trace_curves(spec, net, op, grid_hz=grid)
    curves.k_con[end] = -curves.k_net[0, end]
    crossings = find_crossings(curves, 0)
    assert [c.f_ci for c in crossings] == [grid[end]]
    assert crossings[0].lam == curves.d_net[0, end] + 1j * curves.k_net[0, end]


def _bounded_loop(monkeypatch, limit=500):
    """Make ``SubsystemCurves.loops`` raise after ``limit`` evaluations, so a
    refinement that stops shrinking fails the test instead of hanging it."""
    loops, calls = SubsystemCurves.loops, []

    def spy(self, omega, picks):
        calls.extend(omega)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} loop evaluations")
        return loops(self, omega, picks)

    monkeypatch.setattr(SubsystemCurves, "loops", spy)
    return calls


def test_a_root_tolerance_below_the_float_spacing_ends_at_adjacent_floats(monkeypatch):
    # at ~20 Hz adjacent floats are 3.6e-15 Hz apart, so a 1e-20 Hz bracket
    # is never reached; the bisection stops when the midpoint is an end
    calls = _bounded_loop(monkeypatch)
    fine = run_analysis(parse_system_spec(TWO_BUS_CFG + "\n[options]\nroot_tol_hz = 1e-20\n"))
    assert 0 < len(calls) <= 500
    coarse = run_analysis(parse_system_spec(TWO_BUS_CFG + "\n[options]\nroot_tol_hz = 1e-14\n"))
    assert fine.report.verdict == coarse.report.verdict == UNSTABLE
    assert fine.report.margin == pytest.approx(coarse.report.margin, abs=1e-14)
    assert fine.report.critical.f_c1 == pytest.approx(coarse.report.critical.f_c1, abs=1e-13)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_a_root_tolerance_that_is_not_positive_is_a_coded_error(monkeypatch, tol):
    # options built in code skip validate(); find_crossings checks the tolerance
    _bounded_loop(monkeypatch)
    spec = parse_system_spec(TWO_BUS_CFG)
    spec = replace(spec, options=replace(spec.options, root_tol_hz=tol))
    with pytest.raises(AnalysisError) as exc:
        run_analysis(spec)
    assert exc.value.code == "ROOT_TOL_INVALID"
    curves = trace_curves(spec, build_reduced_network(spec),
                          OperatingPoint(np.array([0.5]), np.array([0.0]), np.array([1.0])))
    with pytest.raises(AnalysisError) as exc:
        find_crossings(curves, 0, tol)
    assert exc.value.code == "ROOT_TOL_INVALID"


@pytest.mark.parametrize("i", [-1, 5, 1.0, True, np.int64(5), "0"])
def test_a_subsystem_index_that_is_not_one_of_the_n_is_a_coded_error(i):
    # -1 would read subsystem 4 under the label -1, True subsystem 1, and 5
    # or 1.0 would raise IndexError
    result = run_analysis(load_system_spec(STATION_CFG_PATH), "heavy")
    with pytest.raises(AnalysisError) as exc:
        find_crossings(result.curves, i)
    assert exc.value.code == "SUBSYSTEM_INVALID"
    # the last subsystem, by a NumPy integer, is found under its own label
    found = find_crossings(result.curves, np.int64(4))
    assert found and {c.subsystem for c in found} == {4}
    assert ([(c.f_ci, c.net_damping) for c in found]
            == [(c.f_ci, c.net_damping) for c in result.report.per_subsystem[4].crossings])


def _crossing_events_reference(g):
    """The grid rule as a loop over every point: an exact zero is a crossing;
    a sign change is a cell to refine unless either end is an exact zero."""
    events = []
    for k in range(len(g)):
        if g[k] == 0.0:
            events.append(("zero", k))
        elif k + 1 < len(g) and (g[k] < 0.0) != (g[k + 1] < 0.0) and g[k + 1] != 0.0:
            events.append(("cell", k))
    return events


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-3.0, 3.0),
                min_size=2, max_size=40))
def test_find_crossings_visits_the_same_points_as_the_loop_rule(values):
    g = np.array(values)
    events = []

    def no_steps(kind, k):
        events.append((kind, k))
        yield from ()

    curves = SimpleNamespace(k_con=np.zeros_like(g), k_net=g[None, :])
    original = (stability._zero_steps, stability._refine_steps)
    stability._zero_steps = lambda curves, i, k: no_steps("zero", k)
    stability._refine_steps = lambda curves, i, k, tol: no_steps("cell", k)
    try:
        stability.find_crossings(curves, 0)
    finally:
        stability._zero_steps, stability._refine_steps = original
    assert events == _crossing_events_reference(g)


def test_multiple_crossings_reported_and_min_selected():
    # reactive spring shifts branches so that multiple subsystems cross at
    # different frequencies; the report must pick the minimum net damping
    rng = np.random.default_rng(41)
    net = random_pd_network(rng, 4)
    op = random_operating_point(rng, 4)
    spec = synthetic_spec(4, scan_points=800)
    curves = trace_curves(spec, net, op)
    report = assess(spec, curves)
    if report.critical is None:
        pytest.skip("ensemble draw happened to have no crossing")
    nets = [c.net_damping for sub in report.per_subsystem for c in sub.crossings]
    assert report.margin == pytest.approx(min(nets), abs=1e-12)


def test_run_analysis_pipeline_consistency(station_path):
    from syncstab.config import load_system_spec
    spec = load_system_spec(station_path)
    result = run_analysis(spec, "light")
    assert result.report.verdict == STABLE
    assert result.case == "light"
    # flat_voltage from config options honored
    assert result.steady.flat
    # overriding to solved mode changes the steady state but keeps shape
    solved = run_analysis(spec, "light", flat_voltage=False)
    assert not solved.steady.flat
    assert solved.report.critical is not None


# ------------------------------------------------- relabelling the converters

# the station's three cases flat and solved, and the degenerate repro with
# WTG1-3 (three identical units on one collector) at one setpoint
_STATION_INPUTS = [*((case, flat) for case in ("light", "heavy", "peak")
                     for flat in (True, False)), ("_repro", None)]


@cache
def _station_spec():
    spec = load_system_spec(STATION_CFG_PATH)
    p, q = spec.case_injections("heavy")
    block = {name: PowerSetpoint(p[i], q[i]) for i, name in enumerate(spec.converter_names)}
    block.update({name: PowerSetpoint(0.9, 0.1) for name in ("WTG1", "WTG2", "WTG3")})
    return spec.with_case("_repro", block)


def _labelled_outcome(spec, case, flat):
    """(verdict, crossing count, D_net1, η by converter name) of one input."""
    result = run_analysis(spec, case, flat_voltage=flat)
    report = result.report
    eta = modal_weights_from_report(result.net, result.op, report, spec.omega0).eta
    count = sum(len(a.crossings) for a in report.per_subsystem)
    return report.verdict, count, report.critical.d_net1, dict(zip(spec.converter_names, eta))


@cache
def _unpermuted_outcome(case, flat):
    return _labelled_outcome(_station_spec(), case, flat)


@settings(max_examples=6, deadline=None)
@given(st.permutations(range(5)))
@example([4, 3, 2, 1, 0])
def test_relabelling_the_converters_permutes_eta_and_nothing_else(order):
    spec = _station_spec()
    relabelled = replace(spec, converters=tuple(spec.converters[j] for j in order))
    for case, flat in _STATION_INPUTS:
        verdict, count, d_net1, eta = _unpermuted_outcome(case, flat)
        got = _labelled_outcome(relabelled, case, flat)
        assert got[:2] == (verdict, count), (case, flat)
        assert abs(got[2] - d_net1) <= 1e-9, (case, flat)
        for name, value in eta.items():
            assert abs(got[3][name] - value) <= 1e-9, (case, flat, name)


def _grouped_outcome(spec):
    """Classes by converter name, whether the critical crossing is on a
    quotient branch, verdict, crossing count, D_net1 and η by name."""
    result = run_analysis(spec, "base")
    report, sym = result.report, result.curves._loop.sym
    names = spec.converter_names
    classes = {frozenset(names[i] for i in members) for members in sym.classes}
    on_quotient = result.curves.columns[0, report.critical.subsystem] < len(sym.classes)
    eta = modal_weights_from_report(result.net, result.op, report, spec.omega0).eta
    count = sum(len(a.crossings) for a in report.per_subsystem)
    return (classes, on_quotient, report.verdict, count, report.critical.d_net1,
            dict(zip(names, eta)))


@cache
def _unpermuted_grouped_outcome():
    return _grouped_outcome(grouped_grid_spec(1))


@settings(max_examples=3, deadline=None)
@given(st.permutations(range(20)))
@example(list(range(19, -1, -1)))
def test_relabelling_a_grouped_grid_permutes_eta_and_nothing_else(order):
    spec = grouped_grid_spec(1)
    relabelled = replace(spec, converters=tuple(spec.converters[j] for j in order))
    classes, on_quotient, verdict, count, d_net1, eta = _unpermuted_grouped_outcome()
    got = _grouped_outcome(relabelled)
    assert got[0] == classes and len(classes) < 20
    assert got[1:4] == (on_quotient, verdict, count)
    assert abs(got[4] - d_net1) <= 1e-9
    # on a difference branch φ is the Helmert vector in config order, so η
    # follows the labels only on a quotient branch
    if on_quotient:
        for name, value in eta.items():
            assert abs(got[5][name] - value) <= 1e-9, name


# ------------------------------------------------------ refining a crossing

def _synthetic_cells(cells):
    """Curves whose subsystem j is K_con + K_net = g_j(f) over the grid cell
    [2j, 2j + 1] = [f_lo, f_hi] of ``cells[j] = (g_j, f_lo, f_hi)``, the
    frequencies evaluated per subsystem, and the size of each batch."""
    calls, batches = [[] for _ in cells], []
    f_hz = np.array([f for _g, f_lo, f_hi in cells for f in (f_lo, f_hi)])
    k_net = np.zeros((len(cells), len(f_hz)))
    for j, (g, f_lo, f_hi) in enumerate(cells):
        k_net[j, 2 * j:2 * j + 2] = g(f_lo), g(f_hi)

    def loops(omega, picks):
        batches.append(len(omega))
        out = []
        for w, pick in zip(omega, picks):
            if np.ndim(pick):          # a trial point: the reference names the subsystem
                j = int(pick[0])
                calls[j].append(w / (2.0 * np.pi))
                out.append((complex(0.0, cells[j][0](w / (2.0 * np.pi))), 0j, pick))
            else:                      # the grid re-solve that starts a cell
                out.append((0j, 0j, np.array([float(pick)])))
        return out

    curves = SimpleNamespace(f_hz=f_hz, omega_rad_s=2.0 * np.pi * f_hz,
                             k_con=np.zeros(len(f_hz)), k_net=k_net,
                             columns=np.tile(np.arange(len(cells)), (len(f_hz), 1)),
                             loops=loops)
    return curves, calls, batches


@st.composite
def _cells(draw):
    """(g, its roots, f_lo, f_hi, root_tol_hz): a steep, a strongly curved or
    a three-root g, or one with its root within root_tol_hz/10 of an end."""
    tol = draw(st.sampled_from([1e-4, 1e-6, 1e-9]))
    f_lo = draw(st.floats(0.5, 60.0))
    width = draw(st.floats(10 * tol, 2.0))
    f_hi = f_lo + width
    kind = draw(st.sampled_from(["steep", "curved", "near_end", "three_roots"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "three_roots":
        roots = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3,
                                     unique=True)))
        roots = [f_lo + u * width for u in roots]
        return (lambda f: sign * (f - roots[0]) * (f - roots[1]) * (f - roots[2]) / width ** 3,
                roots, f_lo, f_hi, tol)
    if kind == "near_end":
        gap = draw(st.floats(0.01, 1.0)) * tol / 10
        root = draw(st.sampled_from([f_lo + gap, f_hi - gap]))
    else:
        root = f_lo + draw(st.floats(0.01, 0.99)) * width
    if kind == "steep":
        slope = draw(st.floats(1e2, 1e6)) / width
        return lambda f: sign * np.tanh(slope * (f - root)), [root], f_lo, f_hi, tol
    bend = draw(st.floats(-30.0, 30.0).filter(lambda c: abs(c) > 1.0))
    return lambda f: sign * np.expm1(bend * (f - root) / width), [root], f_lo, f_hi, tol


def _sign_change(cell):
    g, _roots, f_lo, f_hi, _tol = cell
    return g(f_lo) != 0.0 and g(f_hi) != 0.0 and (g(f_lo) < 0.0) != (g(f_hi) < 0.0)


@settings(max_examples=300, deadline=None)
@given(_cells())
def test_a_refined_crossing_lies_within_tolerance_of_a_root_at_bounded_cost(cell):
    assume(_sign_change(cell))
    g, roots, f_lo, f_hi, tol = cell
    curves, calls, _batches = _synthetic_cells([(g, f_lo, f_hi)])
    crossing = stability._refine(curves, 0, 0, tol)
    # a few ulps of slack: f -> ω -> f in the fake loop rounds once each way
    assert min(abs(crossing.f_ci - r) for r in roots) <= tol + 1e-12
    # trial evaluations, after the one grid re-solve
    assert len(calls[0]) <= 2 * np.ceil(np.log2((f_hi - f_lo) / tol)) + 2


def _crossing_bits(c):
    """Every number of a crossing, as bytes."""
    numbers = np.array([c.omega_ci, c.f_ci, c.d_con, c.d_neti, c.k_neti, c.net_damping,
                        c.lam.real, c.lam.imag])
    return c.subsystem, numbers.tobytes(), np.asarray(c.phi).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(_cells(), min_size=2, max_size=4))
def test_refining_cells_together_is_refining_each_alone(cells):
    assume(all(_sign_change(cell) for cell in cells))
    shape = [(g, f_lo, f_hi) for g, _roots, f_lo, f_hi, _tol in cells]
    curves, calls, batches = _synthetic_cells(shape)
    together = stability._run(curves, [stability._refine_steps(curves, j, 2 * j, cell[4])
                                       for j, cell in enumerate(cells)])
    alone, alone_calls = [], []
    for j, cell in enumerate(cells):
        curves_j, calls_j, _batches = _synthetic_cells(shape)
        alone.append(stability._refine(curves_j, j, 2 * j, cell[4]))
        alone_calls.append(calls_j[j])
    assert [_crossing_bits(c) for c in together] == [_crossing_bits(c) for c in alone]
    assert calls == alone_calls
    # one batch per round: the grid re-solves, then a step of each live cell
    assert len(batches) == 1 + max(len(c) for c in calls)
    assert batches[0] == len(cells) and sum(batches) == len(cells) + sum(map(len, calls))


def _count_refine_steps(monkeypatch):
    """Record [grid re-solves, loop solves] of every refined crossing."""
    steps, per_refine = stability._refine_steps, []

    def spy(*args):
        counts, sequence, answer = [0, 0], steps(*args), None
        per_refine.append(counts)
        while True:
            try:
                omega, pick = sequence.send(answer)
            except StopIteration as stop:
                return stop.value
            counts[np.ndim(pick) > 0] += 1
            answer = yield omega, pick

    monkeypatch.setattr(stability, "_refine_steps", spy)
    return per_refine


def _count_solves(monkeypatch):
    """Record [eig calls, matrices solved] of ``np.linalg.eig``."""
    eig, counts = np.linalg.eig, [0, 0]

    def spy(a):
        counts[0] += 1
        counts[1] += a.shape[0] if a.ndim == 3 else 1
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", spy)
    return counts


def _traced(case, flat):
    """(spec, curves) of a station input, or of grouped seed 0 for "grouped"."""
    if case == "grouped":
        return _traced_grouped(0)
    spec = _station_spec()
    _name, _steady, op = operating_point(spec, case, flat_voltage=flat)
    return spec, trace_curves(spec, build_reduced_network(spec), op)


def _traced_grouped(seed):
    spec = grouped_grid_spec(seed)
    _name, _steady, op = operating_point(spec, "base")
    return spec, trace_curves(spec, build_reduced_network(spec), op)


@pytest.mark.parametrize("case,flat", [*_STATION_INPUTS, ("grouped", None)])
def test_a_refined_crossing_costs_one_grid_solve_and_at_most_three_loop_solves(
        monkeypatch, case, flat):
    spec, curves = _traced(case, flat)
    per_refine = _count_refine_steps(monkeypatch)
    solves = _count_solves(monkeypatch)
    report = assess(spec, curves)
    calls, matrices = solves
    assert per_refine
    assert all(grid == 1 and loop <= 3 for grid, loop in per_refine), per_refine
    # one solved matrix per evaluation, an exact grid zero taking one
    crossings = sum(len(a.crossings) for a in report.per_subsystem)
    assert matrices == sum(map(sum, per_refine)) + crossings - len(per_refine)
    # every crossing advances in each round: at most 4 rounds of stacked solves
    block = max(1, _BLOCK_ENTRIES // len(curves._loop.sym.classes) ** 2)
    assert calls <= 4 * -(-crossings // block)


def _no_symmetry_grid():
    """(spec, curves) of a random 20-converter grid with spread U: no two
    converters are interchangeable."""
    rng = np.random.default_rng(7)
    spec = synthetic_spec(20, scan_points=1200)
    curves = trace_curves(spec, random_pd_network(rng, 20),
                          random_operating_point(rng, 20, flat=False))
    assert len(curves._loop.sym.classes) == 20
    return spec, curves


@pytest.mark.parametrize("make", [
    *(lambda case=case, flat=flat: _traced(case, flat) for case, flat in _STATION_INPUTS),
    *(lambda seed=seed: _traced_grouped(seed) for seed in range(3)),
    _no_symmetry_grid,
], ids=[*(f"{case}_{flat}" for case, flat in _STATION_INPUTS),
        *(f"grouped{seed}" for seed in range(3)), "no_symmetry20"])
def test_refining_in_rounds_is_refining_each_crossing_alone(make):
    spec, curves = make()
    tol = spec.options.root_tol_hz
    report = assess(spec, curves)
    assert any(a.crossings for a in report.per_subsystem)
    for a in report.per_subsystem:
        alone = [stability._run(curves, [sequence])[0]
                 for sequence in stability._sequences(curves, a.index, tol)]
        expected = [_crossing_bits(c) for c in alone]
        assert [_crossing_bits(c) for c in a.crossings] == expected
        assert [_crossing_bits(c) for c in find_crossings(curves, a.index, tol)] == expected


@pytest.mark.parametrize("case,flat", _STATION_INPUTS)
def test_the_refined_crossing_does_not_depend_on_grid_density(case, flat):
    spec = _station_spec()
    outcomes = []
    for points in (601, 1200, 2400):
        dense = replace(spec, options=replace(spec.options, scan_points=points))
        report = run_analysis(dense, case, flat_voltage=flat).report
        count = sum(len(a.crossings) for a in report.per_subsystem)
        outcomes.append((report.verdict, count, report.margin, report.critical.f_c1))
    assert len({(verdict, count) for verdict, count, _m, _f in outcomes}) == 1
    margins = [margin for _v, _c, margin, _f in outcomes]
    f_c1 = [f for _v, _c, _m, f in outcomes]
    assert max(margins) - min(margins) <= 1e-10
    assert max(f_c1) - min(f_c1) <= 1e-8
