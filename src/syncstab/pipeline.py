"""End-to-end orchestration: config → power flow → curves → verdict → oracle."""
from __future__ import annotations

from dataclasses import dataclass, replace

from .config import SystemSpec
from .frequency_response import OperatingPoint, SubsystemCurves, _Loop, _scan, gamma, trace_curves
from .network import ReducedNetwork, build_reduced_network
from .powerflow import SteadyState, solve_steady_state
from .stability import (StabilityReport, SubsystemAssessment, _make_crossing, _report,
                        _require_root_tol, assess)
from .statespace import (CrossCheck, ModeSet, StateSpace, _Fallback, _loop_crossings,
                         assemble_state_space, crosscheck, modes)

__all__ = ["AnalysisResult", "operating_point", "run_analysis", "assess_point", "run_oracle"]


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one pipeline run produced, for reporting and tests."""

    spec: SystemSpec
    case: str
    net: ReducedNetwork
    steady: SteadyState
    op: OperatingPoint
    curves: SubsystemCurves
    report: StabilityReport


def operating_point(spec: SystemSpec, case: str | None = None,
                    flat_voltage: bool | None = None) -> tuple[str, SteadyState, OperatingPoint]:
    """Resolve a named case into an OperatingPoint with solved (or flat) U."""
    name = spec.default_case() if case is None else case
    p, q = spec.case_injections(name)
    steady = solve_steady_state(spec, p, q, flat_voltage=flat_voltage)
    return name, steady, OperatingPoint(p, q, steady.u_pu)


def run_analysis(spec: SystemSpec, case: str | None = None, *,
                 flat_voltage: bool | None = None,
                 force_first_pll: bool = False) -> AnalysisResult:
    """Full criterion pipeline for one operating-point case."""
    net = build_reduced_network(spec)
    name, steady, op = operating_point(spec, case, flat_voltage=flat_voltage)
    curves = trace_curves(spec, net, op, force_first_pll=force_first_pll)
    report = assess(spec, curves)
    return AnalysisResult(spec=spec, case=name, net=net, steady=steady,
                          op=op, curves=curves, report=report)


def assess_point(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint, *,
                 force_first_pll: bool = False) -> StabilityReport:
    """The report of one operating point, its crossings found by a bordered
    Newton from the modes of the point's loop, not by a scan.

    The point's one loop is built over the spec's grid first, so the coded
    errors and their order are those of ``assess(spec, trace_curves(spec,
    net, op))``, ROOT_TOL_INVALID last; an empty crossing window
    (:func:`~syncstab.frequency_response.crossing_window`) is NoCrossing
    without an eigensolve.  Otherwise the crossings come from
    :func:`~syncstab.statespace._loop_crossings`, one per
    ``SubsystemAssessment`` in ascending frequency, and agree with the full
    scan's in verdict and count, and in ω and net damping to about 1e-10,
    not bit for bit.  When one of its guards fails, the window of the
    loop's grid is scanned and refined as ``assess`` does, bit for bit the
    full scan's critical crossing, and the report ends with the note
    ``NEWTON_FALLBACK: <guard>``.
    """
    loop = _Loop(spec, net, op, None, force_first_pll)
    _require_root_tol(spec.options.root_tol_hz)
    note: tuple[str, ...] = ()
    if loop.window.start < loop.window.stop:
        try:
            found = _loop_crossings(loop)
        except _Fallback as guard:
            note = (f"NEWTON_FALLBACK: {guard}",)
        else:
            gammas = gamma([w for w, _lam, _phi in found], loop.u_ref, loop.kp, loop.ki,
                           loop.omega0)
            return _report(tuple(SubsystemAssessment(k, (_make_crossing(k, w, g, lam, phi),))
                                 for k, ((w, lam, phi), g) in enumerate(zip(found, gammas))),
                           list(loop.warnings))
    report = assess(spec, _scan(loop, loop.window))
    return replace(report, notes=report.notes + note) if note else report


def oracle_model(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint) -> StateSpace:
    """State-space oracle on each converter's declared PLL gains, also when an
    analysis of the same point forced one shared gain."""
    converters = spec.converters
    return assemble_state_space(net, op, [c.pll_kp for c in converters],
                                [c.pll_ki for c in converters], spec.omega0)


def run_oracle(result: AnalysisResult) -> tuple[StateSpace, ModeSet, CrossCheck]:
    """The oracle of ``result``'s operating point, its modes and the agreement record."""
    ss = oracle_model(result.spec, result.net, result.op)
    modeset = modes(ss)
    return ss, modeset, crosscheck(result.report, modeset)
