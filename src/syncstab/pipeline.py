"""End-to-end orchestration: config → power flow → curves → verdict → oracle."""
from __future__ import annotations

from dataclasses import dataclass

from .config import SystemSpec
from .frequency_response import OperatingPoint, SubsystemCurves, _Loop, _scan, trace_curves
from .network import ReducedNetwork, build_reduced_network
from .powerflow import SteadyState, solve_steady_state
from .stability import StabilityReport, assess
from .statespace import CrossCheck, ModeSet, StateSpace, assemble_state_space, crosscheck, modes

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
    """The report of one operating point, traced over its crossing window only.

    The point's one loop is built over the spec's grid and scanned over its
    window (:func:`~syncstab.frequency_response.crossing_window`) only, a
    slice of that grid that the curves view.
    The critical crossing, margin, verdict and coded errors are bit-identical
    to ``assess(spec, trace_curves(spec, net, op))`` on the full grid; the
    branch numbers and ``branch overlap`` note cover the window only.  An
    empty window is NoCrossing without an eigensolve.
    """
    loop = _Loop(spec, net, op, None, force_first_pll)
    return assess(spec, _scan(loop, loop.window))


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
