"""End-to-end orchestration: config → power flow → curves → verdict → oracle."""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

from .config import SystemSpec
from .errors import SyncstabError
from .frequency_response import OperatingPoint, SubsystemCurves, _Loop, _scan, gamma, trace_curves
from .network import ReducedNetwork, build_reduced_network
from .powerflow import SteadyState, solve_steady_state
from .stability import (StabilityReport, SubsystemAssessment, _make_crossing, _report,
                        _require_root_tol, assess)
from .statespace import (CrossCheck, ModeSet, StateSpace, _Fallback, _loop_crossings, _Point,
                         _point, assemble_state_space, crosscheck, modes)

__all__ = ["AnalysisResult", "operating_point", "run_analysis", "assess_point", "assess_points",
           "run_oracle"]

# operating points whose crossings assess_points finds together.  Each
# point's loop is built while the batch's earlier points hold their splits
# (about 1.2 KB each on the station), so a batch of three keeps the peak
# within 4 KB of one point's; a sweep forms its rows one batch at a time,
# so it holds no more reports than one batch's
BATCH_POINTS = 3


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


def assess_points(spec: SystemSpec, net: ReducedNetwork, ops, *,
                  force_first_pll: bool = False) -> list[StabilityReport | SyncstabError]:
    """One outcome per operating point of ``ops`` (any iterable), in order:
    its report, or the coded ``SyncstabError`` that this point alone
    raises.  The crossings of each report are found by a bordered Newton
    from the modes of the point's loop, not by a scan.

    Each point builds its one loop over the spec's grid first, so its coded
    errors and their order are those of ``assess(spec, trace_curves(spec,
    net, op))``, ROOT_TOL_INVALID last; an empty crossing window
    (:func:`~syncstab.frequency_response.crossing_window`) is NoCrossing
    without an eigensolve.  The loop's grid is dropped then, and the point
    keeps its split, ``u_ref``, band and window ends.  The points go
    ``BATCH_POINTS`` at a time to :func:`~syncstab.statespace._loop_crossings`,
    which shares their eigensolves and Newton solves: each crossing is bit
    for bit the one the point has alone.  Each crossing is one
    ``SubsystemAssessment``, in ascending frequency, and agrees with the
    full scan's in verdict and count, and in ω and net damping to about
    1e-10, not bit for bit.  When a guard of the Newton fails for a point,
    its loop is built again, the window of its grid is scanned and refined
    as ``assess`` does, bit for bit the full scan's critical crossing, and
    the report ends with the note ``NEWTON_FALLBACK: <guard>``.
    """
    ops, outcomes = iter(ops), []
    while batch := list(islice(ops, BATCH_POINTS)):
        outcomes += _assess_batch(spec, net, batch, force_first_pll)
    return outcomes


def assess_point(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint, *,
                 force_first_pll: bool = False) -> StabilityReport:
    """The report of one operating point, :func:`assess_points` of it alone;
    its coded error is raised."""
    (outcome,) = assess_points(spec, net, [op], force_first_pll=force_first_pll)
    if isinstance(outcome, SyncstabError):
        raise outcome
    return outcome


def _assess_batch(spec: SystemSpec, net: ReducedNetwork, batch: list[OperatingPoint],
                  force_first_pll: bool) -> list[StabilityReport | SyncstabError]:
    """:func:`assess_points` of one batch, whose points' loops are built one
    after another and whose crossings are found together."""
    outcomes = [_coded(_prepare, spec, net, op, force_first_pll) for op in batch]
    pending = [k for k, item in enumerate(outcomes) if isinstance(item, _Point)]
    for k, found in zip(pending, _loop_crossings([outcomes[k] for k in pending])):
        outcomes[k] = _coded(_settle, spec, net, batch[k], outcomes[k], found, force_first_pll)
    return outcomes


def _coded(fn, *args):
    """``fn(*args)``, or the coded error it raises, without its traceback:
    the frames would hold the point's loop."""
    try:
        return fn(*args)
    except SyncstabError as exc:
        return exc.with_traceback(None)


def _prepare(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint,
             force_first_pll: bool) -> StabilityReport | _Point:
    """The point's report when its crossing window is empty, else what the
    Newton needs of its loop."""
    loop = _Loop(spec, net, op, None, force_first_pll)
    _require_root_tol(spec.options.root_tol_hz)
    if loop.window.start < loop.window.stop:
        return _point(loop)
    return assess(spec, _scan(loop, loop.window))


def _settle(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint, point: _Point,
            found, force_first_pll: bool) -> StabilityReport:
    """The report of the crossings ``found`` of ``point``; on a
    :class:`~syncstab.statespace._Fallback`, the windowed scan's report of
    the point's loop, built again, with the guard's note."""
    if isinstance(found, _Fallback):
        loop = _Loop(spec, net, op, None, force_first_pll)
        report = assess(spec, _scan(loop, loop.window))
        return replace(report, notes=report.notes + (f"NEWTON_FALLBACK: {found}",))
    gammas = gamma([w for w, _lam, _phi in found], point.u, point.kp, point.ki, point.omega0)
    # a list, not a generator, builds the tuple: a tuple built from a
    # generator is resized, which fills the interpreter's tuple free lists
    return _report(tuple([SubsystemAssessment(k, (_make_crossing(k, w, g, lam, phi),))
                          for k, ((w, lam, phi), g) in enumerate(zip(found, gammas))]),
                   list(point.warnings))


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
