"""Spring crossings, net damping, critical subsystem, verdict.

Subsystem i is assessed at every frequency where its total spring coefficient
K_con(ω) + K_neti(ω) crosses zero.  The system is stable by the criterion when
D_con(ω_ci) + D_neti(ω_ci) > 0 at every such crossing; the globally minimal
sum defines the critical subsystem, its crossing frequency ω_c1, and the
stability indicator D_net1 = D_neti(ω_c1).

Crossings are bracketed on the scan grid and refined by safeguarded regula
falsi (Illinois steps with a bisection fallback, see :func:`_refine_steps`).
Each trial frequency re-evaluates the loop exactly through
:meth:`SubsystemCurves.loops`, which selects the eigenpair by overlap with a
carried reference eigenvector (no interpolation of eigenvalues); this module
never forms Γ or G′_net itself.  All crossings of a point are refined
together, in rounds (:func:`_run`): round 0 re-solves every crossing's grid
point, and each later round evaluates every pending trial frequency in one
batched call, solved as stacks.  Each crossing takes exactly the steps it
would take alone, so the result is bit-identical; where every crossing
takes at most 3 steps, as on the station and on grouped n = 20 grids, a
point costs at most 4 rounds, one stacked solve each while its crossings
fit one stack.  Verdicts inside ``MARGINAL_BAND`` of zero are reported
Marginal instead of being coin-flipped by rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .config import SystemSpec, _number
from .errors import AnalysisError
from .frequency_response import SubsystemCurves, _is_int

__all__ = [
    "MARGINAL_BAND",
    "STABLE", "UNSTABLE", "MARGINAL", "NO_CROSSING",
    "Crossing", "SubsystemAssessment", "CriticalPoint", "StabilityReport",
    "find_crossings", "assess",
]

MARGINAL_BAND = 1e-3   # dimensionless damping; |margin| inside it -> Marginal

STABLE = "Stable"
UNSTABLE = "Unstable"
MARGINAL = "Marginal"
NO_CROSSING = "NoCrossing"


@dataclass(frozen=True)
class Crossing:
    """One zero of K_con + K_neti with the damping sums evaluated there."""

    subsystem: int
    omega_ci: float
    f_ci: float
    d_con: float
    d_neti: float
    k_neti: float
    net_damping: float           # d_con + d_neti
    lam: complex                 # tracked eigenvalue at the crossing
    phi: np.ndarray              # matching unit eigenvector of G'_net


@dataclass(frozen=True)
class SubsystemAssessment:
    index: int
    crossings: tuple[Crossing, ...]


@dataclass(frozen=True)
class CriticalPoint:
    subsystem: int
    omega_c1: float
    f_c1: float
    d_net1: float
    d_con_at_c1: float
    margin: float                # d_net1 + d_con_at_c1
    lam1: complex
    phi: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    verdict: str
    margin: float | None
    critical: CriticalPoint | None
    per_subsystem: tuple[SubsystemAssessment, ...]
    notes: tuple[str, ...] = ()


def _refine_steps(curves: SubsystemCurves, i: int, k_lo: int, root_tol_hz: float):
    """The refinement of the sign change of subsystem i inside grid cell
    [k_lo, k_lo+1], as a step sequence for :func:`_run`: it yields each
    evaluation it needs as (ω, pick) (see :meth:`SubsystemCurves.loops`),
    is sent its (Γ, λ, φ), and returns the :class:`Crossing`.

    Illinois regula falsi (Dowell & Jarratt 1971): each trial point is the
    chord point of the bracket, with the chord weight of an end kept twice
    in a row halved (the true end values stay), clamped ``root_tol_hz/2``
    inside the bracket so that a step next to the root is followed by one
    across it.  Once two chord steps in a row fail to halve the bracket, each
    further one that fails, until one halves it, is followed by a bisection
    step.  The crossing is the chord point of the final bracket's true end
    values, or its midpoint if that chord point falls outside.
    """
    f_lo, f_hi = curves.f_hz[k_lo], curves.f_hz[k_lo + 1]
    g_lo = w_lo = curves.k_con[k_lo] + curves.k_net[i, k_lo]          # w: chord weights
    g_hi = w_hi = curves.k_con[k_lo + 1] + curves.k_net[i, k_lo + 1]
    ref = (yield curves.omega_rad_s[k_lo], curves.columns[k_lo, i])[2]
    kept, misses, bisect = 0, 0, False   # kept: +1 low end, -1 high end

    while (f_hi - f_lo) > root_tol_hz:
        f_mid = 0.5 * (f_lo + f_hi)
        if f_mid in (f_lo, f_hi):      # adjacent floats: the bracket cannot shrink
            break
        width, f = f_hi - f_lo, f_mid
        if not bisect:
            chord = f_lo + w_lo / (w_lo - w_hi) * width
            chord = min(max(chord, f_lo + 0.5 * root_tol_hz), f_hi - 0.5 * root_tol_hz)
            f = chord if f_lo < chord < f_hi else f_mid
        # the new eigenvector becomes the reference: branch identity carried inward
        g, lam, ref = yield 2.0 * np.pi * f, ref
        g_f = g.imag + lam.imag
        if (g_f < 0.0) == (g_lo < 0.0):
            w_hi *= 0.5 if kept < 0 else 1.0
            f_lo, g_lo, w_lo, kept = f, g_f, g_f, -1
        else:
            w_lo *= 0.5 if kept > 0 else 1.0
            f_hi, g_hi, w_hi, kept = f, g_f, g_f, 1
        if not bisect:
            misses = misses + 1 if (f_hi - f_lo) > 0.5 * width else 0
        bisect = not bisect and misses >= 2

    f_c = f_lo + g_lo / (g_lo - g_hi) * (f_hi - f_lo)
    omega_c = 2.0 * np.pi * (f_c if f_lo <= f_c <= f_hi else 0.5 * (f_lo + f_hi))
    return _make_crossing(i, omega_c, *(yield omega_c, ref))


def _zero_steps(curves: SubsystemCurves, i: int, k: int):
    """The crossing of subsystem i at grid point k, where K_con + K_neti is
    exactly zero, as a step sequence of one evaluation (see :func:`_run`)."""
    return _make_crossing(i, curves.omega_rad_s[k],
                          *(yield curves.omega_rad_s[k], curves.columns[k, i]))


def _run(curves: SubsystemCurves, sequences: list) -> list[Crossing]:
    """The results of the step ``sequences``, in their order, run in rounds:
    each round sends every pending evaluation to one
    :meth:`SubsystemCurves.loops` call and advances each sequence by one step
    with its own answer.  A sequence sees exactly what it would alone."""
    results: list = [None] * len(sequences)
    pending: list[tuple[int, tuple]] = []

    def advance(s: int, answer) -> None:
        try:
            pending.append((s, sequences[s].send(answer)))
        except StopIteration as stop:
            results[s] = stop.value

    for s in range(len(sequences)):
        advance(s, None)
    while pending:
        asked, pending = pending, []
        answers = curves.loops(np.array([omega for _s, (omega, _pick) in asked]),
                               [pick for _s, (_omega, pick) in asked])
        for (s, _request), answer in zip(asked, answers):
            advance(s, answer)
    return results


def _refine(curves: SubsystemCurves, i: int, k_lo: int, root_tol_hz: float
            ) -> Crossing:
    """The crossing of :func:`_refine_steps` on its own."""
    return _run(curves, [_refine_steps(curves, i, k_lo, root_tol_hz)])[0]


def _make_crossing(i: int, omega_c: float, g: complex, lam: complex,
                   phi: np.ndarray) -> Crossing:
    return Crossing(
        subsystem=i, omega_ci=omega_c, f_ci=omega_c / (2.0 * np.pi),
        d_con=g.real, d_neti=lam.real, k_neti=lam.imag,
        net_damping=g.real + lam.real, lam=lam, phi=phi)


def _require_root_tol(root_tol_hz) -> None:
    """Raise ``AnalysisError`` (ROOT_TOL_INVALID) unless ``root_tol_hz`` is a
    real number > 0 (text, bools and NaN are refused)."""
    tol = _number(root_tol_hz)
    if tol is None or not tol > 0:
        raise AnalysisError(f"root_tol_hz must be a real number > 0, got {root_tol_hz!r}",
                            code="ROOT_TOL_INVALID")


def _sequences(curves: SubsystemCurves, i: int, root_tol_hz: float) -> list:
    """The step sequences of subsystem i's crossings, ascending in frequency:
    one per exact zero at a grid point and one per grid cell whose ends
    change sign (a cell with an exact zero at either end is not one)."""
    g = curves.k_con + curves.k_net[i]
    zero, neg = g == 0.0, g < 0.0
    cell = np.append((neg[:-1] != neg[1:]) & ~zero[:-1] & ~zero[1:], False)
    return [_zero_steps(curves, i, k) if zero[k] else _refine_steps(curves, i, k, root_tol_hz)
            for k in np.flatnonzero(zero | cell).tolist()]


def find_crossings(curves: SubsystemCurves, i: int,
                   root_tol_hz: float = 1e-4) -> list[Crossing]:
    """All zeros of K_con + K_neti for subsystem i, ascending in frequency.

    Grid sign changes are refined by safeguarded regula falsi to a bracket
    |Δf| ≤ ``root_tol_hz``, or to adjacent floats when that is finer, and
    reported inside that bracket; exact zeros at grid points are
    taken as crossings directly.  All of them advance together, one batched
    evaluation per round (see :func:`_run`).  Raises ``AnalysisError``
    (SUBSYSTEM_INVALID) unless ``i`` is an integer in 0..n − 1 (a bool or a
    negative index is refused, not read as a number or counted from the
    end), and (ROOT_TOL_INVALID) unless ``root_tol_hz`` is a real number > 0.
    """
    n = len(curves.k_net)
    if not _is_int(i) or not 0 <= i < n:
        raise AnalysisError(f"subsystem index {i!r} is not an integer in 0..{n - 1}",
                            code="SUBSYSTEM_INVALID")
    _require_root_tol(root_tol_hz)
    return _run(curves, _sequences(curves, i, root_tol_hz))


def assess(spec: SystemSpec, curves: SubsystemCurves) -> StabilityReport:
    """Evaluate the positive-net-damping criterion over every subsystem.

    The crossings of every subsystem are refined together, as in
    :func:`find_crossings`.  The verdict follows the globally minimal net
    damping over all crossings: Stable above +MARGINAL_BAND, Unstable below
    −MARGINAL_BAND, Marginal inside the band.  With no crossing anywhere in
    the scan band the verdict is NoCrossing (the criterion is only defined
    at crossings; stability is *not* silently asserted).
    """
    tol = spec.options.root_tol_hz
    _require_root_tol(tol)
    per_subsystem = [_sequences(curves, i, tol) for i in range(curves.n)]
    found = iter(_run(curves, [s for sequences in per_subsystem for s in sequences]))
    assessments = tuple(SubsystemAssessment(i, tuple(islice(found, len(sequences))))
                        for i, sequences in enumerate(per_subsystem))

    notes = [f"branch overlap below threshold at {len(curves.branch_jumps)} "
             f"grid point(s)"] if curves.branch_jumps else []
    notes.extend(curves.warnings)
    all_crossings = [c for a in assessments for c in a.crossings]
    if not all_crossings:
        notes.append("NO_CROSSING: K_con + K_neti has no zero in the scan "
                     "band for any subsystem; criterion not applicable")
        return StabilityReport(NO_CROSSING, None, None, assessments, tuple(notes))

    worst = min(all_crossings, key=lambda c: c.net_damping)
    critical = CriticalPoint(
        subsystem=worst.subsystem, omega_c1=worst.omega_ci, f_c1=worst.f_ci,
        d_net1=worst.d_neti, d_con_at_c1=worst.d_con,
        margin=worst.net_damping, lam1=worst.lam, phi=worst.phi)

    if critical.margin > MARGINAL_BAND:
        verdict = STABLE
    elif critical.margin < -MARGINAL_BAND:
        verdict = UNSTABLE
    else:
        verdict = MARGINAL
    return StabilityReport(verdict, critical.margin, critical, assessments,
                           tuple(notes))
