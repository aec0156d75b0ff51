"""Reduced-order state-space oracle: eigenvalues, simulation, cross-check.

Independent of the frequency-domain criterion, the same physical model is
closed in the time domain.  States are the PLL angles Δθ and PI integrators x
(2n total).  Each PLL sees u_q = U·(Δδ + d − Δθ), where d is an exogenous
slack-angle disturbance and the network couples the angle deviations through

    Δδ = M_P·Δω/ω0 + M_Q·Δθ,      M_P = B^{-1}·P̃,  M_Q = B^{-1}·Q̃.

(The sign of this closure is fixed by consistency: with it, the scalar case
reproduces the net-damping boundary exactly — instability iff
M_P > (ω0·k_p/k_i)·(1 − M_Q) — and heavier generation is destabilizing, as
the criterion and the case studies require.)  Eliminating the algebraic loop
through Δω = K_P·u_q + x gives ż = A·z + b·d over z = [Δθ; x].

The oracle's verdict is the sign of the dominant oscillatory eigenvalue; the
cross-check compares it against the net-damping verdict and records the
frequency deviation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import MAX_SIM_STEPS, _number, _real
from .errors import AnalysisError
from .frequency_response import OperatingPoint, _require_fit
from .network import ReducedNetwork
from .stability import MARGINAL_BAND, NO_CROSSING, STABLE, UNSTABLE, StabilityReport
from .textio import write_table

__all__ = [
    "StateSpace", "DominantMode", "ModeSet", "AnglePulse", "SimResult",
    "CrossCheck", "assemble_state_space", "modes", "simulate", "crosscheck",
    "write_timeseries_csv", "write_modes_csv",
]

_LOOP_COND_LIMIT = 1e12
# an eigenvalue counts as oscillatory above this angular frequency (0.5 Hz)
_OSC_MIN_IM = 2.0 * math.pi * 0.5
# the loop's crossings by bordered Newton: rounds before a seed counts as not
# converged, the residual that stops it relative to |Γ| + ‖S_P‖ + (ω0/ω)·‖S_Q‖,
# the Jacobian floats of one stacked solve (21 of the station's 12 × 12
# systems, whose round peaks near 80 KB, below the 117 KB of building one
# point's loop), and the relative step past the outermost crossings at which
# the mode count is taken
_NEWTON_ROUNDS = 12
_NEWTON_TOL = 1e-12
_NEWTON_ENTRIES = 3 << 10
_COUNT_SHIFT = 1e-6


@dataclass(frozen=True)
class StateSpace:
    """Closed-loop linear model over states [Δθ_1..n, x_1..n].

    Besides the system matrix, the assembly keeps the operators needed to
    reconstruct outputs: ``b_pulse`` is the slack-angle input column, and
    (m_p, m_q, p_tilde) recover Δδ and the per-converter power proxy.
    """

    a_matrix: np.ndarray       # (2n, 2n)
    labels: tuple[str, ...]    # state names
    b_pulse: np.ndarray        # (2n,) input column for the angle disturbance
    b_omega: np.ndarray        # (n,) direct feedthrough of d into Δω
    m_p: np.ndarray            # (n, n) B^{-1} P~
    m_q: np.ndarray            # (n, n) B^{-1} Q~
    p_tilde: np.ndarray        # (n,)
    omega0: float

    @property
    def n(self) -> int:
        return self.m_p.shape[0]


@dataclass(frozen=True)
class DominantMode:
    sigma: float               # 1/s
    f_hz: float
    damping_ratio: float


@dataclass(frozen=True)
class ModeSet:
    eigenvalues: np.ndarray    # (2n,) complex, sorted by descending real part
    dominant: DominantMode | None
    note: str = ""


@dataclass(frozen=True)
class AnglePulse:
    """Rectangular slack-angle disturbance (linearized stand-in for a fault)."""

    start_s: float = 2.0
    width_s: float = 0.02
    amplitude_rad: float = 0.1

    def __post_init__(self) -> None:
        values = _real((self.start_s, self.width_s, self.amplitude_rad))
        if values is None or not np.isfinite(values).all():
            raise AnalysisError(f"pulse fields must be real, finite numbers: {self}",
                                code="SIM_PARAMS_INVALID")


@dataclass(frozen=True)
class SimResult:
    t_s: np.ndarray            # (m,)
    theta: np.ndarray          # (m, n) PLL angle deviations, rad
    omega: np.ndarray          # (m, n) PLL frequency deviations, rad/s
    dp: np.ndarray             # (m, n) linearized active-power proxy, pu


@dataclass(frozen=True)
class CrossCheck:
    status: str                # AGREE | DISAGREE | SKIPPED
    freq_dev_hz: float | None  # |f_c1 − f of the dominant mode|
    reason: str = ""


def assemble_state_space(net: ReducedNetwork, op: OperatingPoint,
                         kp, ki, omega0: float) -> StateSpace:
    """Assemble A (2n×2n) and the disturbance column for the reduced model.

    ``kp``/``ki`` may be scalars (shared PLL) or per-converter vectors.
    Raises ``AnalysisError`` (OP_INVALID) when ``op`` does not fit ``net``,
    (ORACLE_PARAMS_INVALID) unless each gain is a finite real number or a
    vector of one per converter and ω0 a finite real number, and
    (ALGEBRAIC_LOOP_SINGULAR) when the Δω loop matrix is numerically singular.
    """
    _require_fit(net, op)
    n = op.n
    u = op.u_pu
    kp_v, ki_v, omega0 = _real(kp), _real(ki), _number(omega0)
    if (kp_v is None or ki_v is None or omega0 is None
            or kp_v.shape not in ((), (n,)) or ki_v.shape not in ((), (n,))):
        raise AnalysisError(f"PLL gains must be real numbers, one or one per converter "
                            f"({n}), and omega0 one real number", code="ORACLE_PARAMS_INVALID")
    kp_v, ki_v = np.broadcast_to(kp_v, (n,)), np.broadcast_to(ki_v, (n,))
    if not np.isfinite([*kp_v, *ki_v, omega0]).all():
        raise AnalysisError("PLL gains and omega0 must be finite",
                            code="ORACLE_PARAMS_INVALID")

    m_p = np.linalg.solve(net.b_matrix, np.diag(op.p_tilde))
    m_q = np.linalg.solve(net.b_matrix, np.diag(op.q_tilde))

    kpu = kp_v * u                      # diag(K_P U) entries
    kiu = ki_v * u

    a, loop_inv, kium_p = _closed_loop(m_p, m_q, kpu, kiu, omega0, coded=True)
    if not np.all(np.isfinite(a)):
        raise AnalysisError("non-finite entries in the assembled state matrix",
                            code="ALGEBRAIC_LOOP_SINGULAR")

    b_omega = loop_inv @ kpu
    b_pulse = np.concatenate([b_omega, kiu + kium_p @ b_omega])

    names = tuple(net.converter_index)
    labels = tuple(f"theta_{nm}" for nm in names) + tuple(f"x_{nm}" for nm in names)
    return StateSpace(a_matrix=a, labels=labels, b_pulse=b_pulse,
                      b_omega=b_omega, m_p=m_p, m_q=m_q,
                      p_tilde=op.p_tilde.copy(), omega0=omega0)


def _closed_loop(m_p: np.ndarray, m_q: np.ndarray, kpu: np.ndarray, kiu: np.ndarray,
                 omega0: float, *, coded: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, loop⁻¹, K_I·U·M_P/ω0) of ż = A·z over z = [Δθ; x] for the network
    operators ``m_p``, ``m_q`` and the gains K_P·U, K_I·U per converter, or
    of each in a stack of them (ω0 then broadcast against the stack, as an
    (k, 1, 1) array): each matrix of a stack gets the bits it gets alone.
    A singular algebraic loop matrix I − K_P·U·M_P/ω0 raises ``LinAlgError``;
    with ``coded``, one whose condition number passes ``_LOOP_COND_LIMIT``
    raises ``AnalysisError`` (ALGEBRAIC_LOOP_SINGULAR) first."""
    n = kpu.shape[-1]
    loop = np.eye(n) - (kpu[..., None] * m_p) / omega0
    if coded and np.linalg.cond(loop) > _LOOP_COND_LIMIT:
        raise AnalysisError("algebraic loop matrix is numerically singular",
                            code="ALGEBRAIC_LOOP_SINGULAR")
    loop_inv = np.linalg.inv(loop)

    mq_minus_i = m_q - np.eye(n)
    a11 = loop_inv @ (kpu[..., None] * mq_minus_i)   # dθ/dt wrt θ (= Δω part)
    a12 = loop_inv                                   # dθ/dt wrt x
    kium_p = (kiu[..., None] * m_p) / omega0
    a21 = kiu[..., None] * mq_minus_i + kium_p @ a11  # dx/dt wrt θ
    a22 = kium_p @ a12                               # dx/dt wrt x
    return np.block([[a11, a12], [a21, a22]]), loop_inv, kium_p


class _Fallback(Exception):
    """A guard of :func:`_loop_crossings` failed for one point; the message names it."""


_SINGULAR = "a solve is singular or not finite"
# the state of a seed after :func:`_newton`
_CONVERGED, _STALLED, _REFUSED = 0, 1, 2


class _Point(NamedTuple):
    """What the crossing search keeps of one point's loop (a
    ``frequency_response._Loop``) once the loop's grid is gone: the quotient
    S_P and S_Q and the sums of its symmetry split, ``u_ref``, the PLL gains
    and ω0, the ends of the scan band and of the crossing window in rad/s,
    the difference vectors' crossings and the loop's warnings."""

    s_p: np.ndarray
    s_q: np.ndarray
    sums: np.ndarray
    u: float
    kp: float
    ki: float
    omega0: float
    band: tuple[float, float]
    ends: tuple[float, float]
    found: tuple
    warnings: tuple[str, ...]


def _point(loop) -> _Point:
    """The :class:`_Point` of ``loop``, whose window is not empty; tuples,
    so that an empty one is the shared empty tuple."""
    sym = loop.sym
    band = tuple(loop.omega[[0, -1]].tolist())
    return _Point(sym.s_p, sym.s_q, sym.sums, loop.u_ref, loop.kp, loop.ki, loop.omega0, band,
                  tuple(loop.omega[loop.window][[0, -1]].tolist()),
                  tuple(_difference_crossings(loop, *band)), tuple(loop.warnings))


def _loop_crossings(points: list[_Point]) -> list:
    """For each point, every crossing of its loop in its window as (ω, λ, φ)
    ascending in ω, found without a scan, or the :class:`_Fallback` that
    names the first of its guards to fail.

    A crossing is a root of (T(jω) − x·I)·v = 0 with T = Γ(jω)·I + G′_net(jω)
    and x real, the net damping.  So jω is an eigenvalue of the loop's
    realization with M_P → S_P + x·I, M_Q → S_Q and the gains K·``u_ref``
    (:func:`_closed_loop`).  Each difference vector of the symmetry split is
    a scalar loop with a closed-form crossing.  On the quotient, each
    eigenvalue of the unshifted realization with Im in the scan band seeds a
    bordered Newton (:func:`_newton`, Govaerts 2000) from (θ-part, Im s, 0).
    λ is the Rayleigh quotient φ*·G′_net·φ of φ = v/‖v‖, phased as zgeev
    phases it.

    The points share their solves and nothing else: the realizations of
    one size are one ``eig`` stack, the pending seeds of every point of one
    size go in one ``np.linalg.solve`` per Newton round (stacks of at most
    ``_NEWTON_ENTRIES`` Jacobian floats), and the mode counts are one
    ``eigvals`` stack.  LAPACK solves a stack one matrix at a time, a stack
    that fails is solved again matrix by matrix, and each seed stops on its
    own residual, so a point's crossings are bit for bit those it has alone.

    A point falls back on the first of these, in the order they are met: a
    singular solve or a non-finite matrix; a seed that does not converge; a
    crossing outside the window; one crossing reached twice (compared by φ
    too, so an exact double crossing counts twice); no crossing; and the
    mode count.  That last one needs the realization just below the smallest
    x to have no right-half-plane eigenvalue, and just above the largest x
    as many in-band right-half-plane modes as the quotient has crossings: a
    mode that crosses more than once, or is born off the real axis, shows
    there (``tests/test_frequency_response.py`` builds such a point).
    """
    with np.errstate(all="ignore"):
        return _guarded_crossings(points)


def _guarded_crossings(points: list[_Point]) -> list:
    """:func:`_loop_crossings` inside its ``np.errstate``."""
    out: list = [None] * len(points)
    counted = []
    for k, solved in _solve(points, _seeds(points, out)).items():
        p = points[k]
        if isinstance(solved, str):
            out[k] = _Fallback(solved)
            continue
        omega, x, psi = solved
        lam = (-np.einsum("ki,ij,kj->k", psi.conj(), p.s_p, psi).real
               + 1j * (p.omega0 / omega) * np.einsum("ki,ij,kj->k", psi.conj(), p.s_q, psi).real)
        found = [*p.found, *zip(omega.tolist(), x.tolist(), lam.tolist(), psi @ p.sums.T)]
        guard = _guard(found, *p.ends)
        if guard:
            out[k] = _Fallback(guard)
        else:
            counted.append((k, found, len(omega)))
    shifted = []
    for k, found, _count in counted:
        xs = [x_k for _w, x_k, _lam, _phi in found]
        shifted += [(points[k], min(xs) - _COUNT_SHIFT * max(1.0, abs(min(xs)))),
                    (points[k], max(xs) + _COUNT_SHIFT * max(1.0, abs(max(xs))))]
    counts = _stacked(lambda a: (np.linalg.eigvals(a),), _realizations(shifted))
    for (k, found, count), below, above in zip(counted, counts[::2], counts[1::2]):
        band = points[k].band
        if below is None or above is None:
            out[k] = _Fallback(_SINGULAR)
        elif ((below[0].real > 0.0).any() or np.count_nonzero(
                (above[0].real > 0.0) & (above[0].imag >= band[0])
                & (above[0].imag <= band[1])) != count):
            out[k] = _Fallback("the mode count differs from the crossings")
        else:
            found.sort(key=lambda c: c[0])
            out[k] = [(w, lam, phi) for w, _x, lam, phi in found]
    return out


def _seeds(points: list[_Point], out: list) -> list:
    """(k, θ-parts, Im s) of the modes with Im s in the scan band of each
    point k's unshifted realization; a point whose realization or ``eig``
    fails gets its :class:`_Fallback` in ``out`` instead."""
    seeds = []
    modes = _stacked(np.linalg.eig, _realizations([(p, 0.0) for p in points]))
    for k, (p, mode) in enumerate(zip(points, modes)):
        if mode is None:
            out[k] = _Fallback(_SINGULAR)
        else:
            vals, vecs = mode
            pick = np.flatnonzero((vals.imag >= p.band[0]) & (vals.imag <= p.band[1]))
            seeds.append((k, vecs[:len(p.s_p), pick].T, vals.imag[pick]))
    return seeds


def _guard(found: list, lo: float, hi: float) -> str | None:
    """The first guard that the crossings ``found`` (ω, x, λ, φ) fail: one
    outside the window [``lo``, ``hi``], one reached twice, or none."""
    if not all(lo <= w <= hi for w, _x, _lam, _phi in found):
        return "a crossing lies outside the window"
    for k, (w, x_k, _lam, phi) in enumerate(found):
        for w2, x2, _lam2, phi2 in found[:k]:
            if (abs(w - w2) <= 1e-8 * w and abs(x_k - x2) <= 1e-8 * max(1.0, abs(x_k))
                    and abs(phi2.conj() @ phi) >= 1.0 - 1e-8):
                return "one crossing is reached twice"
    return None if found else "no crossing"


def _stacked(fn, items: list) -> list:
    """``fn`` (a tuple of arrays from arrays) on each item, a sequence of
    arrays or None, the items of one shape stacked along a new first axis:
    a list of its results per item.  A stack that raises ``LinAlgError`` is
    solved again item by item; an item that fails alone, or is None, gets
    None."""
    out: list = [None] * len(items)
    groups: dict = {}
    for k, item in enumerate(items):
        if item is not None:
            groups.setdefault(item[0].shape, []).append(k)
    # lists, not generators, build the argument tuples: a tuple built from a
    # generator is resized, which fills the interpreter's tuple free lists
    for ks in groups.values():
        try:
            parts = [(ks, fn(*[np.stack(column) for column in zip(*[items[k] for k in ks])]))]
        except np.linalg.LinAlgError:
            parts = []
            for k in ks:
                try:
                    parts.append(([k], fn(*[a[None] for a in items[k]])))
                except np.linalg.LinAlgError:
                    pass
        for part, results in parts:
            for j, k in enumerate(part):
                out[k] = [r[j] for r in results]
    return out


def _realizations(items: list) -> list:
    """[A] of each (point, shift): the point's quotient realization with
    S_P + shift·I for M_P and S_Q for M_Q (:func:`_closed_loop`), the
    quotients of one size as one stack; None where the loop matrix is
    singular."""
    args = []
    for p, shift in items:
        g = len(p.s_p)
        args.append((p.s_p + shift * np.eye(g), p.s_q, np.full(g, p.kp * p.u),
                     np.full(g, p.ki * p.u), np.full((1, 1), p.omega0)))
    return _stacked(lambda *arrays: _closed_loop(*arrays)[:1], args)


def _solve(points: list[_Point], seeds: list) -> dict:
    """For each seeded point (k, θ-parts, Im s), the (ω, x, ψ) of its
    quotient's crossings by :func:`_newton`, in seed order, or the guard its
    seeds fail.  The seeds of every point of one size are solved together,
    in stacks of at most ``_NEWTON_ENTRIES`` Jacobian floats."""
    solved: dict = {}
    groups: dict = {}
    for seed in seeds:
        groups.setdefault(seed[1].shape[1], []).append(seed)
    for g, group in groups.items():
        owner = np.repeat(np.arange(len(group)), [len(omega) for _k, _t, omega in group])
        mine = [points[k] for k, _t, _w in group]
        s_p = np.stack([p.s_p for p in mine])[owner]
        s_q = np.stack([p.s_q for p in mine])[owner]
        params = np.array([(p.u, p.kp, p.ki, p.omega0, np.linalg.norm(p.s_p),
                            np.linalg.norm(p.s_q)) for p in mine])[owner]
        theta = np.concatenate([t for _k, t, _w in group])
        omega = np.concatenate([w for _k, _t, w in group])
        m = len(owner)
        result = (np.empty(m), np.empty(m), np.empty((m, g), dtype=complex),
                  np.empty(m, dtype=int))
        stack = max(1, _NEWTON_ENTRIES // (2 * g + 2) ** 2)
        for start in range(0, m, stack):
            part = slice(start, start + stack)
            for into, value in zip(result, _newton(s_p[part], s_q[part], params[part],
                                                   theta[part], omega[part])):
                into[part] = value
        for j, (k, _t, _w) in enumerate(group):
            rows = owner == j
            state = result[3][rows]
            solved[k] = (_SINGULAR if (state == _REFUSED).any()
                         else "a seed does not converge" if (state == _STALLED).any()
                         else [r[rows] for r in result[:3]])
    return solved


def _newton(s_p: np.ndarray, s_q: np.ndarray, params: np.ndarray, seeds: np.ndarray,
            omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ω, x, ψ, state) of the quotient's crossing from each seed row (its
    θ-part) at Im s = ``omega``, each on its own S_P and S_Q (stacks) and
    ``params`` row (u, k_p, k_i, ω0, ‖S_P‖, ‖S_Q‖), each ψ a unit row phased
    with its largest entry real and positive.  The real bordered system of
    each seed is [[T − x·I, dT/dω·ψ, −ψ], [c*, 0, 0]] over (ψ, ω, x), c the
    unit seed.

    Each seed stops at the first of ``_NEWTON_ROUNDS`` rounds whose residual
    ‖(T − x·I)·ψ‖ is at most ``_NEWTON_TOL``·(|Γ| + ‖S_P‖ + (ω0/ω)·‖S_Q‖)
    (state ``_CONVERGED``), and only the seeds still pending are stepped,
    with stacked products and one stacked solve per round.  So a seed's
    bits are its own, whatever the stack holds.  A seed that never gets
    there is ``_STALLED``, and one whose Jacobian LAPACK refuses alone is
    ``_REFUSED`` and leaves the stack."""
    m, g = seeds.shape
    psi = seeds / np.linalg.norm(seeds, axis=1)[:, None]
    out = (omega.copy(), np.zeros(m), psi.copy(), np.full(m, _STALLED))
    live, x, c = np.arange(m), np.zeros(m), psi.conj()
    # the border rows of each system, Re c*ψ = 1 and Im c*ψ = 0
    border = np.stack((np.hstack((psi.real, psi.imag)), np.hstack((-psi.imag, psi.real))),
                      axis=1)
    diagonal = np.arange(g)
    for _round in range(_NEWTON_ROUNDS):
        u, kp, ki, omega0, norm_p, norm_q = params.T
        # Γ as frequency_response.gamma forms it, without its checks: a step
        # that leaves ω > 0 is a seed that does not converge, not an error
        jw = 1j * omega
        g_pll = kp + ki / jw
        gam = omega0 * (jw / g_pll + u) / (jw * u)
        ratio = omega0 / omega
        t = (1j * ratio)[:, None, None] * s_q - s_p
        t[:, diagonal, diagonal] += (gam - x)[:, None]                # T(jω) − x·I
        r = (t @ psi[:, :, None])[:, :, 0]
        done = np.linalg.norm(r, axis=1) <= _NEWTON_TOL * (np.abs(gam) + norm_p
                                                            + ratio * norm_q)
        if done.any():
            rows = live[done]
            out[0][rows], out[1][rows], out[2][rows], out[3][rows] = (
                omega[done], x[done], psi[done], _CONVERGED)
            (live, psi, omega, x, c, border, s_p, s_q, params, t, r, g_pll, ratio) = (
                a[~done] for a in (live, psi, omega, x, c, border, s_p, s_q, params, t, r,
                                   g_pll, ratio))
            if not len(live):
                break
            u, ki = params[:, 0], params[:, 2]
        # formed afresh each round, so that dropping a seed copies no Jacobian
        jac = np.zeros((len(live), 2 * g + 2, 2 * g + 2))
        jac[:, 2 * g:, :2 * g] = border
        jac[:, :g, :g] = jac[:, g:2 * g, g:2 * g] = t.real
        jac[:, :g, g:2 * g] = -t.imag
        jac[:, g:2 * g, :g] = t.imag
        # dT/dω·ψ = Γ′·ψ − j·(ω0/ω²)·S_Q·ψ, S_Q·ψ a matvec per seed
        slope = 1j * ratio / omega * (1.0 - ki / (u * g_pll**2))
        d_t = (slope[:, None] * psi
               - (1j * ratio / omega)[:, None] * (psi[:, None, :] @ s_q)[:, 0, :])
        jac[:, :g, 2 * g], jac[:, g:2 * g, 2 * g] = d_t.real, d_t.imag
        jac[:, :g, 2 * g + 1], jac[:, g:2 * g, 2 * g + 1] = -psi.real, -psi.imag
        offset = (c * psi).sum(axis=1) - 1.0
        f = np.concatenate((r.real, r.imag, offset.real[:, None], offset.imag[:, None]),
                           axis=1)
        try:
            step = np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step, refused = _solve_each(jac, f)
            out[3][live[refused]] = _REFUSED
            (live, psi, omega, x, c, border, s_p, s_q, params, step) = (
                a[~refused] for a in (live, psi, omega, x, c, border, s_p, s_q, params, step))
            if not len(live):
                break
        psi = psi + (step[:, :g] + 1j * step[:, g:2 * g])
        omega, x = omega + step[:, 2 * g], x + step[:, 2 * g + 1]
    psi, rows = out[2], np.arange(m)
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    top = np.abs(psi).argmax(axis=1)
    psi *= (psi[rows, top].conj() / np.abs(psi[rows, top]))[:, None]
    psi[rows, top] = psi[rows, top].real
    return out


def _solve_each(jac: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(steps, refused): each Newton system solved alone, as in its stack,
    and which ones LAPACK refuses."""
    step, refused = np.zeros(f.shape), np.zeros(len(f), dtype=bool)
    for k in range(len(f)):
        try:
            step[k] = np.linalg.solve(jac[k:k + 1], -f[k:k + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            refused[k] = True
    return step, refused


def _difference_crossings(loop, lo: float, hi: float) -> list:
    """(ω, x, λ, φ) of each difference vector's crossing in [lo, hi]: its loop
    Γ(jω) − a + j·(ω0/ω)·b is scalar, so Im = 0 at ω² = u·k_i²·(1 − b) /
    (k_i − u·k_p²·(1 − b)) and x = ω0·k_p·(1 − b)/k_i − a there."""
    sym, omega0 = loop.sym, loop.omega0
    u, kp, ki = loop.u_ref, loop.kp, loop.ki
    one_b = 1.0 - sym.b
    den = ki - u * kp**2 * one_b
    found = []
    for d in np.flatnonzero((one_b > 0.0) & (den > 0.0)):
        w = math.sqrt(u * ki**2 * one_b[d] / den[d])
        if lo <= w <= hi:
            x = omega0 * kp * one_b[d] / ki - sym.a[d]
            # a copy: a view would hold every difference vector while the crossing lives
            found.append((w, x, -sym.a[d] + 1j * (omega0 / w) * sym.b[d],
                          sym.diffs[:, d].copy()))
    return found


def modes(ss: StateSpace) -> ModeSet:
    """All eigenvalues of A plus the dominant oscillatory mode.

    Dominant = maximal real part among eigenvalues with |Im| above 2π·0.5
    (sub-0.5 Hz and aperiodic modes are not synchronization oscillations).
    When no oscillatory mode exists the note says NO_OSC_MODE.  Raises
    ``AnalysisError`` (EIG_NOT_CONVERGED) when LAPACK gives up.
    """
    try:
        vals = np.linalg.eigvals(ss.a_matrix)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(f"the state-space oracle's eigensolver did not converge: "
                            f"{exc}", code="EIG_NOT_CONVERGED") from None
    order = np.lexsort((np.abs(vals.imag), -vals.real))
    vals = vals[order]
    osc = vals[np.abs(vals.imag) > _OSC_MIN_IM]
    if len(osc) == 0:
        return ModeSet(eigenvalues=vals, dominant=None, note="NO_OSC_MODE")
    lam = osc[np.argmax(osc.real)]
    mag = abs(lam)
    dom = DominantMode(sigma=float(lam.real),
                       f_hz=float(abs(lam.imag) / (2.0 * math.pi)),
                       damping_ratio=float(-lam.real / mag) if mag > 0 else 0.0)
    return ModeSet(eigenvalues=vals, dominant=dom)


def simulate(ss: StateSpace, disturbance: AnglePulse | None = None,
             dt: float = 1e-4, duration: float = 3.0) -> SimResult:
    """Trapezoidal integration of ż = A·z + b·d(t) from rest.

    ``d(t)`` is the rectangular pulse; the state is zero, and is not stepped,
    before the first nonzero input sample.  From there each step writes its
    row of the state in place, with no temporaries: the input term
    ``step_in·(d[k] + d[k+1])`` is formed once per distinct input sum (at
    most three for a pulse) and added to ``step_mat·z[k]``, the same
    operations in the same order as forming both per step.  Outputs are
    reconstructed per step (Δω from the loop solution, the active-power proxy
    as P̃·Δδ), each built in place in an (steps + 1, n) array of its own;
    the 2n-wide state is freed before the proxy is formed.  Raises
    ``AnalysisError`` (SIM_PARAMS_INVALID) when ``dt`` or
    ``duration`` is not one real number (text, a bool, an array) or not
    ``0 < dt < duration < inf``, for more than ``MAX_SIM_STEPS`` steps, all
    before anything is allocated, and when ``disturbance`` is neither an
    ``AnglePulse`` nor None; and (SIM_NOT_FINITE) when the response overflows.
    """
    step, length = _number(dt), _number(duration)
    if step is None or length is None or not 0 < step < length < math.inf:   # NaN too
        raise AnalysisError(f"need real numbers 0 < dt < duration < inf, got dt={dt}, "
                            f"duration={duration}", code="SIM_PARAMS_INVALID")
    dt, duration = step, length
    if duration / dt > MAX_SIM_STEPS:
        raise AnalysisError(f"duration/dt = {duration / dt:.6g} exceeds the "
                            f"{MAX_SIM_STEPS} steps allowed", code="SIM_PARAMS_INVALID")
    if not isinstance(disturbance, (AnglePulse, type(None))):
        raise AnalysisError(f"the disturbance must be an AnglePulse or None, got "
                            f"{type(disturbance).__name__}", code="SIM_PARAMS_INVALID")
    pulse = AnglePulse() if disturbance is None else disturbance

    steps = int(round(duration / dt))
    t = np.arange(steps + 1) * dt
    d = np.where((t >= pulse.start_s) & (t < pulse.start_s + pulse.width_s),
                 pulse.amplitude_rad, 0.0)

    n2 = ss.a_matrix.shape[0]
    eye = np.eye(n2)
    half = 0.5 * dt
    left_inv = np.linalg.inv(eye - half * ss.a_matrix)
    step_mat = left_inv @ (eye + half * ss.a_matrix)
    step_in = left_inv @ (half * ss.b_pulse)

    # from rest, z stays exactly zero until the step into the first nonzero
    # input sample, so the loop starts there (or never runs when d == 0)
    z = np.zeros((steps + 1, n2))
    nonzero = np.flatnonzero(d)
    first = max(int(nonzero[0]) - 1, 0) if len(nonzero) else steps
    n = ss.n
    # a huge input overflows; the check below reports it once, with a code
    with np.errstate(over="ignore", invalid="ignore"):
        _march(z[first:], d[first:], step_mat, step_in)
        omega = z[:, :n] @ ss.a_matrix[:n, :n].T
        omega += z[:, n:] @ ss.a_matrix[:n, n:].T
        omega += np.outer(d, ss.b_omega)
        # theta gets rows of its own, so the integrator half is freed with z
        theta = z[:, :n].copy()
        del z
        # Δδ is not kept, so the check below does not add to the peak memory
        dp = (omega / ss.omega0) @ ss.m_p.T
        dp += theta @ ss.m_q.T
        dp *= ss.p_tilde
        dp += 0.0           # a zero times a negative P̃ is -0.0; the proxy at rest reads 0
    if not all(np.isfinite(a).all() for a in (theta, omega, dp)):
        raise AnalysisError(f"the response to {pulse} is not finite",
                            code="SIM_NOT_FINITE")
    return SimResult(t_s=t, theta=theta, omega=omega, dp=dp)


def _march(z: np.ndarray, d: np.ndarray, step_mat: np.ndarray, step_in: np.ndarray
           ) -> None:
    """z[k + 1] = step_mat·z[k] + step_in·(d[k] + d[k + 1]) in place, for each
    row k of ``z`` but the last.  The forcing vector is formed once per
    distinct input sum: 0 + 0, 0 + a, a + a for a pulse of amplitude a != 0
    (``simulate`` never marches when a is ±0), so -0.0 never occurs and the
    sums are safe dict keys."""
    forcing = {}
    for prev, nxt, d0, d1 in zip(z[:-1], z[1:], d[:-1], d[1:]):
        total = d0 + d1
        push = forcing.get(total)
        if push is None:
            push = forcing[total] = step_in * total
        np.matmul(step_mat, prev, out=nxt)
        np.add(nxt, push, out=nxt)


def crosscheck(report: StabilityReport, modeset: ModeSet) -> CrossCheck:
    """Compare the net-damping verdict against the oracle's eigenvalues.

    AGREE when a Stable verdict meets a strictly damped dominant mode or an
    Unstable verdict meets a growing one; SKIPPED for Marginal/NoCrossing
    verdicts or when no oscillatory mode exists; DISAGREE otherwise.
    """
    f_c1 = report.critical.f_c1 if report.critical else None
    if modeset.dominant is None:
        return CrossCheck("SKIPPED", None, reason="oracle found no oscillatory mode")
    dom = modeset.dominant
    freq_dev = abs(f_c1 - dom.f_hz) if f_c1 is not None else None
    if report.verdict == NO_CROSSING:
        return CrossCheck("SKIPPED", None, reason="criterion had no crossing")
    if report.margin is not None and abs(report.margin) <= MARGINAL_BAND:
        return CrossCheck("SKIPPED", freq_dev, reason="margin inside the marginal band")
    agree = (report.verdict == STABLE and dom.sigma < 0) or \
            (report.verdict == UNSTABLE and dom.sigma > 0)
    return CrossCheck("AGREE" if agree else "DISAGREE", freq_dev)


def write_timeseries_csv(sim: SimResult, fh) -> None:
    """Emit ``t_s,theta_1..n,omega_1..n,dp_1..n`` rows (12 sig digits)."""
    n = sim.theta.shape[1]
    header = (["t_s"]
              + [f"theta_{i + 1}" for i in range(n)]
              + [f"omega_{i + 1}" for i in range(n)]
              + [f"dp_{i + 1}" for i in range(n)])
    write_table(fh, header, [sim.t_s, sim.theta, sim.omega, sim.dp])


def write_modes_csv(modeset: ModeSet, fh) -> None:
    """Emit ``re,im,f_hz,damping_ratio`` rows, descending real part."""
    vals = modeset.eigenvalues
    mag = np.hypot(vals.real, vals.imag)    # bit for bit abs(λ), which np.abs is not
    write_table(fh, ["re", "im", "f_hz", "damping_ratio"],
                [vals.real, vals.imag, np.abs(vals.imag) / (2.0 * math.pi),
                 np.divide(-vals.real, mag, out=np.zeros(len(vals)), where=mag > 0)])
