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
# the floats of one stacked solve, and the relative step past the outermost
# crossings at which the mode count is taken
_NEWTON_ROUNDS = 12
_NEWTON_TOL = 1e-12
_NEWTON_ENTRIES = 1 << 14
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
    operators ``m_p``, ``m_q`` and the gains K_P·U, K_I·U per converter.
    A singular algebraic loop matrix I − K_P·U·M_P/ω0 raises ``LinAlgError``;
    with ``coded``, one whose condition number passes ``_LOOP_COND_LIMIT``
    raises ``AnalysisError`` (ALGEBRAIC_LOOP_SINGULAR) first."""
    n = len(kpu)
    loop = np.eye(n) - (kpu[:, None] * m_p) / omega0
    if coded and np.linalg.cond(loop) > _LOOP_COND_LIMIT:
        raise AnalysisError("algebraic loop matrix is numerically singular",
                            code="ALGEBRAIC_LOOP_SINGULAR")
    loop_inv = np.linalg.inv(loop)

    mq_minus_i = m_q - np.eye(n)
    a11 = loop_inv @ (kpu[:, None] * mq_minus_i)     # dθ/dt wrt θ (= Δω part)
    a12 = loop_inv                                   # dθ/dt wrt x
    kium_p = (kiu[:, None] * m_p) / omega0
    a21 = kiu[:, None] * mq_minus_i + kium_p @ a11   # dx/dt wrt θ
    a22 = kium_p @ a12                               # dx/dt wrt x
    return np.block([[a11, a12], [a21, a22]]), loop_inv, kium_p


class _Fallback(Exception):
    """A guard of :func:`_loop_crossings` failed; the message names it."""


def _loop_crossings(loop) -> list[tuple[float, complex, np.ndarray]]:
    """Every crossing of ``loop`` (a ``frequency_response._Loop``) in its
    window, as (ω, λ, φ) ascending in ω, without a scan.

    A crossing is a root of (T(jω) − x·I)·v = 0 with T = Γ(jω)·I + G′_net(jω)
    and x real, the net damping.  So jω is an eigenvalue of the loop's
    realization with M_P → S_P + x·I, M_Q → S_Q and the gains K·``u_ref``
    (:func:`_closed_loop`).  Each difference vector of the symmetry split is
    a scalar loop with a closed-form crossing.  On the quotient, each
    eigenvalue of the unshifted realization with Im in the scan band seeds a
    bordered Newton (Govaerts 2000) from (θ-part, Im s, 0); the crossings
    go in stacks of at most ``_NEWTON_ENTRIES`` floats, one
    ``np.linalg.solve`` per stack and round.  λ is the Rayleigh quotient
    φ*·G′_net·φ of φ = v/‖v‖, phased as zgeev phases it.

    Raises :class:`_Fallback`, naming the first guard that fails, cheapest
    first: a seed that does not converge, a crossing outside the window,
    one crossing reached twice (compared by φ too, so an exact double
    crossing counts twice), no crossing, and the mode count.  That last
    one needs the realization just below the smallest x to have no
    right-half-plane eigenvalue, and just above the largest x as many
    in-band right-half-plane modes as the quotient has crossings: a mode
    that crosses more than once, or is born off the real axis, shows there
    (``tests/test_frequency_response.py`` builds such a point).  A singular
    solve or a non-finite matrix falls back too.
    """
    try:
        with np.errstate(all="ignore"):
            return _guarded_crossings(loop)
    except np.linalg.LinAlgError:
        raise _Fallback("a solve is singular or not finite") from None


def _guarded_crossings(loop) -> list[tuple[float, complex, np.ndarray]]:
    """:func:`_loop_crossings`, which turns a ``LinAlgError`` into a fallback."""
    sym, omega0 = loop.sym, loop.omega0
    band = loop.omega[[0, -1]]
    g = len(sym.classes)
    found = _difference_crossings(loop, *band)
    vals, vecs = np.linalg.eig(_realization(loop, 0.0))
    seeds = np.flatnonzero((vals.imag >= band[0]) & (vals.imag <= band[1]))
    stack = max(1, _NEWTON_ENTRIES // (2 * g + 2) ** 2)
    parts = [_newton(loop, vecs[:g, part].T, vals.imag[part])
             for part in np.split(seeds, range(stack, len(seeds), stack))]
    omega, x, psi = (np.concatenate(arrays) for arrays in zip(*parts))
    lam = (-np.einsum("ki,ij,kj->k", psi.conj(), sym.s_p, psi).real
           + 1j * (omega0 / omega) * np.einsum("ki,ij,kj->k", psi.conj(), sym.s_q, psi).real)
    found += zip(omega.tolist(), x.tolist(), lam.tolist(), psi @ sym.sums.T)
    lo, hi = loop.omega[loop.window][[0, -1]]
    if not all(lo <= w <= hi for w, _x, _lam, _phi in found):
        raise _Fallback("a crossing lies outside the window")
    for k, (w, x_k, _lam, phi) in enumerate(found):
        for w2, x2, _lam2, phi2 in found[:k]:
            if (abs(w - w2) <= 1e-8 * w and abs(x_k - x2) <= 1e-8 * max(1.0, abs(x_k))
                    and abs(phi2.conj() @ phi) >= 1.0 - 1e-8):
                raise _Fallback("one crossing is reached twice")
    if not found:
        raise _Fallback("no crossing")
    xs = [x_k for _w, x_k, _lam, _phi in found]
    shifts = [min(xs) - _COUNT_SHIFT * max(1.0, abs(min(xs))),
              max(xs) + _COUNT_SHIFT * max(1.0, abs(max(xs)))]
    below, above = np.linalg.eigvals(np.stack([_realization(loop, shift) for shift in shifts]))
    if ((below.real > 0.0).any() or np.count_nonzero(
            (above.real > 0.0) & (above.imag >= band[0]) & (above.imag <= band[1]))
            != len(omega)):
        raise _Fallback("the mode count differs from the crossings")
    found.sort(key=lambda c: c[0])
    return [(w, lam, phi) for w, _x, lam, phi in found]


def _realization(loop, shift: float) -> np.ndarray:
    """A of the loop's quotient with S_P + ``shift``·I for M_P and S_Q for M_Q."""
    sym = loop.sym
    g = len(sym.classes)
    u = np.full(g, loop.u_ref)
    return _closed_loop(sym.s_p + shift * np.eye(g), sym.s_q, loop.kp * u, loop.ki * u,
                        loop.omega0)[0]


def _newton(loop, seeds: np.ndarray, omega: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ω, x, ψ) of the quotient's crossing from each seed row (θ-parts) at
    Im s = ``omega``, each ψ a unit row phased with its largest entry real
    and positive.  The real bordered system of each seed is
    [[T − x·I, dT/dω·ψ, −ψ], [c*, 0, 0]] over (ψ, ω, x), c the unit seed."""
    sym, omega0, u, kp, ki = loop.sym, loop.omega0, loop.u_ref, loop.kp, loop.ki
    m, g = seeds.shape
    psi = seeds / np.linalg.norm(seeds, axis=1)[:, None]
    omega, x = omega.copy(), np.zeros(m)
    scale = np.linalg.norm(sym.s_p), np.linalg.norm(sym.s_q)
    jac = np.zeros((m, 2 * g + 2, 2 * g + 2))
    jac[:, 2 * g, :2 * g] = np.hstack((psi.real, psi.imag))      # border: Re c*ψ = 1
    jac[:, 2 * g + 1, :2 * g] = np.hstack((-psi.imag, psi.real))  # and Im c*ψ = 0
    c = psi.conj()
    f = np.zeros((m, 2 * g + 2))
    diagonal = np.arange(g)
    for _round in range(_NEWTON_ROUNDS):
        # Γ as frequency_response.gamma forms it, without its checks: a step
        # that leaves ω > 0 is a seed that does not converge, not an error
        jw = 1j * omega
        g_pll = kp + ki / jw
        gam = omega0 * (jw / g_pll + u) / (jw * u)
        ratio = omega0 / omega
        t = (1j * ratio)[:, None, None] * sym.s_q - sym.s_p
        t[:, diagonal, diagonal] += (gam - x)[:, None]                # T(jω) − x·I
        r = (t @ psi[:, :, None])[:, :, 0]
        if (np.linalg.norm(r, axis=1)
                <= _NEWTON_TOL * (np.abs(gam) + scale[0] + ratio * scale[1])).all():
            break
        jac[:, :g, :g] = jac[:, g:2 * g, g:2 * g] = t.real
        jac[:, :g, g:2 * g] = -t.imag
        jac[:, g:2 * g, :g] = t.imag
        # dT/dω·ψ = Γ′·ψ − j·(ω0/ω²)·S_Q·ψ
        slope = 1j * ratio / omega * (1.0 - ki / (u * g_pll**2))
        d_t = slope[:, None] * psi - (1j * ratio / omega)[:, None] * (psi @ sym.s_q)
        jac[:, :g, 2 * g], jac[:, g:2 * g, 2 * g] = d_t.real, d_t.imag
        jac[:, :g, 2 * g + 1], jac[:, g:2 * g, 2 * g + 1] = -psi.real, -psi.imag
        border = (c * psi).sum(axis=1) - 1.0
        f[:, :g], f[:, g:2 * g] = r.real, r.imag
        f[:, 2 * g], f[:, 2 * g + 1] = border.real, border.imag
        step = np.linalg.solve(jac, -f[:, :, None])[:, :, 0]
        psi = psi + (step[:, :g] + 1j * step[:, g:2 * g])
        omega, x = omega + step[:, 2 * g], x + step[:, 2 * g + 1]
    else:
        raise _Fallback("a seed does not converge")
    rows = np.arange(m)
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    top = np.abs(psi).argmax(axis=1)
    psi *= (psi[rows, top].conj() / np.abs(psi[rows, top]))[:, None]
    psi[rows, top] = psi[rows, top].real
    return omega, x, psi


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
