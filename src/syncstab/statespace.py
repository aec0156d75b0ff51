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
    loop = np.eye(n) - (kpu[:, None] * m_p) / omega0
    if np.linalg.cond(loop) > _LOOP_COND_LIMIT:
        raise AnalysisError("algebraic loop matrix is numerically singular",
                            code="ALGEBRAIC_LOOP_SINGULAR")
    loop_inv = np.linalg.inv(loop)

    mq_minus_i = m_q - np.eye(n)
    a11 = loop_inv @ (kpu[:, None] * mq_minus_i)     # dθ/dt wrt θ (= Δω part)
    a12 = loop_inv                                   # dθ/dt wrt x
    kium_p = (kiu[:, None] * m_p) / omega0
    a21 = kiu[:, None] * mq_minus_i + kium_p @ a11   # dx/dt wrt θ
    a22 = kium_p @ a12                               # dx/dt wrt x

    a = np.block([[a11, a12], [a21, a22]])
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
