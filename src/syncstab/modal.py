"""Per-converter decomposition of the stability indicator.

At the critical crossing the indicator decomposes exactly into

    D_net1 = Re λ1 = −Σ η_i·P_i,      Im λ1 = (ω0/ω_c1)·Σ η_i·Q_i

with η_i = |(B^{-1/2}·φ)_i|²/U_i² ≥ 0 built from the unit eigenvector φ of
G′_net(jω_c1).  This is a Rayleigh-quotient identity (λ1 = φ*G′_netφ holds
exactly for a unit right eigenvector), so η needs no normality assumption.
The η_i rank converters by influence and explain why flipping generation to
consumption at dominant converters raises the indicator.  They are the paper's
weights, not derivatives: G′_net is complex symmetric, so its left eigenvector
is φᵀ and ∂D_net1/∂P_i = −Re[(B^{-1/2}·φ)_i² / (φᵀφ)] / U_i², which equals
−η_i only when φ is real up to a phase.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemSpec
from .errors import AnalysisError
from .frequency_response import OperatingPoint, _eig, _is_int, _omega, _require_fit, _split
from .network import ReducedNetwork
from .pipeline import assess_point
from .stability import StabilityReport
from .textio import write_table

__all__ = [
    "ModalWeights", "Sensitivities", "FDCheck", "AdjustmentResult",
    "modal_weights", "modal_weights_from_report", "sensitivities",
    "finite_difference_check", "adjustment_compare", "write_sensitivity_csv",
]

_FD_DELTA_P = 1e-4     # active-power step of the finite-difference check, pu


@dataclass(frozen=True)
class ModalWeights:
    """Eigenvector-derived converter weights at the critical crossing."""

    phi: np.ndarray            # unit right eigenvector of G'_net(j omega_c1)
    phi_b1: np.ndarray         # B^{-1/2} phi
    eta: np.ndarray            # |phi_b1|^2 / U^2, entrywise >= 0
    eta_complex: np.ndarray    # literal phi_b1^2 / U^2 (diagnostic only)
    omega_r1: float            # omega0 / omega_c1
    omega_c1: float
    lam1: complex


@dataclass(frozen=True)
class Sensitivities:
    dd_dp: np.ndarray          # -eta (the paper's table, not the derivative)
    dd_dq: np.ndarray          # zeros (likewise)
    dominant: int              # argmax |eta|, ties -> lowest index


@dataclass(frozen=True)
class FDCheck:
    predicted: float
    measured: float
    rel_err: float


@dataclass(frozen=True)
class AdjustmentResult:
    before: StabilityReport    # each has a critical crossing
    after: StabilityReport
    positive_inertia_before: int
    positive_inertia_after: int
    per_converter_delta_p: np.ndarray
    improvement: bool          # D_net1 after > D_net1 before


def modal_weights(net: ReducedNetwork, op: OperatingPoint, omega_c1: float,
                  omega0: float) -> ModalWeights:
    """Weights η at frequency ``omega_c1``, on the eigenvalue with minimal Re λ.

    A stability report already carries the critical branch's eigenpair; use
    :func:`modal_weights_from_report` to read the weights off it.  Raises
    ``AnalysisError`` (DEGENERATE_FREQ) unless ``omega_c1`` is real, finite
    and > 0.
    """
    omega_c1 = _omega(omega_c1, "modal_weights")
    sym = _split(net, op, omega0, omega_c1)[0]
    vals, vecs = sym.lift(*_eig(sym.s_p, sym.s_q, omega0, omega_c1), omega0 / omega_c1)
    j = int(np.argmin(vals.real))
    return _weights(net, op, omega_c1, omega0, vals[j], vecs[:, j])


def _weights(net: ReducedNetwork, op: OperatingPoint, omega_c1: float,
             omega0: float, lam: complex, phi: np.ndarray) -> ModalWeights:
    phi = phi / np.linalg.norm(phi)            # phi* phi = 1
    phi_b1 = net.b_inv_sqrt @ phi
    eta = np.abs(phi_b1) ** 2 / op.u_pu**2
    eta_complex = phi_b1**2 / op.u_pu**2
    return ModalWeights(phi=phi, phi_b1=phi_b1, eta=eta,
                        eta_complex=eta_complex,
                        omega_r1=omega0 / omega_c1, omega_c1=omega_c1, lam1=lam)


def modal_weights_from_report(net: ReducedNetwork, op: OperatingPoint,
                              report: StabilityReport, omega0: float) -> ModalWeights:
    """Weights η from the eigenpair the report's critical crossing was found on.

    Raises ``AnalysisError`` (NO_CROSSING) for a report without a crossing,
    and (OP_INVALID) when ``op`` or the report's eigenvector does not fit
    ``net``.
    """
    if report.critical is None:
        raise AnalysisError("report has no critical crossing (NoCrossing verdict)",
                            code="NO_CROSSING")
    c = report.critical
    _require_fit(net, op)
    if np.shape(c.phi) != (net.n,):
        raise AnalysisError(f"the report's eigenvector has shape {np.shape(c.phi)}, the "
                            f"network {net.n} converters", code="OP_INVALID")
    return _weights(net, op, c.omega_c1, omega0, c.lam1, c.phi)


def sensitivities(weights: ModalWeights) -> Sensitivities:
    """The paper's sensitivity table, −η for P and zero for Q, and the
    dominant converter.

    Neither column is the exact derivative of D_net1 (see the module
    docstring); :func:`finite_difference_check` measures the real one.
    """
    eta = weights.eta
    return Sensitivities(dd_dp=-eta, dd_dq=np.zeros_like(eta),
                         dominant=int(np.argmax(eta)))


def _critical(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint,
              force_first_pll: bool) -> StabilityReport:
    """Assess one operating point; the report always has a critical crossing."""
    report = assess_point(spec, net, op, force_first_pll=force_first_pll)
    if report.critical is None:
        raise AnalysisError("no crossing found while evaluating the indicator",
                            code="NO_CROSSING")
    return report


def finite_difference_check(spec: SystemSpec, net: ReducedNetwork,
                            op: OperatingPoint, i: int) -> FDCheck:
    """Compare −η_i against a finite difference of the full pipeline.

    The difference is a one-converter re-dispatch through
    :func:`adjustment_compare`, so voltages are frozen at ``op.u_pu``.
    The crossing is re-solved on the perturbed point, so the measured value
    is a total-derivative estimate; the predicted value is the paper's
    weight −η_i.  The two differ because −η_i is not the partial derivative
    at fixed ω (see the module docstring), not because the crossing moves:
    on the station's cases that partial already matches the measured total.
    Raises ``AnalysisError`` (OP_INVALID) unless ``i`` is an integer in
    0..n − 1; a negative index is refused, not counted from the end.
    """
    if not _is_int(i) or not 0 <= i < op.n:
        raise AnalysisError(f"converter index {i!r} is not an integer in 0..{op.n - 1}",
                            code="OP_INVALID")
    p2 = op.p_pu.copy()
    p2[i] += _FD_DELTA_P
    cmp = adjustment_compare(spec, net, op, p2)
    weights = modal_weights_from_report(net, op, cmp.before, spec.omega0)
    predicted = -float(weights.eta[i])
    measured = (cmp.after.critical.d_net1 - cmp.before.critical.d_net1) / _FD_DELTA_P
    rel_err = abs(measured - predicted) / max(abs(predicted), 1e-300)
    return FDCheck(predicted=predicted, measured=measured, rel_err=rel_err)


def adjustment_compare(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint,
                       p_after: np.ndarray, *, force_first_pll: bool = False) -> AdjustmentResult:
    """Full before/after pipeline comparison for an active-power re-dispatch.

    The after-point is ``OperatingPoint(p_after, op.q_pu, op.u_pu)``: only P
    moves, and Q and the voltages stay frozen at ``op``'s, honoring the
    small-perturbation voltage assumption.  So ``p_after`` must hold one
    finite value per converter (``AnalysisError`` OP_INVALID otherwise).
    Each point is assessed at its own critical frequency; either one without
    a crossing raises NO_CROSSING.  Each is traced over its crossing window
    only (:func:`~syncstab.pipeline.assess_point`); ``force_first_pll`` is
    passed on.
    """
    op_after = OperatingPoint(p_after, op.q_pu, op.u_pu)
    before = _critical(spec, net, op, force_first_pll)
    after = _critical(spec, net, op_after, force_first_pll)
    return AdjustmentResult(
        before=before, after=after,
        positive_inertia_before=int(np.sum(op.p_pu > 0)),
        positive_inertia_after=int(np.sum(op_after.p_pu > 0)),
        per_converter_delta_p=op_after.p_pu - op.p_pu,
        improvement=bool(after.critical.d_net1 > before.critical.d_net1))


def write_sensitivity_csv(weights: ModalWeights, sens: Sensitivities,
                          names: tuple[str, ...], fh, *,
                          eta_complex: bool = False) -> None:
    """Emit ``converter,eta,dD_dP,dD_dQ,dominant_flag`` rows (12 sig digits).

    With ``eta_complex`` two diagnostic columns carry the literal
    complex-square weights.
    """
    header = ["converter", "eta", "dD_dP", "dD_dQ", "dominant_flag"]
    columns = [names, weights.eta, sens.dd_dp, sens.dd_dq, np.arange(len(names)) == sens.dominant]
    if eta_complex:
        header += ["eta_c_re", "eta_c_im"]
        columns += [weights.eta_complex.real, weights.eta_complex.imag]
    write_table(fh, header, columns)
