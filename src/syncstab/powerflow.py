"""Steady-state voltages at converter terminals (lossless Newton-Raphson).

The analysis needs the voltage amplitudes U_i that scale the per-unit
injections (P_i/U_i^2, Q_i/U_i^2) and the PLL gain path.  Converters are PQ
nodes, interior nodes are zero-injection PQ nodes, the slack holds 1.0 per
unit at angle zero.  The network is purely inductive, so the polar power-flow
equations reduce to

    P_i = sum_j U_i U_j b_ij sin(th_i - th_j)
    Q_i = U_i^2 sum_j b_ij - sum_j U_i U_j b_ij cos(th_i - th_j)

with b_ij the branch susceptance magnitude.  ``flat_voltage`` mode skips the
solve and pins U = 1, delta = 0 (the approximation most of the frequency-
domain theory quietly assumes).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemSpec, _real
from .errors import PowerFlowError
from .network import assemble_laplacian

__all__ = ["SteadyState", "solve_steady_state"]

_TOL = 1e-8
_MAX_ITER = 50
_U_BAND = (0.5, 1.5)


@dataclass(frozen=True)
class SteadyState:
    """Converter-terminal steady state plus slack balance numbers."""

    u_pu: np.ndarray          # (n,) converter voltage amplitudes
    delta0_rad: np.ndarray    # (n,) converter voltage angles
    iterations: int
    slack_p_pu: float         # active power injected by the slack
    slack_q_pu: float         # reactive power injected by the slack (nan in flat mode)
    flat: bool = False


def solve_steady_state(
    spec: SystemSpec,
    p_conv: np.ndarray,
    q_conv: np.ndarray,
    *,
    flat_voltage: bool | None = None,
) -> SteadyState:
    """Solve for converter-terminal voltages at the given injections.

    ``p_conv``/``q_conv`` follow converter declaration order.  ``flat_voltage``
    overrides ``spec.options.flat_voltage`` when given.

    Raises ``PowerFlowError`` with code ``PF_NOT_FINITE`` for an injection
    that is not a real, finite number, or a sum of P that overflows at flat
    voltage;
    ``PF_DIVERGED`` when Newton-Raphson fails to reach 1e-8 mismatch in 50
    iterations or the mismatch stops being finite; and
    ``PF_VOLTAGE_OUT_OF_BAND`` when a converged solution leaves (0.5, 1.5) pu
    at a converter terminal.
    """
    n = spec.n_converters
    p_conv, q_conv = _real(p_conv), _real(q_conv)
    real = p_conv is not None and q_conv is not None
    if real and (p_conv.shape != (n,) or q_conv.shape != (n,)):
        raise PowerFlowError(
            f"injection vectors must have shape ({n},)", code="PF_BAD_SHAPE")
    if not (real and np.isfinite(p_conv).all() and np.isfinite(q_conv).all()):
        raise PowerFlowError("injections must be real, finite numbers", code="PF_NOT_FINITE")

    flat = spec.options.flat_voltage if flat_voltage is None else flat_voltage
    if flat:
        # lossless network: slack always absorbs exactly -sum(P); reactive
        # balance is undefined without a solved voltage profile
        with np.errstate(over="ignore"):
            slack_p = -float(np.sum(p_conv))
        if not np.isfinite(slack_p):
            raise PowerFlowError("the slack's balance -sum(P) overflows", code="PF_NOT_FINITE")
        return SteadyState(
            u_pu=np.ones(n), delta0_rad=np.zeros(n),
            iterations=0,
            slack_p_pu=slack_p, slack_q_pu=float("nan"),
            flat=True)

    lap, index = assemble_laplacian(spec)
    d = np.diag(lap).copy()
    w = np.diag(d) - lap          # off-diagonal branch susceptances, zero diag

    n_nodes = lap.shape[0]
    slack = index[spec.slack_node]
    free = np.array([i for i in range(n_nodes) if i != slack], dtype=int)

    target_p = np.zeros(n_nodes)
    target_q = np.zeros(n_nodes)
    conv_rows = np.array([index[c.node] for c in spec.converters], dtype=int)
    target_p[conv_rows] = p_conv
    target_q[conv_rows] = q_conv

    theta = np.zeros(n_nodes)
    u = np.ones(n_nodes)

    iterations = 0
    # a huge but finite injection overflows the mismatch; it is refused below
    # as soon as that happens, without NumPy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER + 1):
            diff = theta[:, None] - theta[None, :]
            c_full = w * np.cos(diff)
            s_full = w * np.sin(diff)
            a = c_full @ u            # sum_j b_ij U_j cos
            s = s_full @ u            # sum_j b_ij U_j sin
            p = u * s
            q = d * u * u - u * a
            mismatch = np.concatenate([(target_p - p)[free], (target_q - q)[free]])
            residual = np.max(np.abs(mismatch))
            if residual <= _TOL:
                break
            if not np.isfinite(residual):
                raise PowerFlowError(f"mismatch not finite after {iterations} iterations",
                                     code="PF_DIVERGED")
            if iterations >= _MAX_ITER:
                raise PowerFlowError(
                    f"no convergence after {_MAX_ITER} iterations "
                    f"(residual {residual:.3e})", code="PF_DIVERGED")

            uu = np.outer(u, u)
            h = -uu * c_full + np.diag(u * a)             # dP/dtheta
            nmat = u[:, None] * s_full + np.diag(s)       # dP/dU
            m = -uu * s_full + np.diag(u * s)             # dQ/dtheta
            lmat = -u[:, None] * c_full + np.diag(2.0 * d * u - a)   # dQ/dU

            jac = np.block([[h[np.ix_(free, free)], nmat[np.ix_(free, free)]],
                            [m[np.ix_(free, free)], lmat[np.ix_(free, free)]]])
            try:
                step = np.linalg.solve(jac, mismatch)
            except np.linalg.LinAlgError:
                raise PowerFlowError("singular power-flow Jacobian",
                                     code="PF_DIVERGED") from None
            k = len(free)
            theta[free] += step[:k]
            u[free] += step[k:]
            iterations += 1
        else:  # pragma: no cover - loop always breaks or raises
            raise PowerFlowError("internal iteration error", code="PF_DIVERGED")

    u_conv = u[conv_rows].copy()
    if np.any(u_conv <= _U_BAND[0]) or np.any(u_conv >= _U_BAND[1]):
        raise PowerFlowError(
            f"converter voltage outside ({_U_BAND[0]}, {_U_BAND[1]}) pu: "
            f"{np.array2string(u_conv, precision=4)}",
            code="PF_VOLTAGE_OUT_OF_BAND")

    # p, q are from the last iteration, which did not move the state
    return SteadyState(
        u_pu=u_conv, delta0_rad=theta[conv_rows].copy(),
        iterations=iterations,
        slack_p_pu=float(p[slack]), slack_q_pu=float(q[slack]),
        flat=False)
