"""Frequency responses: converter-side Γ(jω) and network-side G_net(jω).

The converter side collapses (for identical PLL gains) to one complex scalar

    Γ(jω) = ω0 · (jω/G_pll(jω) + U) / (jω·U),     G_pll(jω) = k_p + k_i/(jω)

whose real/imaginary parts are the converter-side damping and spring
coefficients.  The network side is the complex matrix

    G_net(jω) = −B^{-1}·P̃ + j·(ω0/ω)·B^{-1}·Q̃

with P̃ = diag{P_i/U_i²}, Q̃ = diag{Q_i/U_i²}.  Its similar symmetric form
G′_net = −B^{-1/2}·P̃·B^{-1/2} + j·(ω0/ω)·B^{-1/2}·Q̃·B^{-1/2} shares the
eigenvalues and yields the eigenvectors used downstream for modal weights.

:func:`trace_curves` eigendecomposes G′_net over a frequency grid and matches
eigenvalue branches between consecutive points by greedy maximal eigenvector
overlap, so each branch i is a continuous function of ω (subsystem i).

Converters that are interchangeable (a transposition of the two leaves B,
P̃, Q̃ and U unchanged) make G′_net commute with their permutations.  In the
symmetry-adapted basis (Fässler & Stiefel) of one normalised sum vector per
class and Helmert difference vectors inside each class, G′_net splits into a
g×g quotient on the class sums and, per difference vector d, the exact
eigenvalue −dᵀS_P·d + j·(ω0/ω)·dᵀS_Q·d.  Only the quotient is solved, and
the scan matches in the sums basis; without interchangeable converters the
classes are n singletons, whose quotient is G′_net itself.

:func:`crossing_window` certifies where on the scan grid a crossing can lie.
For a unit eigenvector φ, Im λ_i = (ω0/ω)·φ*S_Qφ lies in (ω0/ω)·[λmin(S_Q),
λmax(S_Q)] (Bendixson), so K_con + K_neti can only vanish where h(ω) =
−K_con(ω)·ω/ω0 is in that range; a computed eigenvalue is off by at most
zgeev's backward error, for which the range is padded.  The window is the
slice of the grid over every cell whose [h_k, h_{k+1}] meets the padded
range; outside it every branch's K_con + K_neti keeps one sign, so the full
scan has no sign change and no exact zero there.  Branch matching between two
points depends on those points only (up to exact overlap ties), so a trace of
the window finds the same crossings, refined the same way, as the full
scan.  ``sweep``, ``adjust``, ``sensitivity`` and the finite-difference
check, which read only the critical crossing, find it by a bordered Newton
that must land inside the window (:func:`~syncstab.pipeline.assess_points`),
within about 1e-10 of the scan's and not bit for bit; they trace the window
only when a guard of the Newton fails.  ``analyze``, ``curves`` and
``run_analysis`` trace the full grid.  The certificate holds for this loop:
a complex-symmetric G′ with real symmetric S_P and S_Q, and K_con from the
one mean voltage ``u_ref``.  A loop with per-converter U or gains must
re-derive or widen the window; the containment tests in
``tests/test_frequency_response.py`` fail if it does not.

One private ``_Loop`` per operating point holds the loop's gains, ω0,
``u_ref``, Γ over the grid, the symmetry split and the crossing window;
:func:`_scan` scans a slice of its grid, the whole grid or the window, and
the curves view that slice.  Its ``at`` is the one evaluator of (Γ, λ, φ)
off the scan, batched: it forms Γ in one :func:`gamma` call and solves the
quotients as stacks of at most ``_BLOCK_ENTRIES`` entries, the scan's block
rule.  :meth:`SubsystemCurves.loops` hands it a row of ω, the only way to
ask it.

``_quotient`` is the one formula of the quotient −S_P + j·(ω0/ω)·S_Q: the
scan forms each block's matrices with it, and ``_eig``, which solves every
refinement step and the scan's first point, forms its matrices with it, so
the same ω gives the same bits on the scan and off it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MAX_SCAN_POINTS, SystemSpec, _is_bool, _number, _real, _scan_points_ok
from .errors import AnalysisError
from .network import ReducedNetwork
from .textio import write_table

__all__ = [
    "OperatingPoint",
    "SubsystemCurves",
    "gamma",
    "build_gnet",
    "build_gnet_sym",
    "sym_parts",
    "resolve_pll_gains",
    "trace_curves",
    "crossing_window",
    "per_converter_gamma",
    "write_curves_csv",
]

# tracked-branch continuity alarm: consecutive eigenvector overlap below this
# raises a BRANCH_JUMP flag on the curve set
OVERLAP_THRESHOLD = 0.7
# relative tolerance of the symmetry tests: converters whose setpoints, U and
# rows of B agree to this are interchangeable, and each difference vector
# must be an eigenvector of S_P and S_Q to this residual
_SYMMETRY_TOL = 1e-12
# matrix entries per block of the scan's eigenvector buffer: the points of a
# block are matched with one batched overlap product
_BLOCK_ENTRIES = 400
# the largest ω0/ω, and entry of (ω0/ω)·S_Q, at which the loop is evaluated:
# sums of a few such terms stay below the float range
_LOOP_MAX = 1e300
# the crossing window's pad, relative to ‖S_P‖·ω/ω0 + ‖S_Q‖: far above
# zgeev's backward error of a few n·ε
_WINDOW_PAD = 1e-8


@dataclass(frozen=True)
class OperatingPoint:
    """Converter injections plus the steady-state voltage amplitudes.

    Raises ``AnalysisError`` (OP_INVALID) for values that are not real
    numbers (complex, text or bool), vectors of unequal length, non-finite
    values, a voltage amplitude U ≤ 0, or a non-finite P/U² or Q/U².
    """

    p_pu: np.ndarray
    q_pu: np.ndarray
    u_pu: np.ndarray

    def __post_init__(self):
        p, q, u = (_real(v) for v in (self.p_pu, self.q_pu, self.u_pu))
        if p is None or q is None or u is None:
            raise AnalysisError("p_pu, q_pu, u_pu must be real numbers", code="OP_INVALID")
        p, q, u = np.atleast_1d(p, q, u)
        if not (p.shape == q.shape == u.shape) or p.ndim != 1:
            raise AnalysisError("p_pu, q_pu, u_pu must be equal-length vectors",
                                code="OP_INVALID")
        if not np.isfinite([p, q, u]).all():
            raise AnalysisError("p_pu, q_pu, u_pu must be finite", code="OP_INVALID")
        if np.any(u <= 0):
            raise AnalysisError("voltage amplitudes must be positive", code="OP_INVALID")
        # a tiny U passes the tests above yet overflows P/U² or Q/U²
        with np.errstate(all="ignore"):
            scaled = np.stack((p, q)) / u**2
        if not np.isfinite(scaled).all():
            raise AnalysisError("P/U² and Q/U² must be finite", code="OP_INVALID")
        object.__setattr__(self, "p_pu", p)
        object.__setattr__(self, "q_pu", q)
        object.__setattr__(self, "u_pu", u)

    @property
    def n(self) -> int:
        return len(self.p_pu)

    @property
    def p_tilde(self) -> np.ndarray:
        """P_i/U_i² (diagonal entries)."""
        return self.p_pu / self.u_pu**2

    @property
    def q_tilde(self) -> np.ndarray:
        """Q_i/U_i² (diagonal entries)."""
        return self.q_pu / self.u_pu**2


def _require_fit(net: ReducedNetwork, op: OperatingPoint) -> None:
    """Raise ``AnalysisError`` (OP_INVALID) unless ``op`` has one entry per
    converter of ``net``."""
    if op.n != net.n:
        raise AnalysisError(f"operating point has {op.n} converters, the network "
                            f"{net.n}", code="OP_INVALID")


def _omega(omega, what: str, *, scalar: bool = True):
    """``omega`` as a float, or as a float array unless ``scalar``.  Raises
    ``AnalysisError`` (DEGENERATE_FREQ) unless it is real, finite and > 0."""
    w = _real(omega)
    if w is None or (scalar and w.ndim) or not np.all((w > 0) & (w < np.inf)):
        raise AnalysisError(f"{what} needs a real, finite omega > 0", code="DEGENERATE_FREQ")
    return float(w) if scalar else w


def gamma(omega, u: float, kp: float, ki: float, omega0: float):
    """Converter-side Γ(jω); ``u``, ``kp`` and ``ki`` broadcast against ``omega``.

    Raises ``AnalysisError`` (code DEGENERATE_FREQ) unless every ω is real,
    finite and > 0, and Γ finite at each.
    """
    jw = 1j * _omega(omega, "gamma", scalar=False)
    with np.errstate(over="ignore", invalid="ignore"):
        g_pll = kp + ki / jw
        value = omega0 * (jw / g_pll + u) / (jw * u)
    if not np.isfinite(value).all():
        raise AnalysisError("gamma overflows at this omega", code="DEGENERATE_FREQ")
    return complex(value) if value.ndim == 0 else value


def sym_parts(net: ReducedNetwork, op: OperatingPoint) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-independent pieces of G′_net: (S_P, S_Q), both real symmetric.

    G′_net(jω) = −S_P + j·(ω0/ω)·S_Q with S_X = B^{-1/2}·diag(X̃)·B^{-1/2}.
    Raises ``AnalysisError`` (OP_INVALID) when ``op`` does not fit ``net``,
    and when ‖S_P‖ or ‖S_Q‖ overflows (P or Q of about 1e154 pu and above
    on a network of ordinary strength).
    """
    _require_fit(net, op)
    r = net.b_inv_sqrt
    s_p = r @ np.diag(op.p_tilde) @ r
    s_q = r @ np.diag(op.q_tilde) @ r
    with np.errstate(over="ignore"):
        finite = np.isfinite([np.linalg.norm(s_p), np.linalg.norm(s_q)]).all()
    if not finite:
        raise AnalysisError("the norm of S_P or S_Q overflows: the powers are too large",
                            code="OP_INVALID")
    return 0.5 * (s_p + s_p.T), 0.5 * (s_q + s_q.T)


class _Symmetry:
    """G′_net in the symmetry-adapted basis of its classes of interchangeable
    converters: ``sums`` (n, g) and ``diffs`` (n, n − g) are orthonormal
    columns, ``s_p``/``s_q`` the g×g quotient of S_P/S_Q on the sums and
    ``a``/``b`` the eigenvalues dᵀS_P·d and dᵀS_Q·d of the differences."""

    def __init__(self, classes, sums, diffs, s_p, s_q, a, b):
        self.classes, self.sums, self.diffs = classes, sums, diffs
        self.s_p, self.s_q, self.a, self.b = s_p, s_q, a, b

    def values(self, vals: np.ndarray, omega_r) -> np.ndarray:
        """The n eigenvalues at ω0/ω = ``omega_r``: the quotient's ``vals``,
        then the differences' −a + j·(ω0/ω)·b."""
        return np.concatenate((vals, -self.a + 1j * omega_r * self.b))

    def lift(self, vals: np.ndarray, psi: np.ndarray, omega_r
             ) -> tuple[np.ndarray, np.ndarray]:
        """All n eigenpairs of G′_net from the quotient's (``vals``, ``psi``)
        at ω0/ω = ``omega_r``, the only n-long eigenvectors: the quotient's
        lifted by the sums (columns 0..g−1), then the differences."""
        return self.values(vals, omega_r), np.hstack((self.sums @ psi, self.diffs))


def _classes(net: ReducedNetwork, op: OperatingPoint) -> list[list[int]]:
    """Classes of interchangeable converters, each in config order; n
    singletons when no two converters are interchangeable.

    Converters a and b are interchangeable when the transposition (a b)
    leaves p̃, q̃, U and B unchanged, each to ``_SYMMETRY_TOL`` relative to
    its largest entry.  The setpoints are compared first, so a plant without
    equal setpoints never looks at B.
    """
    keys = np.stack((op.p_tilde, op.q_tilde, op.u_pu))            # (3, n)
    tol = _SYMMETRY_TOL * np.abs(keys).max(axis=1)
    with np.errstate(over="ignore"):    # setpoints too far apart to subtract are not near
        near = (np.abs(keys[:, :, None] - keys[:, None, :]) <= tol[:, None, None]).all(axis=0)
    n = op.n
    b = net.b_matrix
    b_tol = _SYMMETRY_TOL * np.abs(b).max()
    classes: list[list[int]] = []
    for j in range(n):
        for members in classes:
            i = members[0]
            if near[i, j]:
                swap = np.arange(n)
                swap[[i, j]] = j, i
                if np.abs(b[np.ix_(swap, swap)] - b).max() <= b_tol:
                    members.append(j)
                    break
        else:
            classes.append([j])
    return classes


def _symmetry(classes: list[list[int]], s_p: np.ndarray, s_q: np.ndarray) -> _Symmetry:
    """The symmetry-adapted split of S_P and S_Q; that of n singletons (sums
    = I, quotient = S_P/S_Q bit for bit) when a difference vector is not an
    eigenvector of both to ``_SYMMETRY_TOL``·‖S_X‖."""
    n, g = len(s_p), len(classes)
    sums, diffs = np.zeros((n, g)), np.zeros((n, n - g))
    col = 0
    for c, members in enumerate(classes):
        sums[members, c] = 1.0 / np.sqrt(len(members))
        for k in range(1, len(members)):     # Helmert: the first k against the next
            scale = 1.0 / np.sqrt(k * (k + 1))
            diffs[members[:k], col] = scale
            diffs[members[k], col] = -k * scale
            col += 1
    split = []
    for s in (s_p, s_q):
        s_diffs = s @ diffs
        x = np.einsum("ij,ij->j", diffs, s_diffs)
        residual = np.linalg.norm(s_diffs - diffs * x, axis=0)
        if np.any(residual > _SYMMETRY_TOL * np.linalg.norm(s)):
            return _symmetry([[j] for j in range(n)], s_p, s_q)
        quotient = sums.T @ s @ sums
        split.append((0.5 * (quotient + quotient.T), x))
    (s_p_q, a), (s_q_q, b) = split
    return _Symmetry(classes, sums, diffs, s_p_q, s_q_q, a, b)


def _split(net: ReducedNetwork, op: OperatingPoint, omega0: float, omega: float
           ) -> tuple[_Symmetry, np.ndarray, np.ndarray]:
    """(split, S_P, S_Q): :func:`sym_parts` and their symmetry split.  Raises
    ``AnalysisError`` (DEGENERATE_FREQ) unless ω0/ω and the entries of
    (ω0/ω)·S_Q are at most ``_LOOP_MAX`` at ω, and so at every higher
    frequency."""
    s_p, s_q = sym_parts(net, op)
    sym = _symmetry(_classes(net, op), s_p, s_q)
    with np.errstate(over="ignore"):
        top = omega0 / omega * max(1.0, np.abs(sym.s_q).max(), np.abs(sym.b).max(initial=0.0))
    if not top <= _LOOP_MAX:
        raise AnalysisError(f"the loop overflows at f_hz = {omega / (2.0 * np.pi):.12g}",
                            code="DEGENERATE_FREQ")
    return sym, s_p, s_q


def _quotient(s_p: np.ndarray, s_q: np.ndarray, omega0: float, omega, out=None
              ) -> np.ndarray:
    """−S_P + j·(ω0/ω)·S_Q, the quotient of G′_net(jω), at one ω or, for a
    row of ω, as one stack, written into ``out`` when it is given: the one
    formula of every matrix that a trace or a refinement solves, so the
    same ω gives the same bits, alone or stacked."""
    ratio = omega0 / omega
    scaled = np.multiply(1j * (ratio[:, None, None] if isinstance(omega, np.ndarray)
                               else ratio), s_q, out=out)
    return np.add(-s_p, scaled, out=scaled)


def _eig(s_p: np.ndarray, s_q: np.ndarray, omega0: float, omega
         ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of :func:`_quotient` at one ω or, for a row of ω, as one
    stack: a repeated solve is bit-identical, alone or stacked.  Raises
    ``AnalysisError`` (EIG_NOT_CONVERGED) when LAPACK gives up, at the
    first ω of a stack whose matrix fails alone."""
    stack = isinstance(omega, np.ndarray)
    try:
        return np.linalg.eig(_quotient(s_p, s_q, omega0, omega))
    except np.linalg.LinAlgError as exc:
        if stack:
            vals, vecs = zip(*(_eig(s_p, s_q, omega0, w) for w in omega))
            return np.stack(vals), np.stack(vecs)
        raise AnalysisError(f"eigensolver did not converge at f_hz = "
                            f"{omega / (2.0 * np.pi):.12g}: {exc}",
                            code="EIG_NOT_CONVERGED") from None


def build_gnet(omega: float, net: ReducedNetwork, op: OperatingPoint,
               omega0: float) -> np.ndarray:
    """Network-side matrix −B^{-1}·P̃ + j·(ω0/ω)·B^{-1}·Q̃ at one frequency.

    Raises ``AnalysisError`` (DEGENERATE_FREQ) unless ω is real, finite and
    > 0, and (OP_INVALID) when ``op`` does not fit ``net``.
    """
    omega = _omega(omega, "G_net")
    _require_fit(net, op)
    b_inv_p = np.linalg.solve(net.b_matrix, np.diag(op.p_tilde))
    b_inv_q = np.linalg.solve(net.b_matrix, np.diag(op.q_tilde))
    return -b_inv_p + 1j * (omega0 / omega) * b_inv_q


def build_gnet_sym(omega: float, net: ReducedNetwork, op: OperatingPoint,
                   omega0: float) -> np.ndarray:
    """Symmetric similar form of :func:`build_gnet` (same eigenvalues)."""
    omega = _omega(omega, "G_net")
    return _quotient(*sym_parts(net, op), omega0, omega)


def resolve_pll_gains(spec: SystemSpec, *, force_first_pll: bool = False
                      ) -> tuple[float, float, list[str]]:
    """Shared (kp, ki) for the aggregate analysis; enforces identical gains.

    The decoupled-subsystem construction requires every converter to run the
    same PLL.  Differing gains raise ``AnalysisError`` (NONIDENTICAL_PLL)
    unless ``force_first_pll`` is set, in which case converter 1's gains are
    used and a warning string is returned.  A ``force_first_pll`` that is
    not a bool raises (FORCE_FIRST_PLL_INVALID), whatever the gains.
    """
    if not _is_bool(force_first_pll):
        raise AnalysisError(f"force_first_pll must be a bool, got {force_first_pll!r}",
                            code="FORCE_FIRST_PLL_INVALID")
    first = spec.converters[0]
    warnings: list[str] = []
    identical = all(
        abs(c.pll_kp - first.pll_kp) <= 1e-9 * abs(first.pll_kp)
        and abs(c.pll_ki - first.pll_ki) <= 1e-9 * abs(first.pll_ki)
        for c in spec.converters)
    if not identical:
        if not force_first_pll:
            raise AnalysisError(
                "converters declare different PLL gains; the aggregate "
                "analysis assumes one shared PLL (pass --force-first-pll to "
                "use converter 1's gains)", code="NONIDENTICAL_PLL")
        warnings.append(
            f"non-identical PLL gains; forced to converter {first.name!r}: "
            f"kp={first.pll_kp}, ki={first.pll_ki}")
    return first.pll_kp, first.pll_ki, warnings


class _Loop:
    """The loop Γ(jω) + λ_i(G′_net(jω)) of one operating point over the grid
    ``f_hz`` = :func:`_scan_grid` (``grid_hz``), with the errors of that,
    :func:`resolve_pll_gains`, :func:`gamma` at every grid point and
    :func:`_split` in this order, and the slice ``window`` of its grid."""

    def __init__(self, spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint,
                 grid_hz, force_first_pll: bool):
        self.f_hz = _scan_grid(spec, grid_hz)
        self.kp, self.ki, self.warnings = resolve_pll_gains(
            spec, force_first_pll=force_first_pll)
        self.omega0 = omega0 = spec.omega0
        with np.errstate(over="ignore"):       # gamma refuses an ω that overflows
            self.omega = 2.0 * np.pi * self.f_hz
        self.u_ref = float(np.mean(op.u_pu))
        self.gamma = gamma(self.omega, self.u_ref, self.kp, self.ki, omega0)
        self.sym, s_p, s_q = _split(net, op, omega0, self.omega[0])
        q_min, q_max = np.linalg.eigvalsh(s_q)[[0, -1]]
        with np.errstate(over="ignore"):       # an infinite h or pad only widens the window
            pad = _WINDOW_PAD * (np.linalg.norm(s_p) * (self.omega[-1] / omega0)
                                 + max(-q_min, q_max))
            h = -self.gamma.imag * (self.omega / omega0)
        lo, hi = np.minimum(h[:-1], h[1:]), np.maximum(h[:-1], h[1:])
        cells = np.flatnonzero((hi >= q_min - pad) & (lo <= q_max + pad))
        self.window = slice(cells[0], cells[-1] + 2) if len(cells) else slice(0, 0)

    def at(self, omega, picks) -> list[tuple[complex, complex, np.ndarray]]:
        """(Γ, λ, φ) at each ω of the row ``omega`` for the eigenpair of
        G′_net(jω) that ``picks`` names: an eigensolver column, or a
        reference vector whose overlap with the eigenvectors picks the
        most.  The quotients are solved as stacks of at most
        ``_BLOCK_ENTRIES`` matrix entries, the scan's block rule."""
        sym, omega0 = self.sym, self.omega0
        gammas = gamma(omega, self.u_ref, self.kp, self.ki, omega0)
        omega = np.asarray(omega, dtype=float)
        block = max(1, _BLOCK_ENTRIES // len(sym.classes) ** 2)
        out = []
        for start in range(0, len(omega), block):
            part = slice(start, start + block)
            for w, gam, pick, vals, psi in zip(omega[part], gammas[part], picks[part],
                                               *_eig(sym.s_p, sym.s_q, omega0, omega[part])):
                vals, vecs = sym.lift(vals, psi, omega0 / w)
                j = pick if np.ndim(pick) == 0 else np.argmax(np.abs(pick.conj() @ vecs))
                # a copy: a view would hold all n eigenvectors while the crossing lives
                out.append((complex(gam), vals[j], vecs[:, j].copy()))
        return out


@dataclass
class SubsystemCurves:
    """Damping/spring curves for every tracked subsystem over a grid.

    ``d_net[i, k] + 1j*k_net[i, k]`` is tracked eigenvalue branch i at grid
    point k; ``columns[k, i]`` the column of the eigensolver output at point k
    that became branch i.  :meth:`loops` evaluates the loop
    Γ(jω) + λ_i(G′_net(jω)) of tracked branches off the grid, or again on it
    from a column, through the point's one loop object.
    """

    f_hz: np.ndarray              # (m,)
    omega_rad_s: np.ndarray       # (m,)
    d_con: np.ndarray             # (m,)
    k_con: np.ndarray             # (m,)
    d_net: np.ndarray             # (n, m)
    k_net: np.ndarray             # (n, m)
    columns: np.ndarray           # (m, n) unsigned int, the smallest that holds n
    branch_jumps: list[tuple[int, int]]   # (grid index, branch index)
    _loop: _Loop = field(repr=False)

    @property
    def n(self) -> int:
        return self.d_net.shape[0]

    @property
    def m(self) -> int:
        return len(self.f_hz)

    @property
    def warnings(self) -> list[str]:
        return self._loop.warnings

    def loops(self, omega, picks) -> list[tuple[complex, complex, np.ndarray]]:
        """(Γ, λ, φ) at each ω of the row ``omega``, for the eigenpair of
        G′_net(jω) that ``picks`` names: an eigensolver column (as in
        ``columns``), or a reference eigenvector whose overlap picks the
        tracked branch.  One evaluation, solved as stacks; each result is
        bit-identical to that ω's alone."""
        return self._loop.at(omega, picks)


def _match_branches(prev_vecs: np.ndarray, vals: np.ndarray, vecs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Greedy assignment of new eigenpairs to previous branches.

    Candidates ranked by descending overlap |<prev_i, new_j>|, ties broken by
    ascending (Re λ_j, Im λ_j, i), then by j.  Returns (columns, overlaps):
    branch i takes candidate ``columns[i]`` with overlap ``overlaps[i]``.
    :func:`trace_curves` calls it only at points where the row-wise best
    candidates (:func:`_strict_bests`) do not already settle the assignment.
    """
    n = len(vals)
    overlap = np.abs(prev_vecs.conj().T @ vecs)   # (branch i, candidate j)
    jj = np.arange(n * n) % n                     # flattened i-major, j-minor
    # lexsort is stable, so the flattened order settles full ties: i, then j
    order = np.lexsort((vals.imag[jj], vals.real[jj], -overlap.ravel()))
    assign, free, left = [-1] * n, [True] * n, n
    for i, j in zip((order // n).tolist(), (order % n).tolist()):
        if assign[i] < 0 and free[j]:
            assign[i], free[j] = j, False
            left -= 1
            if not left:              # every branch has its column
                break
    columns = np.array(assign)
    return columns, overlap[np.arange(n), columns]


def _strict_bests(overlap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise best candidates of a stack of (previous, new) eigenvector
    overlap matrices: (best, top, settled).  ``settled[c]`` is true when the
    row maxima of matrix c mark a permutation matrix: every row has a strict
    best candidate and no two share one, so the greedy rule of
    :func:`_match_branches` takes exactly the pairs (i, ``best[c, i]``), in
    whatever order the rows are given."""
    top = overlap.max(axis=2)
    hits = overlap == top[:, :, None]
    settled = (hits.sum(axis=2) == 1).all(axis=1) & (hits.sum(axis=1) == 1).all(axis=1)
    return overlap.argmax(axis=2), top, settled


def _scan_grid(spec: SystemSpec, grid_hz=None) -> np.ndarray:
    """``grid_hz`` checked, or the spec's scan grid when it is None.

    The spec's grid needs an integer ``scan_points`` in 2..``MAX_SCAN_POINTS``
    (SCAN_POINTS_INVALID), real-number scan limits (SCAN_RANGE_INVALID), a
    real-number ``root_tol_hz`` (ROOT_TOL_INVALID) and a bool
    ``flat_voltage`` (FLAT_VOLTAGE_INVALID): options built in code may hold
    text or bools.  Either grid must be a row of 2..``MAX_SCAN_POINTS``
    finite, positive, ascending real numbers (GRID_INVALID).  Nothing is
    allocated before the counts are checked.
    """
    if grid_hz is None:
        opt = spec.options
        points = opt.scan_points
        if not _scan_points_ok(points):
            raise AnalysisError(f"scan_points must be an integer in 2..{MAX_SCAN_POINTS}, "
                                f"got {points!r}", code="SCAN_POINTS_INVALID")
        if _number(opt.scan_fmin_hz) is None or _number(opt.scan_fmax_hz) is None:
            raise AnalysisError(f"scan_fmin_hz and scan_fmax_hz must be real numbers, got "
                                f"{opt.scan_fmin_hz!r} and {opt.scan_fmax_hz!r}",
                                code="SCAN_RANGE_INVALID")
        if _number(opt.root_tol_hz) is None:
            raise AnalysisError(f"root_tol_hz must be a real number, got {opt.root_tol_hz!r}",
                                code="ROOT_TOL_INVALID")
        if not _is_bool(opt.flat_voltage):
            raise AnalysisError(f"flat_voltage must be a bool, got {opt.flat_voltage!r}",
                                code="FLAT_VOLTAGE_INVALID")
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite grid is refused below
            grid_hz = np.linspace(opt.scan_fmin_hz, opt.scan_fmax_hz, points)
    grid_hz = _real(grid_hz)
    if grid_hz is None:
        raise AnalysisError("frequency grid must hold real numbers", code="GRID_INVALID")
    if grid_hz.ndim != 1 or not 2 <= len(grid_hz) <= MAX_SCAN_POINTS:
        raise AnalysisError(f"frequency grid needs 2..{MAX_SCAN_POINTS} points",
                            code="GRID_INVALID")
    if not np.isfinite(grid_hz).all():
        raise AnalysisError("frequency grid must be finite", code="GRID_INVALID")
    if np.any(grid_hz <= 0) or np.any(np.diff(grid_hz) <= 0):
        raise AnalysisError("frequency grid must be positive and ascending",
                            code="GRID_INVALID")
    return grid_hz


def crossing_window(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint, *,
                    force_first_pll: bool = False) -> np.ndarray:
    """The slice of the spec's scan grid outside which no crossing can lie.

    Every sign change and exact zero of K_con + K_neti that
    :func:`trace_curves` finds on the spec's grid lies in the returned
    ``grid_hz[a:b + 1]`` (the grid's own floats); it is empty when no
    crossing can occur.  h_k = −K_con(ω_k)·ω_k/ω0 is taken from the trace's
    own Γ over the full grid and compared with [λmin(S_Q), λmax(S_Q)],
    padded by ``_WINDOW_PAD``·(‖S_P‖·ω_max/ω0 + ‖S_Q‖) for the eigensolver's
    backward error; a cell is kept when [h_k, h_{k+1}] meets the padded
    range, and the slice runs from the first kept cell to the last (h is
    strictly decreasing for kp, ki > 0, so they are contiguous).  Raises the
    coded errors of :func:`trace_curves` on the spec's grid, in its order,
    up to its first eigensolve; it solves no eigenproblem of G′_net.
    """
    loop = _Loop(spec, net, op, None, force_first_pll)
    return loop.f_hz[loop.window]


def trace_curves(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint,
                 grid_hz: np.ndarray | None = None, *,
                 force_first_pll: bool = False) -> SubsystemCurves:
    """Eigendecompose G′_net over a frequency grid with branch tracking.

    ``grid_hz`` defaults to the spec's scan options.  Either may hold at
    most ``MAX_SCAN_POINTS`` points; a longer one, or a ``scan_points`` that
    is not an integer, raises ``AnalysisError`` (SCAN_POINTS_INVALID or
    GRID_INVALID) before the scan allocates (see :func:`_scan_grid`).  The
    initial branch order (lowest frequency) is ascending (Re λ, Im λ) over
    all n branches; subsequent points are matched by maximal eigenvector
    overlap.  Overlap below ``OVERLAP_THRESHOLD`` records a (grid index,
    branch) entry in ``branch_jumps`` — a warning, not an error.

    The points go a block at a time, a block holding about
    ``_BLOCK_ENTRIES`` eigenvector entries.  A block's quotient matrices
    are formed in one vectorised :func:`_quotient` call, in place in the
    block's eigenvector buffer, and each point still has its own eigensolve,
    so every matrix is bit for bit the one :meth:`SubsystemCurves.loops`
    solves at that ω.  One batched product gives the overlaps of each point's
    eigenvectors with the point before's (the last of the previous block
    carried over).  A point whose row-wise best overlaps are distinct strict
    maxima takes them (:func:`_strict_bests`); any other point takes
    :func:`_match_branches`.  The result is that of matching point by point.

    Only the g quotient branches are solved and matched, in the orthonormal
    sums basis, which keeps the lifted eigenvectors' overlaps.  A difference
    branch keeps its Helmert vector and closed-form eigenvalue throughout.
    """
    return _scan(_Loop(spec, net, op, grid_hz, force_first_pll))


def _scan(loop: _Loop, part: slice = slice(None)) -> SubsystemCurves:
    """The curves of :func:`trace_curves` over the slice ``part`` of
    ``loop``'s grid, whose arrays they view; an empty slice (window) gives
    curves of no points and solves nothing."""
    omega0, omega_grid, sym = loop.omega0, loop.omega[part], loop.sym
    (n, g), m = sym.sums.shape, len(omega_grid)    # g: columns matched by overlap
    lam = np.empty((n, m), dtype=complex)
    columns = np.empty((m, n), dtype=np.min_scalar_type(n))
    jumps: list[tuple[int, int]] = []
    # the curves view lam and columns, which the scan fills in below
    curves = SubsystemCurves(
        f_hz=loop.f_hz[part], omega_rad_s=omega_grid,
        d_con=loop.gamma.real[part], k_con=loop.gamma.imag[part],
        d_net=lam.real, k_net=lam.imag,
        columns=columns, branch_jumps=jumps, _loop=loop)
    if not m:
        return curves

    # the lowest point fixes the branch order over all n eigenvalues
    block = max(1, _BLOCK_ENTRIES // g**2)         # grid points per block
    vals_block = np.empty((block, g), dtype=complex)
    vecs_block = np.empty((block + 1, g, g), dtype=complex)   # [0]: the point before
    vals, vecs_block[0] = _eig(sym.s_p, sym.s_q, omega0, omega_grid[0])
    every = sym.values(vals, omega0 / omega_grid[0])
    order = np.lexsort((every.imag, every.real))
    tracked = np.flatnonzero(order < g)            # the branches on quotient columns
    matched = order[tracked].tolist()
    lam[tracked, 0], columns[:] = vals[matched], order
    matched_block = np.empty((block + 1, g), dtype=np.intp)   # [0]: the point before
    matched_block[0] = matched
    overlaps_block = np.empty((block, g))
    points = np.arange(block)[:, None]             # row index of a block's points

    for start in range(1, m, block):
        count = min(block, m - start)
        # each slot holds its point's quotient until eig replaces it with the
        # eigenvectors; a point LAPACK refuses is solved again alone, to raise
        _quotient(sym.s_p, sym.s_q, omega0, omega_grid[start:start + count],
                  out=vecs_block[1:count + 1])
        for c in range(count):
            try:
                vals_block[c], vecs_block[c + 1] = np.linalg.eig(vecs_block[c + 1])
            except np.linalg.LinAlgError:
                vals_block[c], vecs_block[c + 1] = _eig(sym.s_p, sym.s_q, omega0,
                                                        omega_grid[start + c])
        # raw overlaps of each point's eigenvectors with the point before's; the
        # conjugate is not kept, so it is gone before the next block is formed
        best, top, settled = _strict_bests(np.abs(
            vecs_block[:count].conj().transpose(0, 2, 1) @ vecs_block[1:count + 1]))
        # the columns are chained through the block as lists; a settled point's
        # overlaps are read off afterwards, by the columns of the point before
        for c, (row, strict) in enumerate(zip(best.tolist(), settled.tolist())):
            if strict:
                matched = [row[j] for j in matched]
            else:
                matched, overlaps_block[c] = _match_branches(
                    vecs_block[c][:, matched], vals_block[c], vecs_block[c + 1])
                matched = matched.tolist()
            matched_block[c + 1] = matched
        np.copyto(overlaps_block[:count], top[points[:count], matched_block[:count]],
                  where=settled[:, None])
        stop = start + count
        lam[tracked, start:stop] = vals_block[points[:count], matched_block[1:count + 1]].T
        columns[start:stop, tracked] = matched_block[1:count + 1]
        rows, branches = np.nonzero(overlaps_block[:count] < OVERLAP_THRESHOLD)
        jumps.extend(zip((start + rows).tolist(), tracked[branches].tolist()))
        vecs_block[0], matched_block[0] = vecs_block[count], matched_block[count]
    # difference branches one row at a time: an (n − g, m) block raises the peak memory
    for i in np.flatnonzero(order >= g):
        lam[i] = -sym.a[order[i] - g] + 1j * (omega0 / omega_grid) * sym.b[order[i] - g]
    return curves


def per_converter_gamma(spec: SystemSpec, op: OperatingPoint,
                        grid_hz: np.ndarray) -> np.ndarray:
    """Diagnostic Γ_i(jω) per converter with its own U_i and own gains.

    Returns an (n, m) complex array; the aggregate analysis never consumes
    this (it assumes identical PLLs and a common U).  Raises
    ``AnalysisError`` (GRID_INVALID) for a grid that :func:`_scan_grid`
    refuses, and (OP_INVALID) unless ``op`` has one entry per converter.
    """
    omega_grid = 2.0 * np.pi * _scan_grid(spec, grid_hz)
    if op.n != len(spec.converters):
        raise AnalysisError(f"operating point has {op.n} converters, the spec "
                            f"{len(spec.converters)}", code="OP_INVALID")
    kp = np.array([c.pll_kp for c in spec.converters])[:, None]
    ki = np.array([c.pll_ki for c in spec.converters])[:, None]
    return gamma(omega_grid, op.u_pu[:, None], kp, ki, spec.omega0)


def write_curves_csv(curves: SubsystemCurves, fh, *,
                     per_converter: np.ndarray | None = None,
                     names: tuple[str, ...] = ()) -> None:
    """Emit the curve set as CSV (12 significant digits).

    Columns: ``f_hz,D_con,K_con,D_net_1..D_net_n,K_net_1..K_net_n`` plus, when
    ``per_converter`` diagnostics are passed, ``D_con_<name>,K_con_<name>``
    pairs.
    """
    n = curves.n
    header = ["f_hz", "D_con", "K_con"]
    header += [f"D_net_{i + 1}" for i in range(n)]
    header += [f"K_net_{i + 1}" for i in range(n)]
    if per_converter is not None:
        for name in names:
            header += [f"D_con_{name}", f"K_con_{name}"]

    columns = [curves.f_hz, curves.d_con, curves.k_con, curves.d_net.T, curves.k_net.T]
    if per_converter is not None:
        # a complex (m, n) array viewed as float is (m, 2n): (Re, Im) pairs
        columns.append(np.ascontiguousarray(per_converter.T).view(float))
    write_table(fh, header, columns)
