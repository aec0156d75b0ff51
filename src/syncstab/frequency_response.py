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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MAX_SCAN_POINTS, SystemSpec, _real
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


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    return complex(value) if np.isscalar(omega) else value


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

    def require_scale(self, omega0: float, omega: float) -> None:
        """Raise ``AnalysisError`` (DEGENERATE_FREQ) unless ω0/ω and the
        entries of (ω0/ω)·S_Q are at most ``_LOOP_MAX`` at ω, and so at every
        higher frequency."""
        with np.errstate(over="ignore"):
            top = omega0 / omega * max(1.0, np.abs(self.s_q).max(),
                                       np.abs(self.b).max(initial=0.0))
        if not top <= _LOOP_MAX:
            raise AnalysisError(f"the loop overflows at f_hz = {omega / (2.0 * np.pi):.12g}",
                                code="DEGENERATE_FREQ")

    def values(self, vals: np.ndarray, omega_r) -> np.ndarray:
        """The n eigenvalues at ω0/ω = ``omega_r``: the quotient's ``vals``,
        then the differences' −a + j·(ω0/ω)·b."""
        return np.concatenate((vals, -self.a + 1j * omega_r * self.b))

    def eig(self, omega0: float, omega: float) -> tuple[np.ndarray, np.ndarray]:
        """All n eigenpairs of G′_net(jω), the only n-long eigenvectors: the
        quotient's lifted by the sums (columns 0..g−1), then the differences."""
        vals, psi = _eig(self.s_p, self.s_q, omega0, omega)
        return self.values(vals, omega0 / omega), np.hstack((self.sums @ psi, self.diffs))


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


def _eig(s_p: np.ndarray, s_q: np.ndarray, omega0: float, omega: float
         ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of −S_P + j·(ω0/ω)·S_Q, the quotient of G′_net(jω): every
    solve of a trace, so a repeated solve is bit-identical.  Raises
    ``AnalysisError`` (EIG_NOT_CONVERGED) when LAPACK gives up."""
    try:
        return np.linalg.eig(-s_p + 1j * (omega0 / omega) * s_q)
    except np.linalg.LinAlgError as exc:
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
    s_p, s_q = sym_parts(net, op)
    return -s_p + 1j * (omega0 / omega) * s_q


def resolve_pll_gains(spec: SystemSpec, *, force_first_pll: bool = False
                      ) -> tuple[float, float, list[str]]:
    """Shared (kp, ki) for the aggregate analysis; enforces identical gains.

    The decoupled-subsystem construction requires every converter to run the
    same PLL.  Differing gains raise ``AnalysisError`` (NONIDENTICAL_PLL)
    unless ``force_first_pll`` is set, in which case converter 1's gains are
    used and a warning string is returned.
    """
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


@dataclass
class SubsystemCurves:
    """Damping/spring curves for every tracked subsystem over a grid.

    ``d_net[i, k] + 1j*k_net[i, k]`` is tracked eigenvalue branch i at grid
    point k; ``columns[k, i]`` the column of the eigensolver output at point k
    that became branch i (see :meth:`loop_at`).  :meth:`loop` and
    :meth:`loop_at` are the one place the loop Γ(jω) + λ_i(G′_net(jω)) of a
    tracked branch is evaluated off the grid or again on it.
    """

    f_hz: np.ndarray              # (m,)
    omega_rad_s: np.ndarray       # (m,)
    d_con: np.ndarray             # (m,)
    k_con: np.ndarray             # (m,)
    d_net: np.ndarray             # (n, m)
    k_net: np.ndarray             # (n, m)
    columns: np.ndarray           # (m, n) unsigned int, the smallest that holds n
    branch_jumps: list[tuple[int, int]]   # (grid index, branch index)
    u_ref: float
    kp: float
    ki: float
    omega0: float
    _symmetry: _Symmetry = field(repr=False)
    warnings: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.d_net.shape[0]

    @property
    def m(self) -> int:
        return len(self.f_hz)

    def loop(self, omega: float, ref: np.ndarray) -> tuple[complex, complex, np.ndarray]:
        """(Γ, λ, φ) at ω for the eigenpair of G′_net(jω) whose eigenvector
        overlaps ``ref`` most (the tracked branch)."""
        vals, vecs = self._symmetry.eig(self.omega0, omega)
        j = int(np.argmax(np.abs(np.asarray(ref).conj() @ vecs)))
        return gamma(omega, self.u_ref, self.kp, self.ki, self.omega0), vals[j], vecs[:, j]

    def loop_at(self, k: int, i: int) -> tuple[complex, complex, np.ndarray]:
        """(Γ, λ, φ) of branch i at grid point k, solved again (bit-identical)."""
        omega = self.omega_rad_s[k]
        vals, vecs = self._symmetry.eig(self.omega0, omega)
        j = self.columns[k, i]
        return gamma(omega, self.u_ref, self.kp, self.ki, self.omega0), vals[j], vecs[:, j]


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


def trace_curves(spec: SystemSpec, net: ReducedNetwork, op: OperatingPoint,
                 grid_hz: np.ndarray | None = None, *,
                 force_first_pll: bool = False) -> SubsystemCurves:
    """Eigendecompose G′_net over a frequency grid with branch tracking.

    ``grid_hz`` defaults to the spec's scan options.  Either may hold at
    most ``MAX_SCAN_POINTS`` points; a longer one, or a ``scan_points`` that
    is not an integer, raises ``AnalysisError`` (SCAN_POINTS_INVALID or
    GRID_INVALID) before the scan allocates.  The initial branch order
    (lowest frequency) is ascending (Re λ, Im λ) over all n branches;
    subsequent points are matched by maximal eigenvector overlap.  Overlap
    below ``OVERLAP_THRESHOLD`` records a (grid index, branch) entry in
    ``branch_jumps`` — a warning, not an error.

    Every point has its own eigensolve; the points are matched a block at a
    time, a block holding about ``_BLOCK_ENTRIES`` eigenvector entries.  One
    batched product gives the overlaps of each point's eigenvectors with
    the point before's (the last of the previous block carried over).  A
    point whose row-wise best overlaps are distinct strict maxima takes
    them (:func:`_strict_bests`); any other point takes
    :func:`_match_branches`.  The result is that of matching point by point.

    Only the g quotient branches are solved and matched, in the orthonormal
    sums basis, which keeps the lifted eigenvectors' overlaps.  A difference
    branch keeps its Helmert vector and closed-form eigenvalue throughout.
    """
    if grid_hz is None:
        opt = spec.options
        points = opt.scan_points
        if not _is_int(points) or not 2 <= points <= MAX_SCAN_POINTS:
            raise AnalysisError(f"scan_points must be an integer in 2..{MAX_SCAN_POINTS}, "
                                f"got {points!r}", code="SCAN_POINTS_INVALID")
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

    kp, ki, warnings = resolve_pll_gains(spec, force_first_pll=force_first_pll)
    omega0 = spec.omega0
    with np.errstate(over="ignore"):       # gamma refuses an ω that overflows
        omega_grid = 2.0 * np.pi * grid_hz
    u_ref = float(np.mean(op.u_pu))

    gamma_vals = gamma(omega_grid, u_ref, kp, ki, omega0)

    n, m = op.n, len(grid_hz)
    s_p, s_q = sym_parts(net, op)
    sym = _symmetry(_classes(net, op), s_p, s_q)
    sym.require_scale(omega0, omega_grid[0])
    g = len(sym.classes)                           # columns matched by overlap
    lam = np.empty((n, m), dtype=complex)
    columns = np.empty((m, n), dtype=np.min_scalar_type(n))
    jumps: list[tuple[int, int]] = []

    # the lowest point fixes the branch order over all n eigenvalues
    block = max(1, _BLOCK_ENTRIES // g**2)         # grid points per block
    vals_block = np.empty((block, g), dtype=complex)
    vecs_block = np.empty((block + 1, g, g), dtype=complex)   # [0]: the point before
    vals, vecs_block[0] = _eig(sym.s_p, sym.s_q, omega0, omega_grid[0])
    every = sym.values(vals, omega0 / omega_grid[0])
    order = np.lexsort((every.imag, every.real))
    tracked = np.flatnonzero(order < g)            # the branches on quotient columns
    matched = order[tracked]
    lam[tracked, 0], columns[:] = vals[matched], order
    matched_block = np.empty((block, g), dtype=np.intp)
    overlaps_block = np.empty((block, g))

    for start in range(1, m, block):
        count = min(block, m - start)
        for c in range(count):
            vals_block[c], vecs_block[c + 1] = _eig(sym.s_p, sym.s_q, omega0,
                                                    omega_grid[start + c])
        # raw overlaps of each point's eigenvectors with the point before's
        prev = vecs_block[:count].conj().transpose(0, 2, 1)
        best, top, settled = _strict_bests(np.abs(prev @ vecs_block[1:count + 1]))
        for c in range(count):
            if settled[c]:
                overlaps_block[c], matched = top[c, matched], best[c, matched]
            else:
                matched, overlaps_block[c] = _match_branches(
                    vecs_block[c][:, matched], vals_block[c], vecs_block[c + 1])
            matched_block[c] = matched
        stop = start + count
        lam[tracked, start:stop] = np.take_along_axis(
            vals_block[:count], matched_block[:count], axis=1).T
        columns[start:stop, tracked] = matched_block[:count]
        rows, branches = np.nonzero(overlaps_block[:count] < OVERLAP_THRESHOLD)
        jumps.extend(zip((start + rows).tolist(), tracked[branches].tolist()))
        vecs_block[0] = vecs_block[count]
    # difference branches one row at a time: an (n − g, m) block raises the peak memory
    for i in np.flatnonzero(order >= g):
        lam[i] = -sym.a[order[i] - g] + 1j * (omega0 / omega_grid) * sym.b[order[i] - g]

    return SubsystemCurves(
        f_hz=grid_hz, omega_rad_s=omega_grid,
        d_con=gamma_vals.real, k_con=gamma_vals.imag,
        d_net=lam.real, k_net=lam.imag,
        columns=columns, branch_jumps=jumps,
        u_ref=u_ref, kp=kp, ki=ki, omega0=omega0,
        _symmetry=sym, warnings=warnings)


def per_converter_gamma(spec: SystemSpec, op: OperatingPoint,
                        grid_hz: np.ndarray) -> np.ndarray:
    """Diagnostic Γ_i(jω) per converter with its own U_i and own gains.

    Returns an (n, m) complex array; the aggregate analysis never consumes
    this (it assumes identical PLLs and a common U).
    """
    omega_grid = 2.0 * np.pi * np.asarray(grid_hz, dtype=float)
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
