"""Susceptance-matrix assembly and reduction to the converter nodes.

The lossless grid is represented by the grounded susceptance Laplacian built
from branch inductances (per unit, so b_ij = 1/L_ij): off-diagonals carry
-b_ij, diagonals the positive sum of incident b_ij.  The slack node acts as
ground and is removed outright; interior (non-converter, non-slack) nodes are
then eliminated by Kron reduction, leaving a dense symmetric positive-definite
matrix B over the converter nodes.  Its inverse square root, needed for the
symmetrized network response, is computed once per reduction from the
eigendecomposition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemSpec, _real
from .errors import NetworkError

__all__ = ["ReducedNetwork", "assemble_laplacian", "kron_reduce", "build_reduced_network"]

# condition-number ceiling for the interior block inverted during reduction
_COND_LIMIT = 1e12
# relative eigenvalue floor below which B is rejected as not positive definite
_PD_REL_FLOOR = 1e-10
# the smallest branch inductance whose susceptance 1/L is a finite float
_L_MIN = 1.0 / np.finfo(float).max


@dataclass(frozen=True)
class ReducedNetwork:
    """Reduced susceptance matrix over the converter nodes.

    Attributes
    ----------
    b_matrix : (n, n) float array, symmetric positive definite.
    b_inv_sqrt : (n, n) float array, B^{-1/2}, symmetric.
    converter_index : converter name -> row/column in ``b_matrix``.
    """

    b_matrix: np.ndarray
    b_inv_sqrt: np.ndarray
    converter_index: dict[str, int]

    @property
    def n(self) -> int:
        return self.b_matrix.shape[0]

    @classmethod
    def from_b_matrix(cls, b: np.ndarray, names: tuple[str, ...] | None = None) -> "ReducedNetwork":
        """Wrap an explicit reduced matrix (used by synthetic-ensemble tests)."""
        b = np.asarray(b, dtype=float)
        if names is None:
            names = tuple(f"c{i + 1}" for i in range(b.shape[0]))
        return cls(b, _inv_sqrt_pd(b), {name: i for i, name in enumerate(names)})


def _inv_sqrt_pd(b: np.ndarray) -> np.ndarray:
    """B^{-1/2} for symmetric positive-definite B, rejecting anything else."""
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise NetworkError(f"reduced matrix must be square, got shape {b.shape}",
                           code="NOT_SQUARE")
    if not np.isfinite(b).all():
        raise NetworkError("reduced matrix has non-finite entries", code="NOT_FINITE")
    asymmetry = np.max(np.abs(b - b.T)) if b.size else 0.0
    if asymmetry > 1e-9 * max(1.0, np.max(np.abs(b))):
        raise NetworkError(f"reduced matrix is not symmetric (|B - B^T| up to {asymmetry:.3e})",
                           code="NOT_SYMMETRIC")
    w, v = np.linalg.eigh(0.5 * (b + b.T))
    if w[0] <= _PD_REL_FLOOR * max(w[-1], 0.0):
        raise NetworkError(
            f"reduced susceptance matrix is not positive definite "
            f"(eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}])",
            code="NOT_POSITIVE_DEFINITE")
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    return 0.5 * (inv_sqrt + inv_sqrt.T)


def assemble_laplacian(spec: SystemSpec) -> tuple[np.ndarray, dict[str, int]]:
    """Grounded susceptance Laplacian over all declared nodes.

    Returns the (N, N) matrix and the node -> index map (declaration order).
    Parallel branches accumulate.  Raises ``NetworkError``
    (BRANCH_NONPOSITIVE_L, the code ``validate`` gives) for an inductance
    that is not a real number with a finite, positive inverse, which only a
    spec built in code can hold, and (NOT_FINITE) when the susceptances at
    a node add up past the float range.
    """
    index = {name: i for i, name in enumerate(spec.nodes)}
    lap = np.zeros((len(index), len(index)))
    for br in spec.branches:
        inductance = _real(br.inductance_pu)
        if inductance is None or inductance.ndim or not _L_MIN < inductance < np.inf:
            raise NetworkError(f"branch {br.from_node}-{br.to_node} has inductance "
                               f"{br.inductance_pu!r}; need a real number with a finite, "
                               f"positive inverse", code="BRANCH_NONPOSITIVE_L")
        b = 1.0 / float(inductance)
        i, j = index[br.from_node], index[br.to_node]
        with np.errstate(over="ignore"):    # an overflowing sum is refused below
            lap[i, i] += b
            lap[j, j] += b
            lap[i, j] -= b
            lap[j, i] -= b
    if not np.isfinite(lap).all():
        raise NetworkError("the branch susceptances at a node add up past the float range",
                           code="NOT_FINITE")
    return lap, index


def kron_reduce(lap: np.ndarray, index: dict[str, int], spec: SystemSpec) -> ReducedNetwork:
    """Ground the slack, eliminate interior nodes, keep converter nodes.

    Row/column order of the result follows converter declaration order.
    Raises ``NetworkError`` with code ``SINGULAR_INTERIOR`` when the interior
    block is too ill-conditioned to eliminate, and ``NOT_POSITIVE_DEFINITE``
    when the reduced matrix fails the definiteness check (both indicate a
    physically meaningless description, e.g. an interior island).
    """
    # neither list holds the slack, so indexing the Laplacian grounds it
    keep = [index[c.node] for c in spec.converters]
    slack = index[spec.slack_node]
    interior = [i for i in range(lap.shape[0]) if i != slack and i not in set(keep)]

    b_kk = lap[np.ix_(keep, keep)]
    if interior:
        b_ii = lap[np.ix_(interior, interior)]
        b_ki = lap[np.ix_(keep, interior)]
        if np.linalg.cond(b_ii) > _COND_LIMIT:
            raise NetworkError(
                "interior node block is numerically singular; "
                "check for interior nodes with no path to ground or converters",
                code="SINGULAR_INTERIOR")
        reduced = b_kk - b_ki @ np.linalg.solve(b_ii, b_ki.T)
    else:
        reduced = b_kk.copy()
    reduced = 0.5 * (reduced + reduced.T)

    names = {c.name: pos for pos, c in enumerate(spec.converters)}
    return ReducedNetwork(reduced, _inv_sqrt_pd(reduced), names)


def build_reduced_network(spec: SystemSpec) -> ReducedNetwork:
    """Assemble and reduce in one step."""
    lap, index = assemble_laplacian(spec)
    return kron_reduce(lap, index, spec)
