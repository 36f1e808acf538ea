"""Dense linear algebra used by the consensus engine and the subspace search.

Matrices and vectors are plain numpy float arrays.  Rank decisions take
an absolute threshold: a pivot (``rank_and_echelon``) or a singular value
(``affine_from_points``) counts only when it is above it.  When none is
given, the threshold is 1e-8 times the largest absolute entry or singular
value of the input, which comfortably absorbs the ~1e-10 residue that
converged consensus output carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "rank_and_echelon",
    "pseudoinverse",
    "LocalLinearEquation",
    "project_affine",
    "AffineSubspace",
    "affine_from_points",
    "dist_to_affine",
    "best_affine_fit",
    "min_fit_dim",
    "stack_equations",
]

DEFAULT_RELATIVE_PIVOT = 1e-8


def rank_and_echelon(
    a: np.ndarray, pivot_tol: float | None = None
) -> tuple[int, np.ndarray, list[int]]:
    """Numerical rank and column-reduced echelon form of ``a``.

    Parameters
    ----------
    a : ndarray, shape (r, c)
    pivot_tol : float, optional
        Entries with absolute value <= pivot_tol are treated as zero.
        Defaults to 1e-8 times the largest absolute entry.

    Returns
    -------
    rank : int
    echelon : ndarray, shape (r, rank)
        Columns spanning the column space of ``a``; each column j has a 1
        in its pivot row and every other returned column is 0 there.
    pivot_rows : list of int
        0-based pivot row of each echelon column, in column order.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows = a.shape[0]
    if a.size == 0:
        return 0, np.zeros((rows, 0)), []
    if pivot_tol is None:
        pivot_tol = DEFAULT_RELATIVE_PIVOT * float(np.abs(a).max())

    # Gauss-Jordan on the transpose: its RREF rows are the echelon columns,
    # and its pivot column positions are the pivot rows of ``a``.
    m = a.T.copy()
    nrows = m.shape[0]
    pivot_rows: list[int] = []
    r = 0
    for col in range(rows):
        if r == nrows:
            break
        p = r + int(np.argmax(np.abs(m[r:, col])))
        if abs(m[p, col]) <= pivot_tol:
            continue
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] /= m[r, col]
        others = np.abs(m[:, col]) > 0
        others[r] = False
        m[others] -= np.outer(m[others, col], m[r])
        pivot_rows.append(col)
        r += 1
    echelon = m[:r].T.copy()
    echelon[np.abs(echelon) <= pivot_tol] = 0.0
    # restore exact unit pivots after the cleanup
    for j, pr in enumerate(pivot_rows):
        echelon[pr, j] = 1.0
    return r, echelon, pivot_rows


def pseudoinverse(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    ``tol`` is the relative singular-value cutoff: singular values below
    tol times the largest are treated as zero.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not np.any(a):
        return np.zeros(a.T.shape)
    return np.linalg.pinv(a, rcond=tol)


@dataclass
class LocalLinearEquation:
    """The pair (h, z) of a linear equation h y = z, with the projector
    data onto its affine solution set cached.

    When the equation is consistent, ``project_affine`` maps any y to the
    Euclidean-nearest solution; when it is not, the same formula yields
    the nearest least-squares point, which is what the consensus recursion
    expects in the infeasible case.
    """

    h: np.ndarray
    z: np.ndarray
    h_pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.h.ndim != 2 or self.z.ndim != 1 or self.z.shape[0] != self.h.shape[0]:
            raise ValueError(
                f"incompatible shapes: h {self.h.shape}, z {self.z.shape}"
            )
        self.h_pinv = pseudoinverse(self.h)

    @property
    def dim(self) -> int:
        return self.h.shape[1]

    def residual(self, y: np.ndarray) -> float:
        """Sup-norm of h y - z."""
        return float(np.abs(self.h @ y - self.z).max())


def project_affine(eq: LocalLinearEquation, y: np.ndarray) -> np.ndarray:
    """Project ``y`` onto the affine solution set of ``eq``.

    Computed as y - h^+ (h y - z); equals (I - h^+ h) y + h^+ z.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (eq.dim,):
        raise ValueError(f"expected a vector of length {eq.dim}, got shape {y.shape}")
    return y - eq.h_pinv @ (eq.h @ y - eq.z)


@dataclass
class AffineSubspace:
    """An affine subspace, stored as a point plus an orthonormal basis of
    its direction space (``basis`` has one direction per row; zero rows
    means a single point)."""

    dim_ambient: int
    offset: np.ndarray
    basis: np.ndarray  # shape (dim, dim_ambient), orthonormal rows

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, y: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``y`` onto the subspace."""
        r = np.asarray(y, dtype=float) - self.offset
        if self.dim == 0:
            return self.offset.copy()
        return self.offset + self.basis.T @ (self.basis @ r)


def affine_from_points(
    points: Sequence[np.ndarray], tol: float | None = None
) -> AffineSubspace:
    """Minimal affine subspace containing all the given points.

    One thin SVD of the centred points: the offset is the centroid and the
    basis is the right singular vectors whose singular value is above
    ``tol`` (default 1e-8 times the largest singular value), so the
    dimension is the numerical rank of the centred point matrix.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    centroid = pts.mean(axis=0)
    _, s, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    if tol is None:
        tol = DEFAULT_RELATIVE_PIVOT * float(s[0])
    return AffineSubspace(pts.shape[1], centroid, vt[s > tol].copy())


def dist_to_affine(y: np.ndarray, a: AffineSubspace) -> float:
    """Euclidean distance from ``y`` to the subspace ``a``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (a.dim_ambient,):
        raise ValueError(
            f"expected a vector of length {a.dim_ambient}, got shape {y.shape}"
        )
    return float(np.linalg.norm(y - a.project(y)))


def best_affine_fit(points: Sequence[np.ndarray], target_dim: int) -> AffineSubspace:
    """Affine subspace of the given dimension minimizing the sum of squared
    distances to the points: the centroid plus the top principal directions
    of the centered point matrix."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    d = pts.shape[1]
    if not 0 <= target_dim <= d:
        raise ValueError(f"target dimension {target_dim} out of range 0..{d}")
    centroid = pts.mean(axis=0)
    if target_dim == 0:
        return AffineSubspace(d, centroid, np.zeros((0, d)))
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=True)
    return AffineSubspace(d, centroid, vt[:target_dim].copy())


def min_fit_dim(
    points: Sequence[np.ndarray], budget: float
) -> tuple[int, np.ndarray]:
    """Smallest b whose best b-dimensional affine fit keeps the summed
    distance to the points within ``budget``, from one thin SVD.

    The fits of ``best_affine_fit`` are nested principal subspaces
    (Eckart-Young): with the centred points written as U S V^T, point p's
    squared distance to the b-dimensional fit is the tail sum over j >= b
    of (U S)[p, j]^2.  Summing the square roots of those tails over the
    points gives the fit's total distance for every b at once; it never
    increases with b, so the pick is the first b whose total is at most
    ``budget`` (d when none is).

    Returns
    -------
    b : int
    totals : ndarray, shape (d + 1,)
        Summed distance of the points to the b-dimensional fit, for
        b = 0..d; entries from b = min(k, d) on are 0 for k points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    d = pts.shape[1]
    u, s, _ = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
    tails = np.cumsum(((u * s) ** 2)[:, ::-1], axis=1)[:, ::-1]
    totals = np.zeros(d + 1)
    totals[: s.size] = np.sqrt(tails).sum(axis=0)
    b = min(int(np.count_nonzero(totals > budget)), d)
    return b, totals


def stack_equations(eqs: Sequence[LocalLinearEquation]) -> LocalLinearEquation:
    """Single equation equivalent to the whole collection: rows of every
    h stacked over rows of every z."""
    if len(eqs) == 0:
        raise ValueError("expected at least one equation")
    h = np.vstack([eq.h for eq in eqs])
    z = np.concatenate([eq.z for eq in eqs])
    return LocalLinearEquation(h, z)
