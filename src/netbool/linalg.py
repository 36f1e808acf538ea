"""Dense linear algebra used by the consensus engine, the solvers' affine
hulls and fits, and the subspace search.

Matrices and vectors are plain numpy float arrays.  Rank decisions take
an absolute threshold: a singular value (``affine_from_points``) counts
only when it is above it.  When none is given, the threshold is 1e-8
times the largest singular value of the input, which comfortably absorbs
the ~1e-10 residue that converged consensus output carries.  The
truncated mode's fit (``best_affine_fit``) picks its dimension by a
summed-distance budget instead.  Each takes one thin SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "LocalLinearEquation",
    "AffineSubspace",
    "affine_from_points",
    "dist_to_affine",
    "best_affine_fit",
]

DEFAULT_RELATIVE_PIVOT = 1e-8


@dataclass
class LocalLinearEquation:
    """The pair (h, z) of a linear equation h y = z, with the projector
    data onto its affine solution set cached: ``h_pinv`` is the
    Moore-Penrose pseudoinverse of h (singular values below 1e-12 times
    the largest count as zero).

    When the equation is consistent, the projection y - h^+ (h y - z) of
    the consensus round maps any y to the Euclidean-nearest solution; when
    it is not, the same formula yields the nearest least-squares point,
    which is what the consensus recursion expects in the infeasible case.
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
        self.h_pinv = np.linalg.pinv(self.h, rcond=1e-12)

    @property
    def dim(self) -> int:
        return self.h.shape[1]

    def residual(self, y: np.ndarray) -> float:
        """Sup-norm of h y - z."""
        return float(np.abs(self.h @ y - self.z).max())


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


def best_affine_fit(
    points: Sequence[np.ndarray], *, budget: float
) -> tuple[AffineSubspace, np.ndarray]:
    """Lowest-dimensional affine subspace whose summed distance to the
    points stays within ``budget``, from one thin SVD.

    With the centred points written as U S V^T, the best b-dimensional fit
    (least summed squared distance) is the centroid plus the first b rows
    of V^T, and these fits are nested (Eckart-Young): point p's squared
    distance to the b-dimensional one is the tail sum over j >= b of
    (U S)[p, j]^2.  Summing the square roots of those tails over the
    points gives every dimension's total distance at once; it never
    increases with b, so the fit takes the first b whose total is at most
    ``budget``.  ``budget`` is keyword-only, so a fixed-dimension call
    ``best_affine_fit(points, b)`` is refused.

    Returns
    -------
    fit : AffineSubspace
        The centroid plus the top b principal directions.
    totals : ndarray, shape (d + 1,)
        Summed distance of the points to the b-dimensional fit, for
        b = 0..d; entries from b = min(k, d) on are 0 for k points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    if not budget >= 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    d = pts.shape[1]
    centroid = pts.mean(axis=0)
    u, s, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    tails = np.cumsum(((u * s) ** 2)[:, ::-1], axis=1)[:, ::-1]
    totals = np.zeros(d + 1)
    totals[: s.size] = np.sqrt(tails).sum(axis=0)
    b = int(np.count_nonzero(totals > budget))
    return AffineSubspace(d, centroid, vt[:b].copy()), totals
