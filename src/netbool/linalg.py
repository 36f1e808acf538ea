"""Affine subspaces: the exact modes' affine hulls, the truncated mode's
fits, and the distance from a point to a subspace.

Matrices and vectors are plain numpy float arrays.  The affine hull
(``affine_from_points``) decides its rank by an absolute threshold that
the caller passes: a singular value counts only when it is above it.  The
truncated mode's fit (``best_affine_fit``) picks its dimension by a
summed-distance budget instead.  Each takes one thin SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AffineSubspace",
    "affine_from_points",
    "dist_to_affine",
    "best_affine_fit",
]


@dataclass
class AffineSubspace:
    """An affine subspace, stored as a point plus an orthonormal basis of
    its direction space (``basis`` has one direction per row; zero rows
    means a single point)."""

    offset: np.ndarray  # shape (d,)
    basis: np.ndarray  # shape (dim, d), orthonormal rows

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def affine_from_points(points: Sequence[np.ndarray], tol: float) -> AffineSubspace:
    """Minimal affine subspace containing all the given points.

    One thin SVD of the centred points: the offset is the centroid and the
    basis is the right singular vectors whose singular value is above
    ``tol``, so the dimension is the numerical rank of the centred point
    matrix at that threshold.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    centroid = pts.mean(axis=0)
    _, s, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    return AffineSubspace(centroid, vt[s > tol].copy())


def dist_to_affine(y: np.ndarray, a: AffineSubspace) -> float:
    """Euclidean distance from ``y`` to the subspace ``a``."""
    y = np.asarray(y, dtype=float)
    if y.shape != a.offset.shape:
        raise ValueError(
            f"expected a vector of length {a.offset.size}, got shape {y.shape}"
        )
    r = y - a.offset
    return float(np.linalg.norm(r - a.basis.T @ (a.basis @ r)))


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
    return AffineSubspace(centroid, vt[:b].copy()), totals
