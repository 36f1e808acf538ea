"""Affine subspaces: the one rule both solve modes use to recover a node's
subspace from its consensus outputs, and the distance from a point to a
subspace.

Matrices and vectors are plain numpy float arrays.  ``best_affine_fit``
decides the rank by an absolute threshold that the caller passes: a
singular value counts only when it is above it.  The exact modes pass the
rank threshold of converged limits, the truncated mode each node's own
bound on its outputs' distance from those limits, scaled to a spectral
norm.  One thin SVD per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AffineSubspace",
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
    points: Sequence[np.ndarray], tol: float
) -> tuple[AffineSubspace, float | None]:
    """Affine subspace of the points at rank threshold ``tol``, and its gap.

    One thin SVD of the centred points: the offset is the centroid and the
    basis is the right singular vectors whose singular value is above
    ``tol``.  That is the lowest-dimensional fit whose residual matrix has
    spectral norm at most ``tol`` (Eckart-Young).  The gap is the smallest
    kept singular value over the largest dropped one, None when nothing is
    kept, nothing is dropped (k points span at most k - 1 directions), or
    the largest dropped value is 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected at least one point")
    centroid = pts.mean(axis=0)
    _, s, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    s = s[: pts.shape[0] - 1]  # k centred points span at most k - 1 directions
    b = int(np.count_nonzero(s > tol))
    gap = float(s[b - 1] / s[b]) if 0 < b < s.size and s[b] > 0 else None
    return AffineSubspace(centroid, vt[:b].copy()), gap
