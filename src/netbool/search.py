"""Locate every unit vector contained in an affine subspace.

With o the subspace's offset, B its orthonormal direction rows and
c = o - B^T (B o) the offset's component orthogonal to the directions,
the squared Euclidean distance of the unit vector e_i to the subspace is

    dist(e_i)^2 = 1 - ||B[:, i]||^2 - 2 c_i + ||c||^2,

so all d candidates are decided from one O(d b) pass, with no per-candidate
solve.  Indices are 1-based, matching the assignment bijection.
"""

from __future__ import annotations

import numpy as np

from .linalg import AffineSubspace

__all__ = ["boolean_vector_search"]


def boolean_vector_search(hull: AffineSubspace, tol: float) -> set[int]:
    """Indices i with the unit vector e_i within Euclidean distance ``tol``
    of the affine subspace ``hull``."""
    basis = hull.basis
    c = hull.offset - basis.T @ (basis @ hull.offset)
    dist2 = 1.0 - (basis * basis).sum(axis=0) - 2.0 * c + c @ c
    return {int(i) + 1 for i in np.flatnonzero(dist2 <= tol * tol)}
