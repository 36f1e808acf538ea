"""Bijections between assignments and unit vectors, the unit-column
matrix representation of a Boolean mapping, and the lift of a system.

Conventions, used everywhere downstream:

* assignments are 0/1 vectors ``[x1, ..., xm]`` with x1 most significant;
* unit-vector indices are 1-based: index i corresponds to the i-th column
  of the 2^m identity matrix;
* ``btoi([x1..xm]) = sum_k xk * 2^(m-k) + 1``, so the all-zero assignment
  maps to index 1 and the all-one assignment to 2^m.

``btoi`` is the paper's theta (the Kronecker-product embedding of an
assignment into the unit vectors of R^(2^m)) and ``itob`` its inverse.

A Boolean mapping g over m variables is represented by a dense 2 x 2^m
array whose i-th column is the unit vector indexed ``g(itob(i)) + 1``;
applying it to the unit vector of an assignment yields the unit vector of
the output bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formula import BooleanFormula, BooleanSystem, truth_table

__all__ = [
    "btoi",
    "itob",
    "boolean_matricization",
    "LiftedSystem",
    "lift_system",
]


def btoi(x: Sequence[int]) -> int:
    """Index in 1..2^m of the assignment ``x`` (m = len(x))."""
    if len(x) == 0:
        raise ValueError("empty assignment")
    i = 0
    for bit in x:
        i = (i << 1) | int(bit)
    return i + 1


def itob(i: int, m: int) -> list[int]:
    """Assignment in {0,1}^m whose index is ``i``; inverse of btoi."""
    if not 1 <= i <= 2**m:
        raise ValueError(f"index {i} out of range 1..{2**m}")
    return [(i - 1) >> (m - 1 - k) & 1 for k in range(m)]


def boolean_matricization(f: BooleanFormula, m: int) -> np.ndarray:
    """Unit-column matrix of the mapping defined by ``f`` over x1..xm, as a
    dense, C-contiguous 2 x 2^m float array.

    Column i is the unit vector indexed ``f(itob(i)) + 1``: the rows are
    1 - t and t for f's truth table t.  The result is unique: it depends
    only on the mapping, not on the particular formula.
    """
    values = truth_table(f, m)
    return np.stack([1.0 - values, values])


@dataclass(frozen=True)
class LiftedSystem:
    """A system's lifted equations H_i y = z_i, stacked with index i node
    i's own: ``h`` is (n, 2, 2^m), ``z`` (n, 2, 1) and ``h_pinv``, each
    H_i's pseudoinverse, (n, 2^m, 2)."""

    h: np.ndarray
    z: np.ndarray
    h_pinv: np.ndarray


def lift_system(system: BooleanSystem) -> LiftedSystem:
    """H_i the unit-column matrix of f_i, z_i the unit vector of the
    required output bit, row rhs_i of the 2 x 2 identity.

    The rows of H_i are the indicators of f_i's two output classes, so
    H_i H_i^T is the diagonal of the class sizes and H_i^+ is H_i^T with
    each column divided by its class size.  An empty class (a constant
    f_i) keeps its zero column, as the SVD pseudoinverse would.
    """
    h = np.stack([boolean_matricization(f, system.m) for f, _ in system.equations])
    z = np.eye(2)[[rhs for _, rhs in system.equations]][:, :, None]
    h_pinv = h.transpose(0, 2, 1) / np.maximum(h.sum(axis=2), 1)[:, None, :]
    return LiftedSystem(h, z, h_pinv)
