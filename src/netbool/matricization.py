"""Bijections between assignments and unit vectors, and the unit-column
matrix representation of a Boolean mapping.

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

from typing import Sequence

import numpy as np

from .formula import BooleanFormula, BooleanSystem, evaluate, truth_table

__all__ = [
    "btoi",
    "itob",
    "unit_vector",
    "boolean_matricization",
    "chi0",
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


def unit_vector(i: int, dim: int) -> np.ndarray:
    """Dense i-th column (1-based) of the dim x dim identity matrix."""
    if not 1 <= i <= dim:
        raise ValueError(f"index {i} out of range 1..{dim}")
    e = np.zeros(dim)
    e[i - 1] = 1.0
    return e


def boolean_matricization(f: BooleanFormula, m: int) -> np.ndarray:
    """Unit-column matrix of the mapping defined by ``f`` over x1..xm, as a
    dense, C-contiguous 2 x 2^m float array.

    Column i is the unit vector indexed ``f(itob(i)) + 1``, computed by
    enumerating the truth table.  The result is unique: it depends only on
    the mapping, not on the particular formula.
    """
    values = np.array(truth_table(f, m), dtype=float)
    return np.stack([1.0 - values, values])


def chi0(system: BooleanSystem) -> int:
    """Number of distinct output tuples (f_1(x), ..., f_n(x)) over all x.

    Always between 1 and min(2^m, 2^n); bounds the rank of the stacked
    lifted system and lets the exact solver run fewer randomized rounds.
    """
    images = {
        tuple(evaluate(f, itob(i, system.m)) for f, _ in system.equations)
        for i in range(1, 2**system.m + 1)
    }
    return len(images)
