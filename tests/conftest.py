"""Shared fixtures: the four worked example systems, their published
sample data, seeded random generators for systems, formulas, graphs, and
the centralised references that tests compare the distributed solvers
against (single-vector projection, echelon rank, stacked equations,
consensus value, stacked-rank consistency, image cardinality, unit-vector
search, fixed-dimension fit and the truncated-mode dimension scan)."""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from netbool.formula import (
    And,
    BooleanSystem,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    evaluate,
)
from netbool.linalg import (
    DEFAULT_RELATIVE_PIVOT,
    AffineSubspace,
    LocalLinearEquation,
    dist_to_affine,
)
from netbool.matricization import itob
from netbool.network import Graph

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# --- the four worked examples -------------------------------------------

EX1_TEXTS = [("x1 | x2 | !x3", 1), ("x1 & (x1 <-> x2)", 0), ("x2 & x3", 0)]
EX2_TEXTS = [("(x1 | x2) & !x3", 1), ("(x1 -> x2) | x3", 0), ("x1 & x3", 0)]
EX3_TEXTS = [("x1 & x2 & x3", 1), ("!x1 | (x2 <-> x3)", 1), ("x1 & (x2 | x3)", 0)]
EX4_TEXTS = [("(x1 | x2) & !x3", 0), ("(x1 -> x2) | x3", 0), ("x1 & x3", 1)]

EX1_SOLUTIONS = {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)}
EX2_SOLUTIONS = {(1, 0, 0)}

EX1_MATRICES = [
    [[0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 1, 1, 1, 1, 1, 1]],
    [[1, 1, 1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 1]],
    [[1, 1, 1, 0, 1, 1, 1, 0], [0, 0, 0, 1, 0, 0, 0, 1]],
]
EX2_MATRICES = [
    [[1, 1, 0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 0, 1, 0]],
    [[0, 0, 0, 0, 1, 0, 0, 0], [1, 1, 1, 1, 0, 1, 1, 1]],
    [[1, 1, 1, 1, 1, 0, 1, 0], [0, 0, 0, 0, 0, 1, 0, 1]],
]

# Published sample outputs of nine randomized consensus solves (columns),
# printed to four decimals; usable at tolerance 1e-3.
EX1_SAMPLE_OUTPUTS = np.array(
    [
        [0.3837, 0.0299, -0.0509, 0.4616, 0.2897, 0.1139, 0.1043, 0.3578, 0.0277],
        [0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000],
        [0.1019, 0.4064, 0.2581, 0.1935, 0.3299, 0.2565, 0.4819, 0.3105, 0.1353],
        [0.0640, 0.0604, 0.1110, 0.1157, 0.0974, 0.0806, 0.1506, 0.0511, 0.0300],
        [0.0944, 0.1918, 0.3854, 0.2492, -0.1419, 0.1938, 0.0559, 0.2378, 0.3244],
        [0.3561, 0.3116, 0.2964, -0.0201, 0.4249, 0.3551, 0.2073, 0.0429, 0.4827],
        [0.0640, 0.0604, 0.1110, 0.1157, 0.0974, 0.0806, 0.1506, 0.0511, 0.0300],
        [-0.0640, -0.0604, -0.1110, -0.1157, -0.0974, -0.0806, -0.1506, -0.0511, -0.0300],
    ]
).T  # nine points in R^8

EX2_SAMPLE_OUTPUTS = np.array(
    [
        [-0.1558, 0.0871, -0.1208, -0.0962, -0.1209],
        [0.1417, -0.1609, 0.1522, 0.1201, -0.0082],
        [-0.0003, 0.0835, 0.0835, -0.1127, 0.1244],
        [0.0141, 0.0738, -0.0314, -0.0239, 0.1292],
        [1.0000, 1.0000, 1.0000, 1.0000, 1.0000],
        [-0.0813, 0.0717, -0.1067, 0.1856, -0.0769],
        [0.0003, -0.0835, -0.0835, 0.1127, -0.1244],
        [0.0813, -0.0717, 0.1067, -0.1856, 0.0769],
    ]
).T  # five points in R^8


@pytest.fixture
def ex1() -> BooleanSystem:
    return BooleanSystem.from_texts(3, EX1_TEXTS)


@pytest.fixture
def ex2() -> BooleanSystem:
    return BooleanSystem.from_texts(3, EX2_TEXTS)


@pytest.fixture
def ex3() -> BooleanSystem:
    return BooleanSystem.from_texts(3, EX3_TEXTS)


@pytest.fixture
def ex4() -> BooleanSystem:
    return BooleanSystem.from_texts(3, EX4_TEXTS)


@pytest.fixture
def path3() -> Graph:
    return Graph.path(3)


# --- seeded random generators -------------------------------------------


def random_formula(rng: np.random.Generator, m: int, depth: int = 3):
    """Random formula over x1..xm; leaves are mostly variables."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.08:
            return Const(int(rng.integers(0, 2)))
        return Var(int(rng.integers(1, m + 1)))
    op = rng.integers(0, 5)
    if op == 0:
        return Not(random_formula(rng, m, depth - 1))
    left = random_formula(rng, m, depth - 1)
    right = random_formula(rng, m, depth - 1)
    return (And, Or, Implies, Iff)[op - 1](left, right)


def random_satisfiable_system(
    rng: np.random.Generator, m: int, n: int
) -> BooleanSystem:
    """System with at least the planted random assignment as a solution."""
    target = [int(b) for b in rng.integers(0, 2, size=m)]
    equations = []
    for _ in range(n):
        f = random_formula(rng, m)
        equations.append((f, evaluate(f, target)))
    return BooleanSystem(m, tuple(equations))


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = list(rng.permutation(np.arange(1, n + 1)))
    for k in range(1, n):
        parent = order[int(rng.integers(0, k))]
        edges.add((min(parent, order[k]), max(parent, order[k])))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < 0.3:
                edges.add((i, j))
    return Graph(n, frozenset((int(a), int(b)) for a, b in edges))


# --- centralised references ----------------------------------------------


def project_affine(eq: LocalLinearEquation, y: np.ndarray) -> np.ndarray:
    """Project ``y`` onto the affine solution set of ``eq``, one vector at
    a time: the per-node reference for the consensus round's batched
    projection.

    Computed as y - h^+ (h y - z); equals (I - h^+ h) y + h^+ z.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (eq.dim,):
        raise ValueError(f"expected a vector of length {eq.dim}, got shape {y.shape}")
    return y - eq.h_pinv @ (eq.h @ y - eq.z)


def stack_equations(eqs: Sequence[LocalLinearEquation]) -> LocalLinearEquation:
    """Single equation equivalent to the whole collection: rows of every
    h stacked over rows of every z."""
    if len(eqs) == 0:
        raise ValueError("expected at least one equation")
    h = np.vstack([eq.h for eq in eqs])
    z = np.concatenate([eq.z for eq in eqs])
    return LocalLinearEquation(h, z)


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


def central_projected_average(
    eqs: list[LocalLinearEquation], initials: np.ndarray
) -> np.ndarray:
    """Reference value of a consensus run: the average of the projections
    of the initial states onto the stacked solution set, computed
    centrally from the stacked pseudoinverse."""
    stacked = stack_equations(eqs)
    initials = np.asarray(initials, dtype=float)
    proj = np.stack([project_affine(stacked, row) for row in initials])
    return proj.mean(axis=0)


def stacked_rank_consistent(
    eqs: list[LocalLinearEquation], pivot_tol: float | None = None
) -> bool:
    """Whether the stacked linear system is solvable: the coefficient
    matrix and the augmented matrix have equal numerical rank."""
    stacked = stack_equations(eqs)
    rank_h, _, _ = rank_and_echelon(stacked.h, pivot_tol)
    augmented = np.hstack([stacked.h, stacked.z[:, None]])
    rank_hz, _, _ = rank_and_echelon(augmented, pivot_tol)
    return rank_h == rank_hz


def chi0(system: BooleanSystem) -> int:
    """Number of distinct output tuples (f_1(x), ..., f_n(x)) over all x,
    by enumeration.

    Always between 1 and min(2^m, 2^n); bounds the rank of the stacked
    lifted system, and is the prior that ``RunConfig.chi0_prior`` takes
    to run fewer randomized rounds.
    """
    images = {
        tuple(evaluate(f, itob(i, system.m)) for f, _ in system.equations)
        for i in range(1, 2**system.m + 1)
    }
    return len(images)


def boolean_vector_search_bruteforce(points: np.ndarray, tol: float = 1e-6) -> set[int]:
    """Reference unit-vector search, independent of the solver's hull and
    distance identity: the hull is the first point plus a QR basis of the
    echelon columns of the differences to it (rank at pivot threshold
    ``tol``), and every unit vector is tested with ``dist_to_affine``."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    offset = pts[0].copy()
    rank, echelon, _ = rank_and_echelon((pts[1:] - offset).T, tol)
    basis = np.linalg.qr(echelon)[0].T if rank else np.zeros((0, d))
    hull = AffineSubspace(d, offset, basis)
    return {i + 1 for i in range(d) if dist_to_affine(np.eye(d)[i], hull) <= tol}


# --- reference of the truncated-mode fit --------------------------------


def fixed_dim_fit(points: np.ndarray, target_dim: int) -> AffineSubspace:
    """Affine subspace of the given dimension minimizing the sum of squared
    distances to the points: the centroid plus the top principal directions
    of the centred point matrix, from a full SVD."""
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


def scan_fit_dim(points: np.ndarray, budget: float) -> int:
    """First b whose ``fixed_dim_fit`` keeps the summed direct distance to
    the points within the budget, scanning b = 0, 1, ... (d when none)."""
    d = points.shape[1]
    for b in range(d + 1):
        fit = fixed_dim_fit(points, b)
        if sum(dist_to_affine(p, fit) for p in points) <= budget:
            return b
    return d


# --- hypothesis strategies ----------------------------------------------


def formula_strategy(m: int, max_leaves: int = 12):
    leaf = st.one_of(
        st.builds(Var, st.integers(1, m)),
        st.builds(Const, st.sampled_from((0, 1))),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
            st.builds(Iff, inner, inner),
        ),
        max_leaves=max_leaves,
    )
