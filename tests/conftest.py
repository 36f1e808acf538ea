"""Shared fixtures: the four worked example systems, their published
sample data, path and complete graphs, seeded random generators for
systems, formulas and graphs, and the centralised references that tests
compare the distributed solvers against (dense unit vectors, the
whole-system check of one assignment, the assignment-by-assignment
oracle, general linear equations with an SVD pseudoinverse,
single-vector projection, echelon rank, stacked equations, consensus
value, stacked-rank consistency, image cardinality, unit-vector search,
fixed-dimension fit, the truncated-mode dimension scan, the exact modes'
certified runs drawn one at a time and the convergent runs' per-round
loop)."""

from __future__ import annotations

import math
import os

# One BLAS thread, set before numpy loads: on a 2-CPU host a second
# OpenBLAS thread can stall a small thin SVD for tens of milliseconds,
# enough to break the wall-clock bound of test_cost_growth_stays_within_bound.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import dataclass
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
from netbool.linalg import AffineSubspace, best_affine_fit, dist_to_affine
from netbool.matricization import LiftedSystem, itob, lift_system
from netbool.network import BLOCK, SETTLED, Graph, consensus
from netbool.solver import RANK_TOL, RunConfig, SplitMix64, distributed_lae

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
    return path_graph(3)


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


def path_graph(n: int) -> Graph:
    return Graph.from_edge_list(n, [[i, i + 1] for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edge_list(
        n, [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


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


def unit_vector(i: int, dim: int) -> np.ndarray:
    """Dense i-th column (1-based) of the dim x dim identity matrix."""
    if not 1 <= i <= dim:
        raise ValueError(f"index {i} out of range 1..{dim}")
    e = np.zeros(dim)
    e[i - 1] = 1.0
    return e


def satisfies(system: BooleanSystem, x: Sequence[int]) -> bool:
    """True when the assignment ``x`` solves every equation of ``system``."""
    return all(evaluate(f, x) == rhs for f, rhs in system.equations)


def oracle_bruteforce(system: BooleanSystem) -> set[tuple[int, ...]]:
    """Reference of ``oracle_solve``: every assignment in turn, kept when
    ``satisfies`` holds there."""
    return {
        x
        for i in range(1, 2**system.m + 1)
        if satisfies(system, x := tuple(itob(i, system.m)))
    }


@dataclass
class Equation:
    """A general linear equation h y = z with numpy's SVD pseudoinverse of
    h (singular values below 1e-12 times the largest count as zero): the
    reference the lift's closed-form ``h_pinv`` and the consensus round's
    projection are checked against."""

    h: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.h_pinv = np.linalg.pinv(self.h, rcond=1e-12)

    @property
    def dim(self) -> int:
        return self.h.shape[1]


def node_equations(lift: LiftedSystem) -> list[Equation]:
    """Each node's lifted equation as a general one, pseudoinverse from the
    SVD."""
    return [Equation(h, z[:, 0]) for h, z in zip(lift.h, lift.z)]


def lifted(eqs: Sequence[Equation]) -> LiftedSystem:
    """General equations with one row count, stacked the way the consensus
    round reads a lift."""
    return LiftedSystem(
        np.stack([eq.h for eq in eqs]),
        np.stack([eq.z for eq in eqs])[:, :, None],
        np.stack([eq.h_pinv for eq in eqs]),
    )


def project_affine(eq: Equation, y: np.ndarray) -> np.ndarray:
    """Project ``y`` onto the affine solution set of ``eq``, one vector at
    a time: the per-node reference for the consensus round's batched
    projection.

    Computed as y - h^+ (h y - z); equals (I - h^+ h) y + h^+ z.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (eq.dim,):
        raise ValueError(f"expected a vector of length {eq.dim}, got shape {y.shape}")
    return y - eq.h_pinv @ (eq.h @ y - eq.z)


def stack_equations(eqs: Sequence[Equation] | LiftedSystem) -> Equation:
    """Single equation equivalent to the whole collection (a lift's node
    equations or general ones): rows of every h stacked over rows of
    every z."""
    if isinstance(eqs, LiftedSystem):
        eqs = node_equations(eqs)
    if len(eqs) == 0:
        raise ValueError("expected at least one equation")
    h = np.vstack([eq.h for eq in eqs])
    z = np.concatenate([eq.z for eq in eqs])
    return Equation(h, z)


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
        pivot_tol = 1e-8 * float(np.abs(a).max())

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
    eqs: Sequence[Equation] | LiftedSystem, initials: np.ndarray
) -> np.ndarray:
    """Reference value of a consensus run: the average of the projections
    of the initial states onto the stacked solution set, computed
    centrally from the stacked pseudoinverse."""
    stacked = stack_equations(eqs)
    initials = np.asarray(initials, dtype=float)
    proj = np.stack([project_affine(stacked, row) for row in initials])
    return proj.mean(axis=0)


def stacked_rank_consistent(
    eqs: Sequence[Equation] | LiftedSystem, pivot_tol: float | None = None
) -> bool:
    """Whether the stacked linear system is solvable: the coefficient
    matrix and the augmented matrix have equal numerical rank."""
    stacked = stack_equations(eqs)
    rank_h, _, _ = rank_and_echelon(stacked.h, pivot_tol)
    augmented = np.hstack([stacked.h, stacked.z[:, None]])
    rank_hz, _, _ = rank_and_echelon(augmented, pivot_tol)
    return rank_h == rank_hz


def sequential_certified_runs(
    system: BooleanSystem, graph: Graph, config: RunConfig
) -> tuple[int, int, np.ndarray, list[int], bool, list]:
    """Reference for ``solver._certified_runs``, with its arguments and
    results: run j's initials are the stream's j-th (n, 2^m) block,
    stepped alone, and after each run j >= max(3, 2^m - n + 2), or at
    j = k*, every node fits its j limits at ``RANK_TOL``; the runs stop
    once every fit has dimension at most j - 3.  The runs stepped are the
    runs kept."""
    k = config.effective_k_star(system.m)
    eqs, stream = lift_system(system), SplitMix64(config.seed)
    n, d = graph.n, 2**system.m
    limits, rounds, converged = [], [], True
    for j in range(1, k + 1):
        x, r, c, _ = distributed_lae(eqs, graph, config, stream.random((n, d)))
        limits.append(x)
        rounds.append(r)
        converged = converged and c
        if j >= max(3, d - n + 2) or j == k:
            linear = np.stack(limits)
            fits = [best_affine_fit(linear[:, i], RANK_TOL) for i in range(n)]
            if j == k or all(fit.dim <= j - 3 for fit, _ in fits):
                return k, j, linear, rounds, converged, fits
    raise ValueError(f"k_star must be >= 1, got {k}")


def per_round_convergence(
    w: np.ndarray,
    states: np.ndarray,
    eqs: LiftedSystem | None,
    tol: float,
    max_rounds: int,
) -> tuple[np.ndarray, list[int], list[bool]]:
    """Reference for ``network.run_to_convergence``, with its arguments and
    results, read one round at a time.  The batch steps as one run: a
    round's sup shift s(t) is the largest change over every run, node and
    coordinate.  A first-order batch stops in the first round with s(t)
    below ``tol``, a second-order one once its last ``BLOCK`` shifts are
    below it, and either at ``max_rounds``.  Every ``BLOCK`` rounds the
    batch reads m = (s(t) / s(t - W))^(1 / W), W = 2 ``BLOCK``, from the
    shifts since its last (re)start, that round's own included, and m0 the
    same one window back; m has settled when m < 1, s(t - W) and
    s(t - 2 W) are nonzero, and |m - m0| <= ``SETTLED`` (1 - m).  A
    settled first-order m is rho; a settled second-order m above
    sqrt(omega - 1) reads rho' = (m^2 + omega - 1) / (omega m), taken
    when 1 - rho' <= (1 - ``SETTLED``) (1 - rho).  A new rho restarts the
    batch second-order at omega = 2 / (1 + sqrt(1 - rho^2)).  Its states,
    rounds and converged flags are the engine's bit for bit."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    single = np.ndim(states) == 2
    prev = np.asarray(states, dtype=float)
    if single:
        prev = prev[None]  # one run is the batch of one
    runs, shifts, omega, rho, quiet = consensus(w, prev, eqs), [], None, None, 0
    for t in range(1, max_rounds + 1):
        x = next(runs)
        shifts.append(s := float(np.abs(x - prev).max()))
        quiet = quiet + 1 if s < tol else 0
        if quiet == (1 if omega is None else BLOCK):
            break
        if t % BLOCK == 0 and (new := restart_rate(shifts, omega, rho)) is not None:
            rho, omega = new, 2.0 / (1.0 + math.sqrt(1.0 - new * new))
            runs, shifts = consensus(w, x, eqs, omega, prev), [s]
        prev = x
    final = np.array(x[0] if single else x)
    done = quiet == (1 if omega is None else BLOCK)
    return final, [t] * len(x), [done] * len(x)


def restart_rate(shifts: list[float], omega: float | None, rho: float | None) -> float | None:
    """The rho ``per_round_convergence`` restarts at after these shifts
    since its last (re)start, or None."""
    window = 2 * BLOCK
    if len(shifts) <= 2 * window or not shifts[-1 - 2 * window] > 0 < shifts[-1 - window]:
        return None
    m = (shifts[-1] / shifts[-1 - window]) ** (1.0 / window)
    m0 = (shifts[-1 - window] / shifts[-1 - 2 * window]) ** (1.0 / window)
    if m >= 1.0 or abs(m - m0) > SETTLED * (1.0 - m):
        return None
    if omega is None:
        return m
    if m <= math.sqrt(omega - 1.0):
        return None
    m = (m * m + omega - 1.0) / (omega * m)
    return m if 1.0 - m <= (1.0 - SETTLED) * (1.0 - rho) else None


def first_order_limits(
    w: np.ndarray, states: np.ndarray, eqs: LiftedSystem | None, tol: float = 1e-13
) -> np.ndarray:
    """The paper's first-order rounds from ``states``, run on to the first
    round whose sup shift is below ``tol``: the runs' limits to within
    about that shift over one minus their rate."""
    prev = states
    for x in consensus(w, states, eqs):
        if np.abs(x - prev).max() < tol:
            return x
        prev = x


def chi0(system: BooleanSystem) -> int:
    """Number of distinct output tuples (f_1(x), ..., f_n(x)) over all x,
    by enumeration.

    Always between 1 and min(2^m, 2^n); bounds the rank of the stacked
    lifted system from above.
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
    hull = AffineSubspace(offset, basis)
    return {i + 1 for i in range(d) if dist_to_affine(np.eye(d)[i], hull) <= tol}


# --- reference of the subspace fit --------------------------------------


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
        return AffineSubspace(centroid, np.zeros((0, d)))
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=True)
    return AffineSubspace(centroid, vt[:target_dim].copy())


def scan_rank(points: np.ndarray, tol: float) -> int:
    """First b whose ``fixed_dim_fit`` leaves a residual matrix of spectral
    norm at most ``tol``, scanning b = 0, 1, ... (d when none): the
    Eckart-Young reading of a rank threshold."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    for b in range(d + 1):
        fit = fixed_dim_fit(pts, b)
        centred = pts - fit.offset
        residual = centred - centred @ fit.basis.T @ fit.basis
        if np.linalg.norm(residual, 2) <= tol:
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
