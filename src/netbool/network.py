"""Graph model and the synchronous round engine.

Each node holds a state vector; one round is a simultaneous update in
which every node mixes its own state with its neighbors' round-t states
and, in the projection variant, projects the mix onto its local affine
solution set.  ``consensus`` runs every node's round at once: the mix is
the product W X of the mixing matrix with the stacked states, and row i
of it reads only node i's neighbors, whose weights alone are nonzero.
Independent runs on the same network step together as extra columns of
X: row i then holds node i's states of every run, so a node still reads
only its own equation and its neighbors' rows.  Each ``consensus`` call
keeps one projection workspace, the residual and correction arrays its
rounds overwrite, while every round's state is a fresh array.  Rounds
are deterministic: each is a fixed sequence of array products, so under
a fixed BLAS identical inputs give bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .matricization import LiftedSystem

__all__ = ["Graph", "build_weights", "consensus", "run_to_convergence"]


@dataclass(frozen=True)
class Graph:
    """Simple undirected connected graph on nodes 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]  # pairs (i, j) with i < j

    def __post_init__(self):
        # a problem file's type rules: ``bool`` subclasses ``int``, but True
        # is no node id, and int() would truncate 1.7 to node 1
        if type(self.n) is not int:
            raise ValueError(f"node count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("a graph needs at least one node")
        for i, j in self.edges:
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"invalid edge ({i!r}, {j!r}): node ids must be integers")
            if not (1 <= i < j <= self.n):
                raise ValueError(f"invalid edge ({i}, {j}) for n={self.n}")
        if not self._connected():
            raise ValueError("graph is not connected")

    @classmethod
    def from_edge_list(cls, n: int, pairs: Sequence[Sequence[int]]) -> "Graph":
        """Build from 1-based [i, j] pairs of integers; orientation and
        duplicates are normalized away, self-loops rejected."""
        edges = set()
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"invalid edge {list(pair)!r}: expected a pair [i, j]")
            i, j = pair
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            edges.add((min(i, j), max(i, j)))
        return cls(n, frozenset(edges))

    @cached_property
    def _neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        table: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            table[a - 1].append(b)
            table[b - 1].append(a)
        return tuple(tuple(sorted(row)) for row in table)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Sorted neighbor ids of node i."""
        return self._neighbor_table[i - 1]

    def degree(self, i: int) -> int:
        return len(self._neighbor_table[i - 1])

    def _connected(self) -> bool:
        seen = {1}
        stack = [1]
        while stack:
            for j in self.neighbors(stack.pop()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.n


def build_weights(graph: Graph, epsilon: float) -> np.ndarray:
    """Symmetric row-stochastic mixing matrix for ``graph`` with step size
    ``epsilon`` in (0, 1/n): epsilon on every edge, 1 - deg(i)*epsilon on
    the diagonal."""
    if not 0.0 < epsilon < 1.0 / graph.n:
        raise ValueError(
            f"epsilon must lie strictly between 0 and 1/n = {1.0 / graph.n}, got {epsilon}"
        )
    w = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w[i - 1, j - 1] = epsilon
        w[j - 1, i - 1] = epsilon
    for i in range(1, graph.n + 1):
        w[i - 1, i - 1] = 1.0 - graph.degree(i) * epsilon
    return w


def consensus(
    w: np.ndarray,
    states: np.ndarray,
    eqs: LiftedSystem | None = None,
) -> Iterator[np.ndarray]:
    """The rounds of synchronous runs from ``states``: an endless generator
    of state arrays, a new array each round.  ``states`` is one run's
    (n, d) array (row i-1 is node i) or a batch of k runs as (k, n, d);
    each round has the input's shape.

    A round is x <- P(W x): every node mixes with its neighbors through
    the mixing matrix ``w``, then, when ``eqs`` is given, projects onto its
    own affine solution set by y - h^+ (h y - z), for all nodes at once as
    batched products on the lift's stacked arrays, whose index i is node
    i's equation.  With ``eqs`` None the round is plain averaging.  The k
    runs live in one C-contiguous (n, d k) array, coordinate-major with
    the run as the fastest axis, so a round is one ``w @ x`` for every run
    and one projection on its (n, d, k) view; one run is the case k = 1,
    where that array is the (n, d) state itself.  The residual h y - z,
    (n, r, k) for r-row equations, and the correction h^+ (h y - z),
    (n, d, k), are one workspace per call: the first round's products
    allocate them and later rounds write into them, in the same order of
    operations, so the states are bit-identical to freshly allocated
    products.  Only ``w @ x`` makes a new array, and each yield is that
    round's own, never a workspace array: a caller may keep every yield.
    The inputs are checked when the first round is requested.
    """
    x = np.asarray(states, dtype=float)
    n = w.shape[0]
    if x.ndim not in (2, 3) or x.shape[-2] != n:
        raise ValueError(
            f"expected one state row per node, got shape {x.shape} for n={n}"
        )
    if eqs is not None and len(eqs.h) != n:
        raise ValueError(f"expected {n} equations, got {len(eqs.h)}")
    batched = x.ndim == 3
    k, d = (x.shape[0], x.shape[2]) if batched else (1, x.shape[1])
    if batched:
        x = x.transpose(1, 2, 0).reshape(n, d * k)  # a C-contiguous copy
    del states  # the rounds read only x: the caller's initials can go
    resid = step = None  # the projection workspace, from the first round's products
    # a local name and a positional ``out`` skip a lookup and the keyword
    # parse: rounds at d <= 16 are mostly interpreter time
    matmul = np.matmul
    while True:
        x = w @ x
        y = x.reshape(n, d, k)
        if eqs is not None:
            resid = matmul(eqs.h, y, resid)
            resid -= eqs.z
            step = matmul(eqs.h_pinv, resid, step)
            y -= step
        yield y.transpose(2, 0, 1) if batched else x


def run_to_convergence(
    w: np.ndarray,
    states: np.ndarray,
    eqs: LiftedSystem | None,
    tol: float,
    max_rounds: int,
) -> tuple[np.ndarray, int, bool]:
    """Run ``consensus(w, states, eqs)`` on one run's (n, d) ``states``
    until the largest per-node state change in one round drops below
    ``tol`` (sup norm), or for ``max_rounds``.  Returns (final states,
    rounds used, converged).  A (k, n, d) batch is refused: its runs
    converge at different rounds, and one stop would hide that.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if np.ndim(states) == 3 and np.shape(states)[1] == w.shape[0]:
        raise ValueError(
            f"run_to_convergence steps one run's (n, d) states, got a batch "
            f"of shape {np.shape(states)}"
        )
    prev = states
    for rounds, x in enumerate(consensus(w, states, eqs), start=1):
        converged = bool(np.abs(x - prev).max() < tol)
        if converged or rounds == max_rounds:
            return x, rounds, converged
        prev = x
