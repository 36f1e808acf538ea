"""Graph model and the synchronous round engine.

Each node holds a state vector; one round is a simultaneous update in
which every node mixes its own state with its neighbors' round-t states
and, in the projection variant, projects the mix onto its local affine
solution set.  ``consensus`` runs every node's round at once: the mix is
the product W X of the mixing matrix with the stacked states, and row i
of it reads only node i's neighbors, whose weights alone are nonzero.
Independent runs on the same network step together as extra columns of
X: row i then holds node i's states of every run, so a node still reads
only its own equation and its neighbors' rows.  Rounds are
deterministic: each is a fixed sequence of array products, so under a
fixed BLAS identical inputs give bit-identical trajectories.

A round is first-order, the paper's x <- P(W x), or second-order, an
extension of the paper: heavy-ball consensus (Oreshkin, Coates and
Rabbat, IEEE TSP 2010), x(t+1) = omega P(W x(t)) + (1 - omega) x(t-1),
each node also keeping its own last state.  ``run_to_convergence``
steps a batch of runs as one network run, with one stop.  Once the rate
its shifts read over two windows has settled, it steps second-order at
the optimal stationary omega (Golub and Varga 1961) for that rate, and
re-reads the rate if a real root shows that omega came from a faster
mode; a second-order batch stops only after a block of quiet rounds,
since its complex modes ring.  The limits are the paper's: with a round
x <- M x + c, M = blockdiag(I - h_i^+ h_i) (W kron I), a convergent run
has u^T c = 0 for any u^T M = u^T, so both recursions keep u^T x once
x(t) and x(t-1) share it, as a first-order round leaves them; from round
2 on both, and so any affine combination of them, lie in each node's own
solution set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .matricization import LiftedSystem

__all__ = ["Graph", "build_weights", "consensus", "run_to_convergence"]

# relative agreement, in units of 1 - m, at which two windows' rates m
# have settled in ``run_to_convergence``, and the least cut of 1 - rho for
# which a re-read restarts it
SETTLED = 0.1
# rounds ``run_to_convergence`` takes at once, reading their sup shifts in
# one reduction
BLOCK = 8


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
    omega: float | None = None,
    previous: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The rounds of a batch of synchronous runs from ``states``, k runs'
    states as a (k, n, d) array (row i-1 of run j is node i): an endless
    generator of (k, n, d) state arrays, a new array each round.  One run
    is the batch of one.

    A round is x <- P(W x): every node mixes with its neighbors through
    the mixing matrix ``w``, then, when ``eqs`` is given, projects onto its
    own affine solution set by y - h^+ (h y - z), for all nodes at once as
    batched products on the lift's stacked arrays, whose index i is node
    i's equation.  With ``eqs`` None the round is plain averaging.  With
    ``omega`` given, one weight for every run, the round is second-order,
    x(t+1) <- omega P(W x(t)) + (1 - omega) x(t-1), from ``previous``, the
    states one round before ``states``; omega = 1 is the first-order round
    bit for bit, as 1 y + 0 x = y.  The k runs live in one C-contiguous
    (n, d k) array, coordinate-major with the run as the fastest axis, so
    a round is one ``w @ x`` for every run and one projection on its
    (n, d, k) view.  The residual h y - z, the correction h^+ (h y - z) and
    (1 - omega) x(t-1) are one workspace per call: the first round's
    products allocate them and later rounds write into them, in the same
    order of operations, so the states are bit-identical to freshly
    allocated products.  Only ``w @ x`` makes a new array, and each yield
    is that round's own, never a workspace array: a caller may keep every
    yield.  The inputs are checked when the first round is requested.
    """
    x = np.asarray(states, dtype=float)
    n = w.shape[0]
    if x.ndim != 3 or x.shape[1] != n:
        raise ValueError(
            f"expected a batch of states shaped (k, n, d), one state row per "
            f"node, got shape {x.shape} for n={n}"
        )
    k, _, d = x.shape
    if eqs is not None and len(eqs.h) != n:
        raise ValueError(f"expected {n} equations, got {len(eqs.h)}")
    if omega is not None and np.shape(previous) != x.shape:
        raise ValueError(f"second-order rounds need previous states shaped {x.shape}")
    x = x.transpose(1, 2, 0).reshape(n, d * k)  # a C-contiguous copy
    del states  # the rounds read only x: the caller's initials can go
    if omega is not None:  # x(t-1), omega and 1 - omega in the states' layout
        before = np.asarray(previous, dtype=float).transpose(1, 2, 0).reshape(n, d * k)
        # whole-array products take half the time of a scalar's broadcast
        omega, keep = np.full(x.shape, omega), np.full(x.shape, 1.0 - omega)
    del previous
    resid = step = held = None  # the workspace, from the first round's products
    # a local name and a positional ``out`` skip a lookup and the keyword
    # parse: rounds at d <= 16 are mostly interpreter time
    matmul, multiply = np.matmul, np.multiply
    while True:
        if omega is not None:
            held = multiply(before, keep, held)  # (1 - omega) x(t-1)
            before = x
        x = w @ x
        y = x.reshape(n, d, k)
        if eqs is not None:
            resid = matmul(eqs.h, y, resid)
            resid -= eqs.z
            step = matmul(eqs.h_pinv, resid, step)
            y -= step
        if omega is not None:
            x *= omega
            x += held
        yield y.transpose(2, 0, 1)


def run_to_convergence(
    w: np.ndarray,
    states: np.ndarray,
    eqs: LiftedSystem | None,
    tol: float,
    max_rounds: int,
) -> tuple[np.ndarray, int, bool]:
    """Run ``consensus(w, states, eqs)`` on a (k, n, d) batch of runs until
    it converges, or for ``max_rounds``.  The batch steps as one network
    run: one omega and one stop for all its runs.  Returns (final states,
    (k, n, d) and C-contiguous, the rounds the network stepped, whether
    the batch converged).

    A round's sup shift s(t) is the largest state change over the runs,
    nodes and coordinates; in a network it is a max-flood of one number per
    node, which the simulation reads directly, as it does the certificate's
    AND.  The batch starts first-order.  At each block end it reads its
    rate over the last window of 2 ``BLOCK`` rounds, m = (s(t) /
    s(t - 2 BLOCK))^(1 / (2 BLOCK)), and over the window before that; the
    rate has settled when the two agree within ``SETTLED`` (1 - m), with
    m < 1 and no zero shift at a window's start (``_settled_rate``).  A
    settled first-order rate is the slowest mode's rho, and the batch
    steps second-order from the next round on, at omega = 2 / (1 +
    sqrt(1 - rho^2)).  The runs share the network and its projectors, so
    they share that rate, and their slow modes then contract at
    r = sqrt(omega - 1) < rho, as complex roots.  A settled second-order
    rate m above r shows a real root instead: omega was read from a faster
    mode, whose roots r solve r^2 = omega rho r - (omega - 1).  So the
    batch re-reads rho = (m^2 + omega - 1) / (omega m), and restarts
    second-order at that rho's omega when it cuts 1 - rho by at least the
    fraction ``SETTLED``.  The windows after a (re)start at round t begin
    at s(t).

    A first-order batch stops in the first round whose s(t) is below
    ``tol``.  A second-order one stops once its last ``BLOCK`` sup shifts
    are all below ``tol``: complex modes ring, so one shift can dip below
    ``tol`` on the way through zero while the states are still far from
    their limits.  Either way it stops at ``max_rounds``, with its state
    then, unconverged.

    The loop takes ``BLOCK`` rounds at once from ``consensus``, none past
    ``max_rounds``, and reads every round's sup shift in one reduction over
    the stacked states.  It stops at the first round that meets the stop
    rule and drops the rest of the block, and it reads rates and restarts
    only at block ends, so the results are those of a loop that checks
    every round, bit for bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    prev = np.asarray(states, dtype=float)
    runs = consensus(w, prev, eqs)
    # need: the quiet rounds, with s(t) below tol, that stop the batch
    t, quiet, need, rho, omega, shifts = 0, 0, 1, None, None, []
    while True:
        block = np.array([prev, *islice(runs, min(BLOCK, max_rounds - t))])
        read = np.abs(block[1:] - block[:-1]).max(axis=(1, 2, 3)).tolist()
        for i, s in enumerate(read, start=1):
            t += 1
            quiet = quiet + 1 if s < tol else 0
            if quiet == need or t == max_rounds:
                # a copy: a view would keep the whole block alive
                return block[i].copy(), t, quiet == need
        prev = block[-1]
        shifts += read
        rate = _settled_rate(shifts)
        if rate is None:
            continue
        if omega is not None:  # a real root, if any, read back to rho
            if rate <= math.sqrt(omega - 1.0):
                continue
            rate = (rate * rate + omega - 1.0) / (omega * rate)
            if 1.0 - rate > (1.0 - SETTLED) * (1.0 - rho):
                continue
        rho, need = rate, BLOCK
        omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
        runs = consensus(w, block[-1], eqs, omega, block[-2])
        shifts = shifts[-1:]  # the new phase's windows start at round t


def _settled_rate(shifts: list[float]) -> float | None:
    """The rate m = (s(t) / s(t - W))^(1 / W) of the last window of
    W = 2 ``BLOCK`` sup shifts, if it has settled: m < 1, and the window
    before, from s(t - 2 W) to s(t - W), read the same within ``SETTLED``
    (1 - m).  None while there are fewer than 2 W + 1 shifts, or when a
    window starts at a zero shift, which reads no rate."""
    window = 2 * BLOCK
    if len(shifts) <= 2 * window:
        return None
    first, middle, last = shifts[-1 - 2 * window], shifts[-1 - window], shifts[-1]
    if first <= 0.0 or middle <= 0.0:
        return None
    m = (last / middle) ** (1.0 / window)
    if m >= 1.0 or abs(m - (middle / first) ** (1.0 / window)) > SETTLED * (1.0 - m):
        return None
    return m
