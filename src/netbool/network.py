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
finishes each run second-order, at the optimal stationary omega (Golub
and Varga 1961) for the rate its shifts read.  The limits are the
paper's: with a round x <- M x + c, M = blockdiag(I - h_i^+ h_i)
(W kron I), a convergent run has u^T c = 0 for any u^T M = u^T, so both
recursions keep u^T x once x(t) and x(t-1) share it, as a first-order
round leaves them; from round 2 on both, and so any affine combination
of them, lie in each node's own solution set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np

from .matricization import LiftedSystem

__all__ = ["Graph", "build_weights", "consensus", "run_to_convergence"]

# sup shift below which ``run_to_convergence`` switches a run to
# second-order rounds: the run is then in its slowest modes, so a node's
# ratio of its last two shifts is its contraction rate
SECOND_ORDER_BELOW = 1e-4
# rounds ``run_to_convergence`` takes at once from a loud batch, testing
# only the last one's shift, and that test's relative margin for the
# rounding a block adds to the shifts
BLOCK = 8
LOUD_MARGIN = 1e-6


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
    omega: float | Sequence[float] | None = None,
    previous: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The rounds of synchronous runs from ``states``: an endless generator
    of state arrays, a new array each round.  ``states`` is one run's
    (n, d) array (row i-1 is node i) or a batch of k runs as (k, n, d);
    each round has the input's shape.

    A round is x <- P(W x): every node mixes with its neighbors through
    the mixing matrix ``w``, then, when ``eqs`` is given, projects onto its
    own affine solution set by y - h^+ (h y - z), for all nodes at once as
    batched products on the lift's stacked arrays, whose index i is node
    i's equation.  With ``eqs`` None the round is plain averaging.  With
    ``omega`` given, one weight per run (a number for one run), the round
    is second-order, x(t+1) <- omega P(W x(t)) + (1 - omega) x(t-1), from
    ``previous``, the states one round before ``states``; omega = 1 is the
    first-order round bit for bit, as 1 y + 0 x = y.  The k runs live in
    one C-contiguous (n, d k) array, coordinate-major with the run as the
    fastest axis, so a round is one ``w @ x`` for every run and one
    projection on its (n, d, k) view; one run is the case k = 1, where
    that array is the (n, d) state itself.  The residual h y - z, the
    correction h^+ (h y - z) and (1 - omega) x(t-1) are one workspace per
    call: the first round's products allocate them and later rounds write
    into them, in the same order of operations, so the states are
    bit-identical to freshly allocated products.  Only ``w @ x`` makes a
    new array, and each yield is that round's own, never a workspace
    array: a caller may keep every yield.  The inputs are checked when the
    first round is requested.
    """
    x = np.asarray(states, dtype=float)
    n = w.shape[0]
    if x.ndim not in (2, 3) or x.shape[-2] != n:
        raise ValueError(
            f"expected one state row per node, got shape {x.shape} for n={n}"
        )
    if eqs is not None and len(eqs.h) != n:
        raise ValueError(f"expected {n} equations, got {len(eqs.h)}")
    if omega is not None and np.shape(previous) != x.shape:
        raise ValueError(f"second-order rounds need previous states shaped {x.shape}")
    batched = x.ndim == 3
    k, d = (x.shape[0], x.shape[2]) if batched else (1, x.shape[1])
    if batched:
        x = x.transpose(1, 2, 0).reshape(n, d * k)  # a C-contiguous copy
    del states  # the rounds read only x: the caller's initials can go
    if omega is not None:  # x(t-1), omega and 1 - omega in the states' layout
        before = np.asarray(previous, dtype=float)
        before = before.transpose(1, 2, 0).reshape(n, d * k) if batched else before
        keep = np.empty((n, d, k))
        keep[...] = omega  # whole-array products take half the time of a broadcast
        omega, keep = keep.reshape(x.shape), 1.0 - keep.reshape(x.shape)
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
        yield y.transpose(2, 0, 1) if batched else x


def run_to_convergence(
    w: np.ndarray,
    states: np.ndarray,
    eqs: LiftedSystem | None,
    tol: float,
    max_rounds: int,
) -> tuple[np.ndarray, list[int], list[bool]]:
    """Run ``consensus(w, states, eqs)`` until each run converges, or for
    ``max_rounds``.  ``states`` is one run's (n, d) array or a batch of k
    runs as (k, n, d) that step together, each run to its own stop round.
    Returns (final states, shaped like ``states``, each run's rounds used,
    whether each run converged), the last two as lists of k ``int`` and
    ``bool``, one entry for one run's (n, d) states.

    One stop per run: the first round whose sup shift s(t), the largest
    per-node state change in the run, is below ``tol``.  Each run starts
    first-order.  From round 2 on, a first-order run with s(t) below
    ``SECOND_ORDER_BELOW``, in its slowest modes, reads its rate as rho =
    s(t) / s(t-1) and steps second-order from the next round on, at
    omega = 2 / (1 + sqrt(1 - rho^2)); a ratio not below 1 waits a round.
    Its slow modes then contract at r = sqrt(omega - 1) < rho, so a
    stopped run lies within about s(t) r / (1 - r) of its limit.  The
    largest of the nodes' own ratios would overshoot rho where faster
    modes cancel in a node's shift: corpus runs rang and stopped up to
    1.4e-8 from their limits, against 4.6e-9.  In a network s(t) is a
    max-flood of the nodes' own sup shifts and the stop an AND of their
    bits; like the solvers' certificate, the simulation reads both
    directly.  A run cut by ``max_rounds`` returns its state then.  A run
    that stops or switches restarts ``consensus`` from the running runs'
    current and previous states, so each run's rounds are those it would
    take alone (batched products may round a last bit differently).

    While every run is first-order, a round is loud when every run's sup
    shift is at least quiet = max(tol, ``SECOND_ORDER_BELOW``), so that no
    run stops or switches.  Unless a failed block is being replayed or
    ``max_rounds`` falls within the next ``BLOCK`` rounds, the loop then
    takes ``BLOCK`` rounds at once and tests only the last shift: if every
    run's 2-norm shift is at least sqrt(n d) quiet (1 + ``LOUD_MARGIN``),
    every round of the block was loud, since each first-order round's
    shift is the last one's times M, the affine offsets cancelling, with
    ||M||_2 <= ||w||_2 <= 1, and a sup norm is at least the 2-norm over
    sqrt(n d).  A second-order round's map, a companion matrix, is not
    normal and may grow a shift, so no block is taken once a run has
    switched.  The margin, at least 1e-12 absolute, is about 100 times the
    rounding a block adds to the shifts of states of order one, as the
    solvers' are; for a ``w`` with ||w||_2 above 1 + 1e-12, which no
    ``build_weights`` matrix has, the loop takes no block.  A failed block
    is replayed round by round, and a run that stops or switches inside
    it drops the rest, so the results are the per-round loop's, bit for
    bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    single = np.ndim(states) == 2
    prev = np.asarray(states, dtype=float)
    if single:
        prev = prev[None]  # one run is the batch of one
    k = len(prev)
    final = np.empty_like(prev)
    rounds, converged = [0] * k, [False] * k
    # per running run: its index in ``states`` and its omega, 1 while it is
    # first-order.  Per-run scalars are Python lists: a batch holds a few
    # dozen runs at most, and a round at d <= 16 is mostly interpreter time
    active, omega, first_order = list(range(k)), [1.0] * k, True
    # no run stops or switches above quiet, nor a running run above floor,
    # which is quiet until every running run has switched, then tol
    floor = quiet = max(tol, SECOND_ORDER_BELOW)
    # a block whose last squared 2-norm shift is at least ``loud`` in every
    # run was loud in every round; with ||w||_2 > 1 a shift may grow
    loud = prev[0].size * (quiet * (1 + LOUD_MARGIN)) ** 2  # n d per run
    blocks = np.linalg.norm(w, 2) <= 1 + 1e-12
    replayed = 0  # the last round of a failed block, which ``runs`` replays
    largest_of = np.maximum.reduce
    runs = consensus(w, prev, eqs)
    t, largest = 0, None  # each running run's sup shift in round t
    while True:
        if first_order and t >= replayed and t + BLOCK < max_rounds and blocks:
            block = list(islice(runs, BLOCK))
            shift = block[-1] - block[-2]
            if min(np.einsum("kij,kij->k", shift, shift).tolist()) >= loud:
                prev, t = block[-1], t + BLOCK
                largest = largest_of(np.abs(shift), axis=(1, 2)).tolist()
                continue
            runs, replayed = chain(block, runs), t + BLOCK
        x = next(runs)
        t += 1
        last, largest = largest, largest_of(np.abs(x - prev), axis=(1, 2)).tolist()
        if t < max_rounds and min(largest) >= floor:
            prev = x
            continue
        order = omega
        if 1.0 in omega:
            # a first-order run below SECOND_ORDER_BELOW switches at the ratio
            # of its last two sup shifts if below 1 (round 1 has one shift)
            order = [
                2.0 / (1.0 + math.sqrt(1.0 - (s / b) ** 2))
                if o == 1.0 and s < SECOND_ORDER_BELOW and s < b
                else o
                for o, s, b in zip(omega, largest, last or largest)
            ]
        going = [j for j, s in enumerate(largest) if s >= tol and t < max_rounds]
        if len(going) == len(active) and order == omega:
            prev = x
            continue
        for j, s in enumerate(largest):
            if s < tol or t == max_rounds:
                final[active[j]] = x[j]
                rounds[active[j]], converged[active[j]] = t, s < tol
        if not going:
            break
        active, omega = [active[j] for j in going], [order[j] for j in going]
        largest = [largest[j] for j in going]
        first_order = max(omega) == 1.0  # then no run needs its previous states
        floor = quiet if 1.0 in omega else tol
        x = x[going]
        runs = consensus(w, x, eqs) if first_order else consensus(w, x, eqs, omega, prev[going])
        prev, replayed = x, t
    return (final[0] if single else final), rounds, converged
