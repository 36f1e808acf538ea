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
``run_to_convergence`` steps one run, or a batch of runs, each to its
own limit: each node reads its own last two shifts and, once they are
small, returns Aitken's extrapolate of its own trajectory, which stops a
linearly convergent run about half as many rounds in, and nearer its
limit, than the shift stop.  A run that stops leaves the batch, and the
others step on without it.  While every run's shift is loud, too large
for either stop, it reads the shifts in blocks: a round's shift is the
last one's times M = blockdiag(I - h_i^+ h_i) (W kron I), with
||M||_2 <= ||W||_2 <= 1, so a block's last 2-norm shift bounds every
earlier one from below, and one test of it proves the whole block loud.
The blocks move only the simulation's bookkeeping: the rounds, messages
and stops are the per-round loop's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np

from .matricization import LiftedSystem

__all__ = ["Graph", "build_weights", "consensus", "run_to_convergence"]

# sup shift below which ``run_to_convergence`` reads each node's
# extrapolated limit: the runs are then in their slowest mode, so one
# ratio of a node's shifts is its contraction rate
EXTRAPOLATE_BELOW = 1e-6
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
) -> tuple[np.ndarray, list[int], list[bool]]:
    """Run ``consensus(w, states, eqs)`` until each run converges, or for
    ``max_rounds``.  ``states`` is one run's (n, d) array or a batch of k
    runs as (k, n, d) that step together, each run to its own stop round.
    Returns (final states, shaped like ``states``, each run's rounds used,
    whether each run converged), the last two as lists of k ``int`` and
    ``bool``, one entry for one run's (n, d) states.

    Two stops per run, sup norms throughout.  A round whose largest
    per-node state change in the run is below ``tol`` stops the run with
    that round's state.  Once that change is below ``EXTRAPOLATE_BELOW``,
    each node i also reads its own last two shifts s_i and returns
    Aitken's Delta^2 limit of its own trajectory: with rho_i = |s_i(t)| /
    |s_i(t-1)|, the extrapolate is x_i(t) + s_i(t) rho_i / (1 - rho_i),
    and the run stops once no node's extrapolate moves by ``tol`` in one
    round.  A node with a zero shift or rho_i >= 1 keeps its plain state.
    The stop is the AND of the run's node bits, each from the node's own
    states only; the rounds and messages are those of ``consensus``.  With
    equations, each x_i(t) and x_i(t-1) lies in node i's own solution
    set, so the extrapolate, which moves along s_i, stays in it.  A run
    cut by ``max_rounds`` returns the plain state.  A run that stops
    leaves the batch: ``consensus`` restarts from the other runs' current
    states, so each run's rounds are those it would take alone (batched
    products may round a last bit differently).

    A round is loud when every running run's sup shift is at least
    quiet = max(tol, ``EXTRAPOLATE_BELOW``): no run stops or
    extrapolates, and the loop only keeps the round's state.  Before the
    first round and after a loud one, unless a failed block is still
    being replayed or ``max_rounds`` falls within the next ``BLOCK``
    rounds, the loop takes ``BLOCK`` rounds at once and tests only the
    last one's shift: if every run's 2-norm shift is at least sqrt(n d)
    quiet (1 + ``LOUD_MARGIN``), every round of the block was loud, and
    the loop keeps only the last state.  The proof: each round's shift is the
    previous one's times M = blockdiag(I - h_i^+ h_i) (W kron I), the
    projections' affine offsets cancelling, and an orthogonal projector
    has norm 1, so ||M||_2 <= ||w||_2 <= 1 and a run's 2-norm shift never
    grows; a sup norm is at least the 2-norm over sqrt(n d).  The margin,
    at least 1e-12 absolute, is about 100 times what rounding adds to a
    shift's 2-norm over a block of states of order one, as the solvers'
    are (uniform initials, limits in the lift's solution sets).  Every
    ``build_weights`` matrix has ||w||_2 <= 1, its eigenvalues
    1 - epsilon lambda lying in (-1, 1] for epsilon < 1/n; for a ``w``
    above 1 + 1e-12 the loop takes no block.  A block that fails the test
    is replayed round by round from its kept states, and a run that stops
    inside it restarts ``consensus`` and drops the rest, so the states,
    rounds and flags are the per-round loop's, bit for bit.
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
    # per running run: its index in ``states``, its rounds in a row below
    # EXTRAPOLATE_BELOW (None while every run is above it), and each
    # node's last sup shift and last extrapolate.  Per-run scalars are
    # Python lists: a batch holds a few dozen runs at most, and a round
    # at d <= 16 is mostly interpreter time
    active, streak, last, prev_est = list(range(k)), None, None, None
    quiet = max(tol, EXTRAPOLATE_BELOW)  # no run stops or extrapolates above it
    # a block whose last squared 2-norm shift is at least ``loud`` in every
    # run was loud in every round; with ||w||_2 > 1 a shift may grow
    loud = prev[0].size * (quiet * (1 + LOUD_MARGIN)) ** 2  # n d per run
    blocks = np.linalg.norm(w, 2) <= 1 + 1e-12
    replayed = 0  # the last round of a failed block, which ``runs`` replays
    largest_of = np.maximum.reduce
    runs = consensus(w, prev, eqs)
    t = 0
    while True:
        if streak is None and t >= replayed and t + BLOCK < max_rounds and blocks:
            block = list(islice(runs, BLOCK))
            shift = block[-1] - block[-2]
            if min(np.einsum("kij,kij->k", shift, shift).tolist()) >= loud:
                prev, t = block[-1], t + BLOCK
                continue
            runs, replayed = chain(block, runs), t + BLOCK
        x = next(runs)
        t += 1
        shift = x - prev
        size = np.abs(shift)
        largest = largest_of(size, axis=(1, 2)).tolist()
        if t < max_rounds and min(largest) >= quiet:
            prev, streak = x, None
            continue
        done = [s < tol for s in largest]
        if t == max_rounds:
            final[active] = x
            for j, c in zip(active, done):
                rounds[j], converged[j] = t, c
            break
        streak = [
            s + 1 if a < EXTRAPOLATE_BELOW else 0
            for s, a in zip(streak or [0] * len(active), largest)
        ]
        node = largest_of(size, axis=2)
        settled = [False] * len(active)
        if max(streak) >= 2:
            # rho / (1 - rho) = node / (last - node); a node with rho >= 1
            # or a zero last shift divides by inf, not by zero, and keeps
            # its plain state without a warning.  A run extrapolates from
            # its second round below the guard and may stop from its
            # third: a node's two shifts, and two extrapolates, must be
            # consecutive
            shift *= (node / np.where(last > node, last - node, np.inf))[:, :, None]
            est = shift + x
            if max(streak) >= 3:
                moved = largest_of(np.abs(est - prev_est), axis=(1, 2)).tolist()
                settled = [s >= 3 and a < tol and not p for s, a, p in zip(streak, moved, done)]
            prev_est = est
        last = node
        if not (any(done) or any(settled)):
            prev = x
            continue
        going = []
        for j, (plain, extrapolated) in enumerate(zip(done, settled)):
            if plain or extrapolated:
                final[active[j]] = est[j] if extrapolated else x[j]
                rounds[active[j]], converged[active[j]] = t, True
            else:
                going.append(j)
        if not going:
            break
        active = [active[j] for j in going]
        streak = [streak[j] for j in going]
        prev, last = x[going], last[going]
        if prev_est is not None:
            prev_est = prev_est[going]
        runs, replayed = consensus(w, prev, eqs), t
    return (final[0] if single else final), rounds, converged
