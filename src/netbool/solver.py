"""Top-level solvers: lift a Boolean system to per-node linear equations
(``matricization.lift_system``), solve those by projection consensus over
the network, and recover Boolean solutions by searching the affine hull of
the consensus outputs.

Four entry points:

* ``solve_exact``       - run consensus to numerical convergence, the
  runs up to the first certificate check as one batch in which each run
  stops at its own round, then one run at a time until every node's
  hull is certified complete, search the hull of the resulting solutions
  (requires a satisfiable system);
* ``solve_approximate`` - consensus truncated to T rounds per run, all
  runs stepped as one batch; each node takes the same affine subspace of
  its outputs, at a threshold raised to the bound on their distance from
  the limits that its own last two rounds give, then searches that at a
  slack that also bounds how far the fit may tilt;
* ``verify_satisfiability`` - decide satisfiability with no prior
  knowledge: disagreeing consensus limits expose an inconsistent lifted
  system, an empty search result exposes Boolean unsatisfiability;
* ``oracle_solve``      - centralized exhaustive reference: the AND of
  the n equations' truth tables, each one vectorised ``evaluate``.

Both solve modes take each node's subspace through ``best_affine_fit``,
then answer through ``_search_outcome``: a node's answer is the unit
vectors of its own subspace, and only ``oracle_solve`` evaluates the
whole system.  The modes differ in their runs (``_certified_runs`` for
the exact modes, one batched T-round pass for the truncated one) and in
the rank threshold and search slack that follow from their stop rule.

All randomness flows from the seed in ``RunConfig``, through
``SplitMix64`` streams; identical configurations produce identical
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .formula import BooleanSystem, truth_table
from .linalg import (
    AffineSubspace,
    best_affine_fit,
    dist_to_affine,  # noqa: F401  unused; perfbench/tracing.py wraps this name
)
from .matricization import LiftedSystem, itob, lift_system
from .network import Graph, build_weights, consensus, run_to_convergence
from .search import boolean_vector_search

__all__ = [
    "RunConfig",
    "SolveOutcome",
    "SplitMix64",
    "distributed_lae",
    "solve_exact",
    "solve_approximate",
    "verify_satisfiability",
    "oracle_solve",
    "estimate_contraction_rate",
]

Assignment = tuple[int, ...]

# per-round sup-norm change below which a convergent consensus run stops,
# of the state itself or of the nodes' extrapolated limits
# (``network.run_to_convergence``; ``max_rounds`` caps it otherwise)
CONSENSUS_TOL = 1e-10
# gap between a node's consensus limit and the network average above which
# satisfiability verification calls the lifted system inconsistent
DISAGREEMENT_TOL = 1e-6
# exact hulls' rank threshold; also floors the truncated mode's thresholds
RANK_TOL = 1e-6
# smallest kept over largest dropped singular value below which a node's
# subspace leaves the outcome undecided: the rank threshold then splits no
# clear gap, so the subspace may have lost a real direction or kept noise
GAP_MIN = 100.0
# most variables ``oracle_solve`` enumerates: 2^20 assignments
ORACLE_CAP = 20


@dataclass
class RunConfig:
    """Tunable parameters of a solver run.

    ``epsilon`` defaults to 0.9/n (always inside the admissible range),
    ``k_star`` to 2^m + 1, which always spans a node's hull: every lifted
    equation fixes the coordinate sum, so the hull has dimension at most
    2^m - 1.  ``k_star`` is the truncated mode's number of randomized
    consensus runs and the most runs the exact modes draw: they stop
    earlier once every node's hull is certified complete.  ``T``, the
    truncated mode's rounds per run, is refused by the other modes, and
    ``max_rounds`` caps the convergent runs of those modes only.  The
    truncated mode's thresholds are no fields: each node reads its own
    from its last two rounds (``solve_approximate``).  The other
    thresholds are module constants or, for the search, come from the
    lift.  ``seed``, in [0, 2^64), seeds the ``SplitMix64`` stream that
    draws every consensus run's initials.
    """

    epsilon: float | None = None
    k_star: int | None = None
    T: int | None = None
    seed: int = 0
    max_rounds: int = 5000

    def __post_init__(self):
        # a problem file's type rules, for callers that build the config
        # themselves: ``bool`` subclasses ``int``, but True is no count, and
        # None is refused where it is not the default
        for f in fields(self):
            value = getattr(self, f.name)
            number = f.name == "epsilon" and isinstance(value, float)
            integer = isinstance(value, int) and not isinstance(value, bool)
            if not (number or integer or value is f.default is None):
                kind = "a number" if f.name == "epsilon" else "an integer"
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        # the stream's own refusal of a seed outside [0, 2^64) names no
        # parameter
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2**64:
            raise ValueError(f"seed must be below 2^64, got {self.seed}")

    def effective_epsilon(self, n: int) -> float:
        return self.epsilon if self.epsilon is not None else 0.9 / n

    def effective_k_star(self, m: int) -> int:
        return self.k_star if self.k_star is not None else 2**m + 1


@dataclass
class SolveOutcome:
    """Result document of a solver run.

    ``solutions`` is the agreed solution set as assignment tuples (sorted);
    ``per_node_solutions`` carries each node's locally computed set when
    the mode produces one per node.  ``linear_solutions`` holds the linear
    consensus outputs that the search consumed.  ``verdict``/``stage`` are
    set by satisfiability verification.  ``undecided`` holds one short
    reason per condition that keeps the outcome from being an answer (the
    nodes' sets disagree, a node's subspace fails the dimension floor or
    the rank gap, a consensus run hit ``max_rounds``, a truncated node has
    no contraction rate or too large a threshold or search slack); it is
    empty exactly when the outcome is decided.
    """

    mode: str
    solutions: tuple[Assignment, ...]
    per_node_solutions: tuple[tuple[Assignment, ...], ...] | None = None
    verdict: str | None = None
    stage: str | None = None
    linear_solutions: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    undecided: tuple[str, ...] = ()


def distributed_lae(
    eqs: LiftedSystem | None,
    graph: Graph,
    config: RunConfig,
    initials: np.ndarray,
) -> tuple[np.ndarray, int, bool, list]:
    """Projection-consensus runs of the network linear equation from
    ``initials``: one run's (n, d) states, or a batch of k runs as
    (k, n, d) that step together.  With ``eqs`` None the runs are the
    plain network average.

    With ``config.T`` unset, ``run_to_convergence`` iterates each run
    until the per-round change of its states, or of its nodes'
    extrapolated limits, drops below ``CONSENSUS_TOL`` (or
    ``max_rounds``), each run to its own round; with ``T`` set, exactly T
    rounds of ``consensus`` run.  Returns (final states, shaped and
    C-contiguous like ``initials``, the rounds summed over the runs,
    whether every run converged, a list): without ``T`` the list holds
    each run's rounds, one entry for one run's (n, d) states; with ``T``
    it holds each node's sup change over the runs in rounds T - 1 and T,
    as (n,) arrays, taken between rounds' outputs only, as the pass lets
    the initials go, so T < 3 gives fewer.
    """
    w = build_weights(graph, config.effective_epsilon(graph.n))
    if config.T is None:
        states, rounds, converged = run_to_convergence(
            w, initials, eqs, CONSENSUS_TOL, config.max_rounds
        )
        return states, sum(rounds), all(converged), rounds
    runs = len(initials) if np.ndim(initials) == 3 else 1
    states = initials
    del initials  # the first round rebinds ``states``, and the initials go
    shifts, prev = [], None
    for t, states in enumerate(islice(consensus(w, states, eqs), config.T), start=1):
        if prev is not None:
            # the generator no longer reads the previous round's states, so
            # the shift overwrites them rather than take a fourth array
            np.abs(np.subtract(states, prev, out=prev), out=prev)
            shifts.append(prev.max(axis=(0, 2)) if prev.ndim == 3 else prev.max(axis=1))
        prev = states if t >= config.T - 2 else None
    return np.ascontiguousarray(states), runs * config.T, True, shifts


class SplitMix64:
    """The stream every consensus run's initials come from: SplitMix64
    (Steele, Lea and Flood, OOPSLA 2014) from ``seed``, and the count of
    words drawn so far.  Word i, counting from 1, mixes the state
    seed + i * 0x9E3779B97F4A7C15 (mod 2^64), computed for a whole draw
    as uint64 array operations, which wrap silently where numpy scalars
    would warn.  A double is the word's top 53 bits times 2^-53, uniform
    on [0, 1).  Draws are consecutive blocks of one stream, so however the
    runs are grouped, run j's (n, d) initials are the stream's j-th
    block."""

    def __init__(self, seed: int):
        self.seed = seed
        self.drawn = 0

    def words(self, count: int) -> np.ndarray:
        z = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        self.drawn += count
        z *= 0x9E3779B97F4A7C15
        z += np.uint64(self.seed)
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
        return z

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        z = self.words(math.prod(shape))
        z >>= 11
        x = z.astype(float)
        x *= 2.0**-53
        return x.reshape(shape)


def _start(
    system: BooleanSystem, graph: Graph, config: RunConfig, truncated: bool
) -> tuple[int, LiftedSystem, SplitMix64]:
    """Checks one graph node per equation, a horizon ``T`` >= 1 exactly when
    the mode truncates consensus (``max_rounds`` caps the other modes), and
    at least one consensus run; returns that run count k*, the lift and the
    seeded stream every consensus run's initials come from."""
    if truncated and config.T is None:
        raise ValueError("solve_approximate requires a finite T in the config")
    if not truncated and config.T is not None:
        raise ValueError("only solve_approximate takes T; max_rounds caps this mode")
    if truncated and config.T < 1:
        raise ValueError(f"T must be >= 1, got {config.T}")
    if graph.n != system.n:
        raise ValueError(f"graph has {graph.n} nodes but system has {system.n} equations")
    k = config.effective_k_star(system.m)
    if k < 1:
        raise ValueError(f"k_star must be >= 1, got {k}")
    return k, lift_system(system), SplitMix64(config.seed)


def _certified_runs(
    system: BooleanSystem, graph: Graph, config: RunConfig
) -> tuple[int, np.ndarray, list[int], bool, list[tuple[AffineSubspace, float | None]]]:
    """The exact modes' convergent ``distributed_lae`` runs, each to its
    own round, until every node's hull is certified complete, with k* as
    the cap.  A run's limits are an affine image of its uniform initials,
    so a new limit adds a direction to a hull unless the hull is complete.
    After run j >= max(3, 2^m - n + 2) (no consistent hull, whose
    dimension is at least 2^m - n - 1, certifies earlier), each node fits
    its j limits at ``RANK_TOL``, and a dimension of at most j - 3, two
    runs that added no direction, certifies it.  So the runs up to the
    first check step as one batch, and later runs one at a time.  The stop
    is the AND of the nodes' bits, which a flood would take at most the
    diameter in rounds to spread; the simulation reads the bits directly.
    Run j's initials are the stream's j-th (n, 2^m) block, a prefix of the
    k* runs one draw of (k*, n, 2^m) makes.  Returns (k*, the states as
    (runs, n, 2^m), per-run rounds, whether every run converged, the last
    check's fits)."""
    k, eqs, stream = _start(system, graph, config, False)
    n, d = graph.n, 2**system.m
    j = min(max(3, d - n + 2), k)
    linear, _, converged, rounds = distributed_lae(eqs, graph, config, stream.random((j, n, d)))
    while True:
        fits = [best_affine_fit(linear[:, i], RANK_TOL) for i in range(n)]
        if j == k or all(fit.dim <= j - 3 for fit, _ in fits):
            return k, linear, rounds, converged, fits
        x, r, c, _ = distributed_lae(eqs, graph, config, stream.random((n, d)))
        linear = np.concatenate((linear, x[None]))
        rounds.append(r)
        converged = converged and c
        j += 1


@lru_cache(maxsize=4096)
def _assignment(i: int, m: int) -> Assignment:
    """The assignment of unit-vector index ``i``, one shared tuple per
    (i, m), so equal answers of different nodes and solves are one object;
    the bound holds every index up to m = 12."""
    return tuple(itob(i, m))


def _search_outcome(
    mode: str,
    fits: Sequence[tuple[AffineSubspace, float | None]],
    tols: Sequence[float],
    m: int,
    linear: np.ndarray,
    diagnostics: dict,
    undecided: tuple[str, ...] = (),
) -> SolveOutcome:
    """Each node's solution set is exactly the unit vectors within its own
    entry of ``tols`` of its own subspace, as assignments; ``nodes_agree``
    says whether all nodes found the same set, and the outcome reports node
    1's.  ``fits`` holds each node's ``best_affine_fit``, its subspace and
    rank gap, and the gaps are reported as ``rank_gaps``.  After the linear
    stage's own
    ``undecided`` reasons, nodes that disagree leave the outcome
    undecided, and so does each node whose subspace has dimension below
    2^m - n - 1 (every lifted equation's two rows sum to the ones vector,
    so the stacked H has rank at most n + 1, and a consistent lift's
    solution set has at least that dimension) or whose rank gap is below
    ``GAP_MIN``."""
    subspaces, gaps = zip(*fits)
    diagnostics["rank_gaps"] = list(gaps)
    per_node = tuple(
        tuple(_assignment(i, m) for i in sorted(boolean_vector_search(sub, tol)))
        for sub, tol in zip(subspaces, tols)
    )
    agree = all(s == per_node[0] for s in per_node)
    diagnostics["nodes_agree"] = agree
    if not agree:
        undecided += ("nodes disagree (nodes_agree is false)",)
    floor = 2**m - len(subspaces) - 1
    undecided += tuple(
        f"node {i}'s subspace has dimension {sub.dim}, below the floor "
        f"2^m - n - 1 = {floor}"
        for i, sub in enumerate(subspaces, start=1)
        if sub.dim < floor
    )
    undecided += tuple(
        f"node {i}'s rank gap {gap:.3g} is below {GAP_MIN:g}"
        for i, gap in enumerate(gaps, start=1)
        if gap is not None and gap < GAP_MIN
    )
    return SolveOutcome(
        mode=mode,
        solutions=per_node[0],
        per_node_solutions=per_node,
        linear_solutions=linear,
        diagnostics=diagnostics,
        undecided=undecided,
    )


def solve_exact(
    system: BooleanSystem, graph: Graph, config: RunConfig | None = None
) -> SolveOutcome:
    """Full distributed solve assuming the system is satisfiable.

    Runs independent consensus solves of the lifted linear equation to
    convergence (``T`` is refused) from uniform random initial states,
    until every node's hull is certified complete or k* runs are drawn
    (``_certified_runs``); each node keeps the unit vectors within
    sqrt(RANK_TOL * 2/sqrt(d)), d = 2^m, of the affine hull of its own
    outputs (``best_affine_fit`` at rank threshold ``RANK_TOL``, the
    last certificate check's fit), with no check against
    the system: on a consistent lift solutions lie within RANK_TOL of
    every hull, and the lift puts every non-solution 2/sqrt(d) or more away.
    A run that hits ``max_rounds`` leaves the outcome undecided.
    """
    config = config or RunConfig()
    k, linear, rounds, converged, fits = _certified_runs(system, graph, config)
    return _search_outcome(
        "solve",
        fits,
        [math.sqrt(RANK_TOL * 2.0 / math.sqrt(2**system.m))] * graph.n,
        system.m,
        linear,
        {"k_star": k, "rounds": rounds, "converged": converged},
        () if converged else ("consensus hit max_rounds (converged is false)",),
    )


def estimate_contraction_rate(
    before: np.ndarray, last: np.ndarray
) -> list[float | None]:
    """Each node's contraction rate rho_i = a_i / b_i, from its sup shifts
    b_i and a_i in two consecutive rounds.  A node whose last shift is
    below ``CONSENSUS_TOL`` sits at the rounding floor, where its shifts
    are rounding noise, and counts as converged: rate 0.  Above that
    floor, a shift that did not shrink (b_i <= a_i) gives no rate: None.
    """
    return [
        0.0 if a < CONSENSUS_TOL else a / b if b > a else None
        for b, a in zip(before.tolist(), last.tolist())
    ]


def solve_approximate(
    system: BooleanSystem, graph: Graph, config: RunConfig
) -> SolveOutcome:
    """Distributed solve with the linear stage truncated to T rounds.

    The k* runs start from ``solve_exact``'s seeded initials and, since
    all stop at round T, step as one batched ``distributed_lae`` pass.
    Each node bounds its outputs' distance from their limits from its own
    last two rounds: with a_i and b_i its sup shifts in rounds T and
    T - 1 and rho_i = a_i / b_i (``estimate_contraction_rate``), Aitken's
    Delta^2 ratio estimates it as beta_i = a_i rho_i / (1 - rho_i).  A
    k* x d perturbation (d = 2^m) with entries at most beta_i has spectral
    norm at most sqrt(k* d) beta_i, so by Weyl's inequality no noise
    direction of the centred outputs rises above it: max(``RANK_TOL``,
    sqrt(k* d) beta_i) is the node's ``best_affine_fit`` rank threshold,
    reported as ``member_tols`` beside ``bounds``.  A solution's distance
    to the fitted subspace takes more: the centroid c_i lies within
    sqrt(d) beta_i of the limits' centroid, and by Wedin's sin theta
    theorem the fitted directions lie within an angle of sine
    sqrt(k* d) beta_i / sigma_i of the limits' hull, sigma_i the smallest
    kept singular value, over a unit vector's distance of at most
    1 + |c_i| + sqrt(d) beta_i from the limits' centroid.  So the search
    slack is tau_i = sqrt(d) beta_i + sqrt(k* d) beta_i (1 + |c_i| +
    sqrt(d) beta_i) / sigma_i, at least ``RANK_TOL``, reported as
    ``search_tols``.  A node without a rate (its shift did not shrink, or
    T < 3), or with a threshold or slack not below 1/sqrt(d), half the
    lift's 2/sqrt(d) gap to any non-solution, leaves the outcome
    undecided, and fits or searches at 1/sqrt(d); so do a rank gap below
    ``GAP_MIN`` and disagreeing nodes.
    """
    k, eqs, stream = _start(system, graph, config, True)
    d = 2**system.m
    linear, _, _, shifts = distributed_lae(eqs, graph, config, stream.random((k, graph.n, d)))
    rates = estimate_contraction_rate(*shifts) if len(shifts) == 2 else [None] * graph.n
    cap = 1 / math.sqrt(d)
    bounds, tols, undecided = [], [], ()
    for i, rate in enumerate(rates, start=1):
        bound = None if rate is None else float(shifts[1][i - 1]) * rate / (1 - rate)
        tol = cap if bound is None else max(RANK_TOL, math.sqrt(k * d) * bound)
        if bound is None:
            undecided += (f"node {i}'s shifts give no contraction rate at T = {config.T}",)
        elif tol >= cap:
            undecided += (f"node {i}'s threshold {tol:.3g} is not below 1/sqrt(2^m) = {cap:.3g}",)
        bounds.append(bound)
        tols.append(min(tol, cap))
    fits = [best_affine_fit(linear[:, i], tol) for i, tol in enumerate(tols)]
    slacks = []
    for i, ((sub, _), bound) in enumerate(zip(fits, bounds), start=1):
        if bound is None:
            slacks.append(cap)
            continue
        slack = math.sqrt(d) * bound
        if sub.dim:
            sigma = float(np.linalg.norm((linear[:, i - 1] - sub.offset) @ sub.basis[-1]))
            reach = 1 + float(np.linalg.norm(sub.offset)) + slack
            slack += math.sqrt(k * d) * bound * reach / sigma
        if slack >= cap:
            undecided += (f"node {i}'s search slack {slack:.3g} is not below 1/sqrt(2^m) = {cap:.3g}",)
        slacks.append(min(max(RANK_TOL, slack), cap))
    return _search_outcome(
        "solve-approx",
        fits,
        slacks,
        system.m,
        linear,
        {
            "k_star": k,
            "T": config.T,
            "rounds": [config.T] * k,
            "bounds": bounds,
            "member_tols": tols,
            "search_tols": slacks,
            "fitted_dims": [fit.dim for fit, _ in fits],
        },
        undecided,
    )


def verify_satisfiability(
    system: BooleanSystem, graph: Graph, config: RunConfig | None = None
) -> SolveOutcome:
    """Distributed satisfiability decision.

    Stage one runs projection consensus from random initials to per-node
    limits and averages those limits over the network; a node whose limit
    differs from the average beyond ``DISAGREEMENT_TOL`` exposes an
    inconsistent lifted linear system, so the verdict is unsatisfiable.
    When all limits agree, stage two runs the full solve pipeline and
    returns unsatisfiable exactly when the search finds no solutions.
    Like ``solve_exact``, it refuses ``T`` and k* < 1, before stage one.
    Stage one leaves the outcome undecided when either of its consensus
    runs hits ``max_rounds`` or the node flags are split; stage two's
    reasons follow its own.  Stage one's initials are the stream's first
    block, and stage two's seed is the stream's next word, halved.
    """
    config = config or RunConfig()
    _, eqs, stream = _start(system, graph, config, False)

    # stage one: per-node projection-consensus limits, then the network's
    # own average of them
    initials = stream.random((graph.n, 2**system.m))
    limits, limit_rounds, limits_converged, _ = distributed_lae(eqs, graph, config, initials)
    averaged, avg_rounds, avg_converged, _ = distributed_lae(None, graph, config, limits)
    node_gaps = np.abs(averaged - limits).max(axis=1)
    node_flags = node_gaps > DISAGREEMENT_TOL
    diagnostics = {
        "limit_rounds": limit_rounds,
        "limits_converged": limits_converged,
        "average_rounds": avg_rounds,
        "average_converged": avg_converged,
        "node_gaps": node_gaps.tolist(),
        "node_disagreement_flags": node_flags.tolist(),
        "nodes_agree": bool(node_flags.all() or (~node_flags).all()),
    }
    undecided = tuple(
        reason
        for held, reason in (
            (limits_converged, "limit consensus hit max_rounds (limits_converged is false)"),
            (avg_converged, "network average hit max_rounds (average_converged is false)"),
            (diagnostics["nodes_agree"], "node flags are split (nodes_agree is false)"),
        )
        if not held
    )
    if node_flags.any():
        return SolveOutcome(
            mode="sat",
            solutions=(),
            verdict="unsatisfiable",
            stage="consensus-disagreement",
            diagnostics=diagnostics,
            undecided=undecided,
        )

    # stage two: consistent linear system; decide by solving
    stage_config = replace(config, seed=int(stream.words(1)[0]) >> 1)
    solved = solve_exact(system, graph, stage_config)
    diagnostics.update(solved.diagnostics)
    return replace(
        solved,
        mode="sat",
        verdict="satisfiable" if solved.solutions else "unsatisfiable",
        stage="solved" if solved.solutions else "empty-solution-set",
        diagnostics=diagnostics,
        undecided=undecided + solved.undecided,
    )


def oracle_solve(system: BooleanSystem) -> set[Assignment]:
    """Exhaustive reference solver, the AND of the n equations' truth tables;
    refuses variable counts above ``ORACLE_CAP``."""
    if system.m > ORACLE_CAP:
        raise ValueError(f"m={system.m} exceeds the enumeration cap {ORACLE_CAP}")
    solved = np.ones(2**system.m, dtype=bool)
    for f, rhs in system.equations:
        solved &= truth_table(f, system.m) == rhs
    return {tuple(itob(i + 1, system.m)) for i in np.flatnonzero(solved).tolist()}
