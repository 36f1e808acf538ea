"""Top-level solvers: lift a Boolean system to per-node linear equations
(``matricization.lift_system``), solve those by projection consensus over
the network, and recover Boolean solutions by searching the affine hull of
the consensus outputs.

Four entry points:

* ``solve_exact``       - run consensus to numerical convergence, one run
  after another until every node's hull is certified complete, search
  the hull of the resulting solutions (requires a satisfiable system);
* ``solve_approximate`` - consensus truncated to T rounds per run, all
  runs stepped as one batch; each node takes the same affine subspace of
  its outputs, at a threshold raised to the per-run bound on their
  distance from the limits, then searches that;
* ``verify_satisfiability`` - decide satisfiability with no prior
  knowledge: disagreeing consensus limits expose an inconsistent lifted
  system, an empty search result exposes Boolean unsatisfiability;
* ``oracle_solve``      - centralized exhaustive reference: the AND of
  the n equations' truth tables, each one vectorised ``evaluate``.

Both solve modes take each node's subspace through ``best_affine_fit``,
then answer through ``_search_outcome``: a node's answer is the unit
vectors of its own subspace, and only ``oracle_solve`` evaluates the
whole system.  The modes differ in their runs (``_certified_runs`` for
the exact modes, ``_linear_stage`` for the truncated one) and in the
rank threshold that follows from their stop rule.

All randomness flows from the seed in ``RunConfig``; identical
configurations produce identical outputs.
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
    "distributed_lae",
    "solve_exact",
    "solve_approximate",
    "verify_satisfiability",
    "oracle_solve",
    "estimate_contraction_rate",
]

Assignment = tuple[int, ...]

# per-round sup-norm state change below which a convergent consensus run
# stops (``max_rounds`` caps it otherwise)
CONSENSUS_TOL = 1e-10
# gap between a node's consensus limit and the network average above which
# satisfiability verification calls the lifted system inconsistent
DISAGREEMENT_TOL = 1e-6
# exact hulls' rank threshold; also floors the truncated mode's threshold
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
    ``max_rounds`` caps the convergent runs of those modes only; the
    truncated mode's residual-bound constants c* and gamma* are not
    fields, ``solve_approximate`` computes them.  The other thresholds are
    module constants or, for the search, come from the lift.
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
        # numpy's own refusal of a negative seed names no parameter
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
    the rank gap, a consensus run hit ``max_rounds``); it is empty exactly
    when the outcome is decided.
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
) -> tuple[np.ndarray, int, bool]:
    """Projection-consensus runs of the network linear equation from
    ``initials``: one run's (n, d) states, or with ``T`` set a batch of k
    runs as (k, n, d) that step together.  With ``eqs`` None the runs are
    the plain network average.

    With ``config.T`` unset, ``run_to_convergence`` iterates one run until
    the per-round state change drops below ``CONSENSUS_TOL`` (or
    ``max_rounds``); with ``T`` set, exactly T rounds of ``consensus`` run.
    Returns (final states, shaped and C-contiguous like ``initials``, the
    rounds summed over the runs, converged).
    """
    w = build_weights(graph, config.effective_epsilon(graph.n))
    if config.T is None:
        return run_to_convergence(
            w, initials, eqs, CONSENSUS_TOL, config.max_rounds
        )
    runs = len(initials) if np.ndim(initials) == 3 else 1
    states = initials
    del initials  # the first round rebinds ``states``, and the initials go
    for states in islice(consensus(w, states, eqs), config.T):
        pass
    return np.ascontiguousarray(states), runs * config.T, True


def _start(
    system: BooleanSystem, graph: Graph, config: RunConfig, truncated: bool
) -> tuple[int, LiftedSystem, np.random.Generator]:
    """Checks one graph node per equation, a horizon ``T`` >= 1 exactly when
    the mode truncates consensus (``max_rounds`` caps the other modes), and
    at least one consensus run; returns that run count k*, the lift and the
    seeded generator every consensus run's initials come from."""
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
    return k, lift_system(system), np.random.default_rng(config.seed)


def _linear_stage(
    system: BooleanSystem, graph: Graph, config: RunConfig
) -> tuple[LiftedSystem, int, np.ndarray]:
    """The lift and the truncated mode's k* seeded fixed-horizon
    ``distributed_lae`` runs, which all stop at round T and so step as one
    batched pass.  Returns (the lift, k*, the runs' states as
    (k*, n, 2^m))."""
    k, eqs, rng = _start(system, graph, config, True)
    states, _, _ = distributed_lae(eqs, graph, config, rng.random((k, graph.n, 2**system.m)))
    return eqs, k, states


def _certified_runs(
    system: BooleanSystem, graph: Graph, config: RunConfig
) -> tuple[int, np.ndarray, list[int], bool, list[tuple[AffineSubspace, float | None]]]:
    """The exact modes' convergent ``distributed_lae`` runs, one by one,
    each to its own round, until every node's hull is certified complete,
    with k* as the cap.  A run's limits are an affine image of its uniform
    initials, so a new limit adds a direction to a hull unless the hull is
    complete.  After run j >= max(3, 2^m - n + 2) (no consistent hull,
    whose dimension is at least 2^m - n - 1, certifies earlier), each node
    fits its j limits at ``RANK_TOL``, and a dimension of at most j - 3,
    two runs that added no direction, certifies it.  The stop is the AND
    of the nodes' bits, which a flood would take at most the diameter in
    rounds to spread; the simulation reads the bits directly.  Run j's
    initials are the generator's j-th (n, 2^m) draw, a prefix of the k*
    runs one draw of (k*, n, 2^m) makes.  Returns (k*, the states as
    (runs, n, 2^m), per-run rounds, whether every run converged, the last
    check's fits)."""
    k, eqs, rng = _start(system, graph, config, False)
    n, d = graph.n, 2**system.m
    first_check = min(max(3, d - n + 2), k)
    states, rounds, converged = [], [], True
    for j in range(1, k + 1):
        x, r, c = distributed_lae(eqs, graph, config, rng.random((n, d)))
        states.append(x)
        rounds.append(r)
        converged = converged and c
        if j < first_check:
            continue
        linear = np.stack(states)
        fits = [best_affine_fit(linear[:, i], RANK_TOL) for i in range(n)]
        if all(fit.dim <= j - 3 for fit, _ in fits):
            break
    return k, linear, rounds, converged, fits


@lru_cache(maxsize=4096)
def _assignment(i: int, m: int) -> Assignment:
    """The assignment of unit-vector index ``i``, one shared tuple per
    (i, m), so equal answers of different nodes and solves are one object;
    the bound holds every index up to m = 12."""
    return tuple(itob(i, m))


def _search_outcome(
    mode: str,
    fits: Sequence[tuple[AffineSubspace, float | None]],
    tol: float,
    m: int,
    linear: np.ndarray,
    diagnostics: dict,
    undecided: tuple[str, ...] = (),
) -> SolveOutcome:
    """Each node's solution set is exactly the unit vectors within ``tol``
    of its own subspace, as assignments; ``nodes_agree`` says whether all
    nodes found the same set, and the outcome reports node 1's.  ``fits``
    holds each node's ``best_affine_fit``, its subspace and rank gap, and
    the gaps are reported as ``rank_gaps``.  After the linear stage's own
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
        for sub in subspaces
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
        math.sqrt(RANK_TOL * 2.0 / math.sqrt(2**system.m)),
        system.m,
        linear,
        {"k_star": k, "rounds": rounds, "converged": converged},
        () if converged else ("consensus hit max_rounds (converged is false)",),
    )


def estimate_contraction_rate(
    eqs: LiftedSystem, graph: Graph, config: RunConfig
) -> float:
    """Per-round exponential decay rate of the projection-consensus state
    change, fitted on an observed 400-round run from seeded random initials.

    The fitted slope is shrunk by 20% so the returned rate errs toward a
    conservative (smaller) value, as the truncated mode's rank threshold
    requires a lower bound on the true rate.
    """
    rng = np.random.default_rng(config.seed + 0x5EED)
    w = build_weights(graph, config.effective_epsilon(graph.n))
    prev = rng.random((graph.n, eqs.h.shape[2]))
    shifts: list[float] = []
    for states in islice(consensus(w, prev, eqs), 400):
        shifts.append(float(np.abs(states - prev).max()))
        prev = states
    # fit log-shift only over the cleanly decaying window
    usable = [
        (t, math.log(s)) for t, s in enumerate(shifts) if 1e-13 < s < 1e-2
    ]
    if len(usable) < 10:
        return 0.05  # no measurable decay window; fall back to a slow rate
    ts = np.array([t for t, _ in usable])
    logs = np.array([v for _, v in usable])
    slope = float(np.polyfit(ts, logs, 1)[0])
    return max(0.8 * -slope, 1e-3)


def solve_approximate(
    system: BooleanSystem, graph: Graph, config: RunConfig
) -> SolveOutcome:
    """Distributed solve with the linear stage truncated to T rounds.

    Each node keeps its own T-round outputs, which lie within
    c* exp(-gamma* T) of the limits that ``solve_exact`` would reach, with
    c* = 2^(m/2) n and gamma* the rate ``estimate_contraction_rate``
    calibrates; both are reported in the diagnostics.  That per-run bound,
    floored at ``RANK_TOL`` and capped at 0.25, below which unit vectors
    stay distinguishable, is ``member_tol``: each node takes the
    ``best_affine_fit`` of its outputs at that rank threshold, the exact
    modes' subspace rule, and keeps the unit vectors within ``member_tol``
    of it.  A fit whose rank gap is below ``GAP_MIN`` leaves the outcome
    undecided, as do disagreeing nodes.  The k* runs start from the same
    seeded initials as ``solve_exact``'s, all k* of them; since all stop
    after T rounds, they step together as one batched ``distributed_lae``
    pass of T rounds.
    """
    eqs, k, linear = _linear_stage(system, graph, config)
    c_star = 2.0 ** (system.m / 2) * graph.n
    gamma_star = estimate_contraction_rate(eqs, graph, config)
    member_tol = min(max(RANK_TOL, c_star * math.exp(-gamma_star * config.T)), 0.25)
    fits = [best_affine_fit(linear[:, i], member_tol) for i in range(graph.n)]
    return _search_outcome(
        "solve-approx",
        fits,
        member_tol,
        system.m,
        linear,
        {
            "k_star": k,
            "T": config.T,
            "rounds": [config.T] * k,
            "c_star": c_star,
            "gamma_star": gamma_star,
            "member_tol": member_tol,
            "fitted_dims": [fit.dim for fit, _ in fits],
        },
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
    reasons follow its own.
    """
    config = config or RunConfig()
    _, eqs, rng = _start(system, graph, config, False)

    # stage one: per-node projection-consensus limits, then the network's
    # own average of them
    initials = rng.random((graph.n, 2**system.m))
    limits, limit_rounds, limits_converged = distributed_lae(eqs, graph, config, initials)
    averaged, avg_rounds, avg_converged = distributed_lae(None, graph, config, limits)
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
    stage_config = replace(config, seed=int(rng.integers(2**63)))
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
