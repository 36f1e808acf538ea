"""Top-level solvers: lift a Boolean system to per-node linear equations,
solve those by projection consensus over the network, and recover Boolean
solutions by searching the affine hull of the consensus outputs.

Four entry points:

* ``solve_exact``       - run consensus to numerical convergence, search
  the hull of the resulting solutions (requires a satisfiable system);
* ``solve_approximate`` - consensus truncated to T rounds per run, all
  runs stepped as one batch; each node fits a minimal-dimension affine
  subspace to its own approximate solutions under an exponential error
  budget, from one thin SVD, then searches that;
* ``verify_satisfiability`` - decide satisfiability with no prior
  knowledge: disagreeing consensus limits expose an inconsistent lifted
  system, an empty search result exposes Boolean unsatisfiability;
* ``oracle_solve``      - centralized exhaustive enumeration (reference).

Both solve modes share one pipeline, ``_linear_stage`` then
``_search_outcome``: a node's answer is the unit vectors of its own
subspace, and only ``oracle_solve`` evaluates the whole system.

All randomness flows from the seed in ``RunConfig``; identical
configurations produce identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .formula import BooleanSystem
from .linalg import (
    AffineSubspace,
    LocalLinearEquation,
    affine_from_points,
    best_affine_fit,
    dist_to_affine,  # noqa: F401  unused; perfbench/tracing.py wraps this name
)
from .matricization import boolean_matricization, itob, unit_vector
from .network import Graph, build_weights, consensus, run_to_convergence
from .search import boolean_vector_search

__all__ = [
    "RunConfig",
    "SolveOutcome",
    "lift_system",
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


@dataclass
class RunConfig:
    """Tunable parameters of a solver run.

    ``epsilon`` defaults to 0.9/n (always inside the admissible range),
    ``k_star`` to 2^m + 1 randomized consensus runs, or 2^m - chi0_prior + 1
    when the image cardinality of the system is supplied as prior
    knowledge.  ``T``, the truncated mode's rounds per run, is refused by
    the other modes; that mode's residual-bound constants c* and gamma*
    are not fields, ``solve_approximate`` computes them.  The consensus
    stop and the disagreement threshold are the module constants
    ``CONSENSUS_TOL`` and ``DISAGREEMENT_TOL``.
    """

    epsilon: float | None = None
    k_star: int | None = None
    chi0_prior: int | None = None
    T: int | None = None
    tol: float = 1e-6
    seed: int = 0
    max_rounds: int = 5000

    def effective_epsilon(self, n: int) -> float:
        return self.epsilon if self.epsilon is not None else 0.9 / n

    def effective_k_star(self, m: int) -> int:
        if self.k_star is not None:
            return self.k_star
        if self.chi0_prior is not None:
            return 2**m - self.chi0_prior + 1
        return 2**m + 1


@dataclass
class SolveOutcome:
    """Result document of a solver run.

    ``solutions`` is the agreed solution set as assignment tuples (sorted);
    ``per_node_solutions`` carries each node's locally computed set when
    the mode produces one per node.  ``linear_solutions`` holds the linear
    consensus outputs that the search consumed.  ``verdict``/``stage`` are
    set by satisfiability verification.
    """

    mode: str
    solutions: tuple[Assignment, ...]
    per_node_solutions: tuple[tuple[Assignment, ...], ...] | None = None
    verdict: str | None = None
    stage: str | None = None
    linear_solutions: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def lift_system(system: BooleanSystem) -> list[LocalLinearEquation]:
    """Per-node linear equations H_i y = z_i: H_i the unit-column matrix of
    f_i, z_i the unit vector of the required output bit."""
    eqs = []
    for f, rhs in system.equations:
        h = boolean_matricization(f, system.m)
        z = unit_vector(rhs + 1, 2)
        eqs.append(LocalLinearEquation(h, z))
    return eqs


def distributed_lae(
    eqs: Sequence[LocalLinearEquation],
    graph: Graph,
    config: RunConfig,
    initials: np.ndarray,
) -> tuple[np.ndarray, int, bool]:
    """Projection-consensus runs of the network linear equation from
    ``initials``: one run's (n, d) states, or with ``T`` set a batch of k
    runs as (k, n, d) that step together.

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
    states = initials
    for states in islice(consensus(w, initials, eqs), config.T):
        pass
    runs = len(initials) if np.ndim(initials) == 3 else 1
    return np.ascontiguousarray(states), runs * config.T, True


def _check_inputs(
    system: BooleanSystem, graph: Graph, config: RunConfig, truncated: bool
) -> int:
    """One graph node per equation, a horizon ``T`` exactly when the mode
    truncates consensus (``max_rounds`` caps the other modes), and at least
    one consensus run; returns that run count k*."""
    if truncated and config.T is None:
        raise ValueError("solve_approximate requires a finite T in the config")
    if not truncated and config.T is not None:
        raise ValueError("only solve_approximate takes T; max_rounds caps this mode")
    if graph.n != system.n:
        raise ValueError(f"graph has {graph.n} nodes but system has {system.n} equations")
    k = config.effective_k_star(system.m)
    if k < 1:
        raise ValueError(f"k_star must be >= 1, got {k}")
    return k


def _linear_stage(
    system: BooleanSystem, graph: Graph, config: RunConfig, truncated: bool
) -> tuple[list[LocalLinearEquation], int, np.ndarray, list[int], bool]:
    """The lift and the k* seeded ``distributed_lae`` runs both solve modes
    start from: the truncated mode's fixed-horizon runs as one batched
    pass, the exact mode's convergent runs one by one, each stopping at
    its own round.  Returns (equations, k*, the runs' states as
    (k*, n, 2^m), per-run rounds, whether every run converged)."""
    k = _check_inputs(system, graph, config, truncated)
    eqs = lift_system(system)
    initials = np.random.default_rng(config.seed).random((k, graph.n, 2**system.m))
    if truncated:
        states, _, _ = distributed_lae(eqs, graph, config, initials)
        return eqs, k, states, [config.T] * k, True
    states, rounds, converged = zip(
        *(distributed_lae(eqs, graph, config, x) for x in initials)
    )
    return eqs, k, np.stack(states), list(rounds), all(converged)


@lru_cache(maxsize=4096)
def _assignment(i: int, m: int) -> Assignment:
    """The assignment of unit-vector index ``i``, one shared tuple per
    (i, m), so equal answers of different nodes and solves are one object;
    the bound holds every index up to m = 12."""
    return tuple(itob(i, m))


def _search_outcome(
    mode: str,
    subspaces: Sequence[AffineSubspace],
    tol: float,
    m: int,
    linear: np.ndarray,
    diagnostics: dict,
) -> SolveOutcome:
    """Each node's solution set is exactly the unit vectors within ``tol``
    of its own subspace, as assignments; ``nodes_agree`` says whether all
    nodes found the same set, and the outcome reports node 1's."""
    per_node = tuple(
        tuple(_assignment(i, m) for i in sorted(boolean_vector_search(sub, tol)))
        for sub in subspaces
    )
    diagnostics["nodes_agree"] = all(s == per_node[0] for s in per_node)
    return SolveOutcome(
        mode=mode,
        solutions=per_node[0],
        per_node_solutions=per_node,
        linear_solutions=linear,
        diagnostics=diagnostics,
    )


def solve_exact(
    system: BooleanSystem, graph: Graph, config: RunConfig | None = None
) -> SolveOutcome:
    """Full distributed solve assuming the system is satisfiable.

    Runs k* independent consensus solves of the lifted linear equation
    to convergence (``T`` is refused) from uniform random initial states;
    each node searches the affine hull of its own outputs for unit vectors
    and maps them back to assignments, with no check against the system.
    """
    config = config or RunConfig()
    _, k, linear, rounds, converged = _linear_stage(system, graph, config, False)
    hulls = [affine_from_points(linear[:, i], config.tol) for i in range(graph.n)]
    return _search_outcome(
        "solve",
        hulls,
        config.tol,
        system.m,
        linear,
        {"k_star": k, "rounds": rounds, "converged": converged},
    )


def estimate_contraction_rate(
    eqs: Sequence[LocalLinearEquation], graph: Graph, config: RunConfig
) -> float:
    """Per-round exponential decay rate of the projection-consensus state
    change, fitted on an observed 400-round run from seeded random initials.

    The fitted slope is shrunk by 20% so the returned rate errs toward a
    conservative (smaller) value, as the truncated-mode error budget
    requires a lower bound on the true rate.
    """
    rng = np.random.default_rng(config.seed + 0x5EED)
    w = build_weights(graph, config.effective_epsilon(graph.n))
    prev = rng.random((graph.n, eqs[0].dim))
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

    Each node keeps its own T-round outputs, which carry a residual bounded
    by c* exp(-gamma* T), with c* = 2^(m/2) n and gamma* the rate
    ``estimate_contraction_rate`` calibrates; both are reported in the
    diagnostics.  The node fits the lowest-dimensional affine subspace
    whose summed distance to its outputs stays within the budget
    eps_T = c* exp(-gamma* T) * k and hands that fit itself to the
    unit-vector search, with the per-run residual scale as the membership
    distance.  Each node reports the unit vectors of its own fit as they
    stand: for small T a fit can hold non-solutions or miss solutions, and
    the nodes' sets may disagree, which ``nodes_agree`` exposes.  The k*
    runs start from the same seeded initials as ``solve_exact``'s; since
    all of them stop after T rounds, they step together as one batched
    ``distributed_lae`` pass of T rounds.

    Each node's fit is one ``best_affine_fit`` call, one thin SVD: the
    best fits are nested principal subspaces, so every dimension's summed
    distance comes from the tails of the centred points' principal
    coordinates, and the fit is the first dimension b within budget.  The
    diagnostics' ``fit_margins`` give, per node, that total over the
    budget at b and at b - 1 (None when b = 0).
    """
    eqs, k, linear, rounds, _ = _linear_stage(system, graph, config, True)
    c_star = 2.0 ** (system.m / 2) * graph.n
    gamma_star = estimate_contraction_rate(eqs, graph, config)
    # distance budget of the dimension fit; floored at tol so that very
    # large T degenerates to the exact-mode behavior instead of to an
    # unattainable zero budget
    budget = max(c_star * math.exp(-gamma_star * config.T) * k, config.tol)
    # membership slack for unit vectors against the fitted subspace: the
    # per-run residual scale, floored at the configured tolerance and kept
    # below the scale at which unit vectors stop being distinguishable
    member_tol = min(max(config.tol, budget / k), 0.25)

    fits: list[AffineSubspace] = []
    fit_margins: list[list[float | None]] = []
    for i in range(graph.n):
        fit, totals = best_affine_fit(linear[:, i], budget=budget)
        b = fit.dim
        fits.append(fit)
        fit_margins.append(
            [totals[b] / budget, totals[b - 1] / budget if b > 0 else None]
        )
    return _search_outcome(
        "solve-approx",
        fits,
        member_tol,
        system.m,
        linear,
        {
            "k_star": k,
            "T": config.T,
            "rounds": rounds,
            "c_star": c_star,
            "gamma_star": gamma_star,
            "budget": budget,
            "member_tol": member_tol,
            "fitted_dims": [fit.dim for fit in fits],
            "fit_margins": fit_margins,
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
    """
    config = config or RunConfig()
    _check_inputs(system, graph, config, False)
    eqs = lift_system(system)
    d = 2**system.m
    rng = np.random.default_rng(config.seed)
    w = build_weights(graph, config.effective_epsilon(graph.n))

    # stage one: per-node projection-consensus limits
    initials = rng.random((graph.n, d))
    limits, limit_rounds, limits_converged = run_to_convergence(
        w, initials, eqs, CONSENSUS_TOL, config.max_rounds
    )
    # average the limits over the network itself
    averaged, avg_rounds, avg_converged = run_to_convergence(
        w, limits, None, CONSENSUS_TOL, config.max_rounds
    )
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
    if node_flags.any():
        return SolveOutcome(
            mode="sat",
            solutions=(),
            verdict="unsatisfiable",
            stage="consensus-disagreement",
            diagnostics=diagnostics,
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
    )


def oracle_solve(system: BooleanSystem, cap: int = 20) -> set[Assignment]:
    """Exhaustive reference solver; refuses variable counts above ``cap``."""
    if system.m > cap:
        raise ValueError(f"m={system.m} exceeds the enumeration cap {cap}")
    return {
        x
        for i in range(1, 2**system.m + 1)
        if system.satisfies(x := tuple(itob(i, system.m)))
    }
