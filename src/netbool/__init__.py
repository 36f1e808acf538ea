"""Distributed solving of Boolean equation systems over simulated networks.

Each node of a connected graph privately holds one Boolean equation.  The
equation is lifted to a linear equation on unit-vector coordinates, the
network solves the stacked linear system by projection consensus, and
every node recovers the exact Boolean solution set by searching the
affine hull of the consensus outputs for unit vectors.  Satisfiability
can be verified distributedly the same way.
"""

from .formula import (
    And,
    BooleanFormula,
    BooleanSystem,
    Const,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    evaluate,
    format_formula,
    parse_formula,
    truth_table,
)
from .linalg import (
    AffineSubspace,
    LocalLinearEquation,
    affine_from_points,
    best_affine_fit,
    dist_to_affine,
)
from .matricization import (
    boolean_matricization,
    btoi,
    itob,
    unit_vector,
)
from .network import Graph, build_weights, consensus, run_to_convergence
from .problem import ProblemError, ProblemFile, load_problem
from .search import boolean_vector_search
from .solver import (
    RunConfig,
    SolveOutcome,
    distributed_lae,
    lift_system,
    oracle_solve,
    solve_approximate,
    solve_exact,
    verify_satisfiability,
)

__version__ = "0.1.0"
