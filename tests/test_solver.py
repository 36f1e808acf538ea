import importlib
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    EX2_MATRICES,
    central_projected_average,
    chi0,
    node_equations,
    oracle_bruteforce,
    path_graph,
    project_affine,
    random_connected_graph,
    random_formula,
    random_satisfiable_system,
    rank_and_echelon,
    scan_rank,
    stack_equations,
    stacked_rank_consistent,
    unit_vector,
)
from netbool.formula import BooleanSystem, Const, parse_formula
from netbool.linalg import best_affine_fit, dist_to_affine
from netbool.matricization import itob, lift_system
from netbool import solver
from netbool.network import Graph
from netbool.solver import (
    RunConfig,
    distributed_lae,
    estimate_contraction_rate,
    oracle_solve,
    solve_approximate,
    solve_exact,
    verify_satisfiability,
)


class TestLiftSystem:
    def test_right_hand_sides(self, ex1):
        eqs = lift_system(ex1)
        assert np.array_equal(eqs.z[:, :, 0], [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])

    def test_coefficient_matrices(self, ex2):
        eqs = lift_system(ex2)
        assert np.array_equal(eqs.h, np.array(EX2_MATRICES, dtype=float))

    def test_constant_formula_rank_one(self):
        system = BooleanSystem(2, ((Const(1), 1),))
        eqs = lift_system(system)
        rank, _, _ = rank_and_echelon(eqs.h[0])
        assert rank == 1

    def test_solutions_lie_in_every_solution_set(self, ex1):
        from netbool.matricization import btoi

        eqs = lift_system(ex1)
        for x in oracle_solve(ex1):
            e = unit_vector(btoi(x), 8)[:, None]
            assert np.abs(eqs.h @ e - eqs.z).max() < 1e-12


class TestDistributedLAE:
    def test_single_node_returns_projection(self):
        system = BooleanSystem.from_texts(2, [("x1 | x2", 1)])
        eqs = lift_system(system)
        g = Graph(1, frozenset())
        initials = np.array([[0.3, 0.8, 0.1, 0.9]])
        states, rounds, converged = distributed_lae(eqs, g, RunConfig(), initials)
        assert converged and rounds <= 2
        assert np.allclose(states[0], project_affine(node_equations(eqs)[0], initials[0]))

    def test_outputs_solve_every_local_equation(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(2)
        states, _, converged = distributed_lae(
            eqs, path3, RunConfig(), rng.random((3, 8))
        )
        assert converged
        for node_state in states:
            assert np.abs(eqs.h @ node_state[:, None] - eqs.z).max() < 1e-8

    def test_matches_central_average(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(3)
        initials = rng.random((3, 8))
        states, _, _ = distributed_lae(eqs, path3, RunConfig(), initials)
        expected = central_projected_average(eqs, initials)
        assert np.abs(states - expected).max() < 1e-8

    def test_feasible_initials_are_fixed(self, ex1, path3):
        eqs = lift_system(ex1)
        e = np.zeros(8)
        e[0] = 1.0  # a common feasible point
        states, rounds, converged = distributed_lae(
            eqs, path3, RunConfig(), np.tile(e, (3, 1))
        )
        assert converged and rounds == 1
        assert np.allclose(states, np.tile(e, (3, 1)), atol=1e-12)

    def test_finite_horizon_runs_requested_rounds(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(4)
        initials = rng.random((3, 8))
        states_short, rounds, _ = distributed_lae(
            eqs, path3, RunConfig(T=7), initials
        )
        assert rounds == 7
        # must equal seven explicit engine rounds
        from netbool.network import build_weights, consensus

        rounds = consensus(build_weights(path3, 0.3), initials, eqs)
        for _ in range(7):
            states = next(rounds)
        assert np.array_equal(states_short, states)

    def test_finite_horizon_steps_a_batch(self, ex1, path3):
        eqs = lift_system(ex1)
        initials = np.random.default_rng(5).random((4, 3, 8))
        config = RunConfig(T=30)
        states, rounds, converged = distributed_lae(eqs, path3, config, initials)
        assert converged and type(rounds) is int and rounds == 4 * 30
        assert states.shape == (4, 3, 8) and states.flags.c_contiguous
        for run, start in zip(states, initials):
            single, _, _ = distributed_lae(eqs, path3, config, start)
            assert np.abs(run - single).max() < 1e-12

    def test_truncated_pass_lets_the_initials_go(self):
        # a T-round pass holds the previous round's states, the new ones and
        # the projection correction; keeping the initials would make a fourth
        system = random_satisfiable_system(np.random.default_rng(0), 6, 3)
        config = RunConfig(seed=1, T=5)
        solver._linear_stage(system, path_graph(3), config)  # warm caches
        tracemalloc.start()
        try:
            _, _, states = solver._linear_stage(system, path_graph(3), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * states.nbytes

    def test_convergent_runs_refuse_a_batch(self, ex1, path3):
        initials = np.random.default_rng(6).random((4, 3, 8))
        with pytest.raises(ValueError, match="one run's"):
            distributed_lae(lift_system(ex1), path3, RunConfig(), initials)


class TestSolveExact:
    def test_first_worked_example(self, ex1, path3):
        outcome = solve_exact(ex1, path3, RunConfig(seed=7))
        assert set(outcome.solutions) == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)}
        assert outcome.diagnostics["k_star"] == 9
        assert outcome.diagnostics["nodes_agree"]

    def test_second_worked_example_with_prior(self, ex2, path3):
        config = RunConfig(seed=3, k_star=2**3 - chi0(ex2) + 1)
        outcome = solve_exact(ex2, path3, config)
        assert outcome.diagnostics["k_star"] == 5
        assert set(outcome.solutions) == {(1, 0, 0)}

    def test_tautology_full_cube(self):
        system = BooleanSystem.from_texts(1, [("x1 | !x1", 1)])
        g = Graph(1, frozenset())
        outcome = solve_exact(system, g, RunConfig(seed=1))
        assert set(outcome.solutions) == {(0,), (1,)}

    def test_soundness(self, ex1, path3):
        outcome = solve_exact(ex1, path3, RunConfig(seed=5))
        for x in outcome.solutions:
            assert ex1.satisfies(x)
        for node_set in outcome.per_node_solutions:
            for x in node_set:
                assert ex1.satisfies(x)

    def test_nodes_share_assignment_tuples(self, ex1, path3):
        first, second, _ = solve_exact(ex1, path3, RunConfig(seed=7)).per_node_solutions
        assert first and first == second
        assert all(a is b for a, b in zip(first, second))

    def test_deterministic(self, ex1, path3):
        a = solve_exact(ex1, path3, RunConfig(seed=11))
        b = solve_exact(ex1, path3, RunConfig(seed=11))
        assert a.solutions == b.solutions
        assert np.array_equal(a.linear_solutions, b.linear_solutions)

    def test_node_count_mismatch(self, ex1):
        with pytest.raises(ValueError, match="nodes"):
            solve_exact(ex1, path_graph(2), RunConfig())

    @pytest.mark.parametrize("solve", [solve_exact, verify_satisfiability])
    def test_horizon_refused(self, ex1, path3, solve):
        # T-round consensus is not converged consensus: the exact modes
        # would search the hull of unconverged states
        with pytest.raises(ValueError, match="only solve_approximate takes T"):
            solve(ex1, path3, RunConfig(T=3))

    def test_hull_dimension_matches_null_space(self, ex1, path3):
        # the affine hull of the k* outputs spans the full solution set of
        # the stacked system: dimension = 2^m - rank(stacked coefficients)
        outcome = solve_exact(ex1, path3, RunConfig(seed=13))
        points = outcome.linear_solutions[:, 0, :]  # node 1's copies
        hull = best_affine_fit(points, 1e-6)[0]
        stacked = stack_equations(lift_system(ex1))
        rank, _, _ = rank_and_echelon(stacked.h)
        assert hull.dim == 8 - rank

    def test_matches_oracle_on_random_systems(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 6))
            system = random_satisfiable_system(rng, m, n)
            graph = random_connected_graph(rng, n)
            outcome = solve_exact(system, graph, RunConfig(seed=trial))
            assert set(outcome.solutions) == oracle_solve(system), f"trial {trial}"


class TestChi0Bound:
    def test_rank_bounded_by_image_cardinality(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            system = random_satisfiable_system(rng, m, n)
            stacked = stack_equations(lift_system(system))
            rank, _, _ = rank_and_echelon(stacked.h)
            assert rank <= chi0(system)


class TestSolveApproximate:
    def test_requires_horizon(self, ex1, path3):
        with pytest.raises(ValueError, match="T"):
            solve_approximate(ex1, path3, RunConfig())

    @pytest.mark.parametrize("T", [0, -1])
    def test_nonpositive_horizon_refused(self, ex1, path3, T):
        with pytest.raises(ValueError, match=f"T must be >= 1, got {T}"):
            solve_approximate(ex1, path3, RunConfig(T=T))

    @pytest.mark.parametrize("config", [RunConfig(T=50, k_star=0), RunConfig(T=50, k_star=-1)])
    def test_no_runs_refused(self, ex1, path3, config):
        with pytest.raises(ValueError, match=f"k_star must be >= 1, got {config.k_star}"):
            solve_approximate(ex1, path3, config)

    def test_long_horizon_recovers_exact_set(self, ex1, path3):
        outcome = solve_approximate(ex1, path3, RunConfig(seed=5, T=2000))
        expected = oracle_solve(ex1)
        for node_set in outcome.per_node_solutions:
            assert set(node_set) == expected
        assert outcome.diagnostics["fitted_dims"] == [4, 4, 4]

    @pytest.mark.parametrize("horizon", [50, 200, 2000])
    def test_fitted_dims_match_dimension_scan(self, ex1, path3, horizon):
        # each node's rank is taken at the per-run bound member_tol, and
        # its gap is the ratio of the singular values on either side
        outcome = solve_approximate(ex1, path3, RunConfig(seed=3, T=horizon))
        tol = outcome.diagnostics["member_tol"]
        points = [outcome.linear_solutions[:, i] for i in range(path3.n)]
        scanned = [scan_rank(p, tol) for p in points]
        assert outcome.diagnostics["fitted_dims"] == scanned
        for b, p, gap in zip(scanned, points, outcome.diagnostics["rank_gaps"]):
            s = np.linalg.svd(p - p.mean(axis=0), compute_uv=False)
            assert gap == pytest.approx(s[b - 1] / s[b], rel=1e-9)
            assert s[b - 1] > tol >= s[b]

    def test_huge_horizon_degenerates_to_exact(self, ex1, path3):
        # residuals reach the floating-point floor long before 5000 rounds;
        # the rank threshold collapses to its floor, the exact hull's, and
        # the answer is the exact one
        outcome = solve_approximate(ex1, path3, RunConfig(seed=6, T=5000))
        assert outcome.diagnostics["member_tol"] == solver.RANK_TOL
        exact = solve_exact(ex1, path3, RunConfig(seed=6))
        assert set(outcome.solutions) == set(exact.solutions)

    def test_failures_shrink_with_horizon(self, ex1, path3):
        expected = oracle_solve(ex1)
        failures = {}
        for horizon in (25, 400):
            bad = 0
            for seed in range(6):
                outcome = solve_approximate(ex1, path3, RunConfig(seed=seed, T=horizon))
                bad += sum(
                    set(node_set) != expected
                    for node_set in outcome.per_node_solutions
                )
            failures[horizon] = bad
        assert failures[400] <= failures[25]
        assert failures[400] == 0

    def test_one_svd_per_node(self, ex1, path3, monkeypatch):
        # the fit picks its dimension and its basis from one thin SVD
        svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(kwargs.get("full_matrices", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        solve_approximate(ex1, path3, RunConfig(seed=7, T=50))
        assert calls == [False] * path3.n

    def test_calibrated_rate_is_positive(self, ex1, path3):
        rate = estimate_contraction_rate(lift_system(ex1), path3, RunConfig(seed=0))
        assert 0.001 <= rate < 1.0


class TestVerifySatisfiability:
    def test_inconsistent_lift_detected_by_disagreement(self, ex3, path3):
        outcome = verify_satisfiability(ex3, path3, RunConfig(seed=1, epsilon=0.2))
        assert outcome.verdict == "unsatisfiable"
        assert outcome.stage == "consensus-disagreement"
        assert all(outcome.diagnostics["node_disagreement_flags"])
        assert outcome.diagnostics["nodes_agree"]

    def test_consistent_lift_empty_search(self, ex4, path3):
        assert stacked_rank_consistent(lift_system(ex4))
        outcome = verify_satisfiability(ex4, path3, RunConfig(seed=1))
        assert outcome.verdict == "unsatisfiable"
        assert outcome.stage == "empty-solution-set"
        assert outcome.solutions == ()

    def test_satisfiable_returns_solutions(self, ex1, path3):
        outcome = verify_satisfiability(ex1, path3, RunConfig(seed=1))
        assert outcome.verdict == "satisfiable"
        assert outcome.stage == "solved"
        assert set(outcome.solutions) == oracle_solve(ex1)

    def test_verdict_uniform_across_nodes(self, ex1, ex3, ex4, path3):
        for system in (ex1, ex3, ex4):
            for seed in range(3):
                outcome = verify_satisfiability(
                    system, path3, RunConfig(seed=seed, epsilon=0.2)
                )
                flags = outcome.diagnostics["node_disagreement_flags"]
                assert len(set(flags)) == 1
                if outcome.stage != "consensus-disagreement":
                    sets = outcome.per_node_solutions
                    assert all(s == sets[0] for s in sets)

    def test_single_node_contradictory_constant(self):
        # f = 1 with required output 0: even the lifted equation alone is
        # infeasible, but one node can never disagree with itself; the
        # empty search still yields the right verdict
        system = BooleanSystem(1, ((Const(1), 0),))
        g = Graph(1, frozenset())
        outcome = verify_satisfiability(system, g, RunConfig(seed=2))
        assert outcome.verdict == "unsatisfiable"

    @pytest.mark.parametrize("name", ["ex1", "ex3"])
    def test_no_runs_refused_before_stage_one(self, request, path3, name):
        # stage one alone decides ex3, yet k_star = 0 is refused there too
        system = request.getfixturevalue(name)
        with pytest.raises(ValueError, match="k_star must be >= 1, got 0"):
            verify_satisfiability(system, path3, RunConfig(k_star=0, epsilon=0.2))

    def test_rank_consistency_helper(self, ex1, ex3):
        assert stacked_rank_consistent(lift_system(ex1))
        assert not stacked_rank_consistent(lift_system(ex3))

    @pytest.mark.parametrize("epsilon", [None, 0.2])
    def test_stage_one_disagreement_gap(self, ex1, ex3, ex4, path3, epsilon):
        # consistent lifts (ex1, ex4) agree to about 1e-9, an inconsistent
        # one (ex3) disagrees by about 1e-1 on every node: both sides keep
        # two decades of room to DISAGREEMENT_TOL
        for seed in range(3):
            config = RunConfig(seed=seed, epsilon=epsilon)
            for system in (ex1, ex4):
                gaps = verify_satisfiability(system, path3, config).diagnostics["node_gaps"]
                assert max(gaps) <= solver.DISAGREEMENT_TOL / 100
            gaps = verify_satisfiability(ex3, path3, config).diagnostics["node_gaps"]
            assert min(gaps) >= 100 * solver.DISAGREEMENT_TOL


class TestUndecided:
    """The solver, not its caller, says when an outcome is not an answer."""

    def test_unconverged_exact_run(self, ex1, path3):
        outcome = solve_exact(ex1, path3, RunConfig(max_rounds=1))
        assert not outcome.diagnostics["converged"]
        assert outcome.undecided[0] == "consensus hit max_rounds (converged is false)"

    def test_unconverged_stage_one(self, ex1, path3):
        outcome = verify_satisfiability(ex1, path3, RunConfig(max_rounds=1))
        assert outcome.verdict == "unsatisfiable"  # the verdict stands, undecided
        assert outcome.undecided == (
            "limit consensus hit max_rounds (limits_converged is false)",
            "network average hit max_rounds (average_converged is false)",
        )

    def test_stage_two_reasons_pass_through(self, ex1, path3):
        # seed 1: stage one converges in 216 rounds, stage two's runs need
        # up to 220
        outcome = verify_satisfiability(ex1, path3, RunConfig(seed=1, max_rounds=217))
        assert outcome.diagnostics["limits_converged"]
        assert outcome.stage == "solved"
        assert outcome.undecided == ("consensus hit max_rounds (converged is false)",)

    def test_disagreeing_nodes(self, ex2, path3):
        outcome = solve_approximate(ex2, path3, RunConfig(T=2, seed=1, k_star=5))
        assert not outcome.diagnostics["nodes_agree"]
        assert outcome.diagnostics["fitted_dims"] == [3, 2, 3]
        assert outcome.undecided == (
            "nodes disagree (nodes_agree is false)",
            *(f"node {i}'s subspace has dimension {dim}, below the floor 2^m - n - 1 = 4"
              for i, dim in ((1, 3), (2, 2), (3, 3))),
            *(f"node {i}'s rank gap {gap} is below 100"
              for i, gap in ((1, "1.93"), (2, "1.86"), (3, "4.08"))),
        )


class TestSearchThreshold:
    """The exact modes search each node's hull at the geometric mean of
    RANK_TOL, above the solutions' consensus error, and 2/sqrt(2^m): a unit
    vector failing an equation whose output classes have sizes a + b = 2^m
    lies sqrt(1/a + 1/b) >= 2/sqrt(2^m) from that equation's solution set,
    which holds every hull of a consistent lift."""

    @pytest.fixture
    def thresholds(self, monkeypatch):
        seen = []
        search = solver.boolean_vector_search

        def spy(hull, tol):
            seen.append(tol)
            return search(hull, tol)

        monkeypatch.setattr(solver, "boolean_vector_search", spy)
        return seen

    @pytest.mark.parametrize("solve", [solve_exact, verify_satisfiability])
    def test_threshold_from_the_lift(self, ex1, path3, solve, thresholds):
        assert solve(ex1, path3, RunConfig(seed=1)).solutions
        assert thresholds == [pytest.approx(math.sqrt(solver.RANK_TOL / math.sqrt(2)))] * 3
        thresholds.clear()
        system = random_satisfiable_system(np.random.default_rng(4), 4, 3)
        assert solve(system, path3, RunConfig(seed=1)).solutions
        assert thresholds == [pytest.approx(math.sqrt(solver.RANK_TOL / 2))] * 3

    def test_hulls_keep_the_gap(self):
        # solutions sit within the hull's rank threshold; non-solutions sit
        # at the proven 2/sqrt(d) or beyond, less the consensus error that
        # the hull carries on both sides (measured up to 2.4e-8 below)
        rng = np.random.default_rng(2026)
        for trial in range(6):
            m, n = 3 + trial % 3, int(rng.integers(3, 6))
            system = random_satisfiable_system(rng, m, n)
            graph = random_connected_graph(rng, n)
            outcome = solve_exact(system, graph, RunConfig(seed=trial))
            assert outcome.diagnostics["converged"]
            d = 2**m
            for i in range(n):
                hull = best_affine_fit(outcome.linear_solutions[:, i], solver.RANK_TOL)[0]
                for j, x in enumerate(np.eye(d)):
                    dist = dist_to_affine(x, hull)
                    if system.satisfies(itob(j + 1, m)):
                        assert dist <= solver.RANK_TOL
                    else:
                        assert dist >= 2 / math.sqrt(d) - solver.RANK_TOL


# sat-mixed benchmark document (workload seed 302, third problem): every
# consensus run converges, yet a search that read membership through an
# echelon factorization at pivot threshold tol put solution 00011 at
# residual 1.02e-6 on nodes 1, 4 and 5 and dropped it there
MISSED_SOLUTION_DOC = {
    "m": 5,
    "equations": [
        ("(((x4 & x1) & (!x5 | x4)) -> (!x2 <-> (x2 & !x5)))", 1),
        ("!x5", 0),
        ("((!x5 <-> !x4) | ((1 | x4) & !!x5))", 1),
        ("x2", 0),
        ("!!(!x5 <-> !x3)", 0),
        ("!x2", 1),
    ],
    "edges": [[1, 2], [1, 3], [1, 4], [1, 6], [2, 5], [2, 6], [3, 4], [3, 6], [4, 5], [4, 6]],
    "seed": 571088873,
}
# the seed verify_satisfiability derives for its stage-two solve_exact
MISSED_SOLUTION_STAGE_TWO_SEED = 3523807473888800262
MISSED_SOLUTION_SET = {(0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (1, 0, 0, 0, 1)}


class TestMissedSolutionRegression:
    def setup_method(self):
        doc = MISSED_SOLUTION_DOC
        self.system = BooleanSystem.from_texts(doc["m"], doc["equations"])
        self.graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])

    def test_solve_exact_every_node_finds_every_solution(self):
        config = RunConfig(seed=MISSED_SOLUTION_STAGE_TWO_SEED)
        outcome = solve_exact(self.system, self.graph, config)
        assert set(outcome.solutions) == MISSED_SOLUTION_SET
        assert outcome.diagnostics["nodes_agree"]

    def test_verify_satisfiability(self):
        config = RunConfig(seed=MISSED_SOLUTION_DOC["seed"])
        outcome = verify_satisfiability(self.system, self.graph, config)
        assert outcome.verdict == "satisfiable"
        assert set(outcome.solutions) == MISSED_SOLUTION_SET
        assert outcome.diagnostics["nodes_agree"]


# approx-wide benchmark document (workload seed 1, third problem): at
# T = 300 the runs are within about 2.6e-6 of their limits; a summed-distance
# budget c* exp(-gamma* T) k, about 2000x too loose, once dropped real hull
# directions here (dimension 121 where the solution set has 123) and every
# node agreed on 0 of the 16 solutions
DROPPED_DIMENSIONS_DOC = {
    "m": 7,
    "equations": [
        ("(x1 | !(x7 <-> x4))", 1),
        ("(!x6 <-> x5)", 1),
        ("(!x4 | (!0 & (x1 & 0)))", 1),
        ("(((!x3 <-> x1) | (x7 -> x4)) -> x4)", 0),
    ],
    "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [3, 4]],
    "config": {"T": 300, "seed": 1442800837},
}


def test_dropped_dimensions_are_undecided():
    # the per-run bound as rank threshold keeps every direction, with a
    # clear gap on every node
    doc = DROPPED_DIMENSIONS_DOC
    system = BooleanSystem.from_texts(doc["m"], doc["equations"])
    graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
    outcome = solve_approximate(system, graph, RunConfig(**doc["config"]))
    expected = oracle_solve(system)
    assert len(expected) == 16
    assert outcome.undecided == ()
    assert all(set(node_set) == expected for node_set in outcome.per_node_solutions)
    assert outcome.diagnostics["fitted_dims"] == [123] * 4
    assert min(outcome.diagnostics["rank_gaps"]) > 1000


# exact-small benchmark document (workload seed 1, second problem), whose
# hulls have dimension 3.  Solved with RunConfig(seed=1, T=300), a
# summed-distance budget left every node's fit at dimension 2, above the
# floor 2^3 - 6 - 1 = 1, and every node agreed on [], with nothing flagged,
# while (1, 0, 0) solves the system
SILENT_EMPTY_DOC = {
    "m": 3,
    "equations": [
        ("(((x2 -> !x3) | (x2 <-> 0)) <-> !(x2 & !x3))", 1),
        ("x2", 0),
        ("(x1 <-> (!x3 | (!x3 | !x3)))", 1),
        ("(x2 -> (x2 & !x3))", 1),
        ("(x1 | 1)", 1),
        ("(x1 <-> !(x2 | x2))", 1),
    ],
    "edges": [[1, 2], [1, 3], [1, 6], [2, 4], [2, 5], [3, 6], [5, 6]],
    "config": {"seed": 67526265},
}


def test_no_silent_empty_answer_above_the_floor():
    doc = SILENT_EMPTY_DOC
    system = BooleanSystem.from_texts(doc["m"], doc["equations"])
    graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
    outcome = solve_approximate(system, graph, RunConfig(seed=1, T=300))
    assert oracle_solve(system) == {(1, 0, 0)}
    assert outcome.undecided == ()
    assert outcome.per_node_solutions == (((1, 0, 0),),) * 6


class TestCertifiedRuns:
    """The exact modes draw runs until every node's hull is certified: after
    run j >= max(3, 2^m - n + 2), a node whose hull has dimension at most
    j - 3 is certified, and k* caps the runs."""

    def test_stops_once_every_hull_is_certified(self):
        doc = SILENT_EMPTY_DOC
        system = BooleanSystem.from_texts(doc["m"], doc["equations"])
        graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
        config = RunConfig(**doc["config"])
        outcome = solve_exact(system, graph, config)
        # dimension 3 certifies at run 6; checks ran after runs 4, 5 and 6
        assert outcome.diagnostics["k_star"] == 9
        assert len(outcome.diagnostics["rounds"]) == 6
        assert outcome.undecided == ()
        assert outcome.per_node_solutions == (((1, 0, 0),),) * 6
        # the runs are the first 6 of the 9 that one draw of k* initials makes
        initials = np.random.default_rng(config.seed).random((9, 6, 8))
        runs = [distributed_lae(lift_system(system), graph, config, x) for x in initials[:6]]
        assert np.array_equal(outcome.linear_solutions, np.stack([x for x, _, _ in runs]))
        assert outcome.diagnostics["rounds"] == [r for _, r, _ in runs]

    @pytest.mark.parametrize(
        "m, text, expected",
        [(2, "x1 | x2", {(0, 1), (1, 0), (1, 1)}), (1, "x1 | !x1", {(0,), (1,)})],
    )
    def test_first_check_at_the_cap(self, m, text, expected):
        # one node: the first check, after run 2^m + 1, is at k*
        system = BooleanSystem.from_texts(m, [(text, 1)])
        outcome = solve_exact(system, Graph(1, frozenset()), RunConfig(seed=1))
        assert len(outcome.diagnostics["rounds"]) == 2**m + 1
        assert set(outcome.solutions) == expected and outcome.undecided == ()

    def test_cap_below_the_first_check(self, ex2, path3):
        # ex2's k* = 5 from its image prior is below its first check, after
        # run 7, so all 5 runs are drawn
        outcome = solve_exact(ex2, path3, RunConfig(seed=7, k_star=5))
        assert len(outcome.diagnostics["rounds"]) == 5
        assert outcome.solutions == ((1, 0, 0),) and outcome.undecided == ()


@pytest.mark.parametrize("T", [2, 10, 50, 300])
@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_truncated_outcome_is_undecided_or_right(request, path3, name, T):
    # a decided truncated outcome is the oracle's set on every node, from
    # T = 2 up
    system = request.getfixturevalue(name)
    expected = oracle_solve(system)
    for seed in range(4):
        outcome = solve_approximate(system, path3, RunConfig(seed=seed, T=T))
        if not outcome.undecided:
            assert all(set(s) == expected for s in outcome.per_node_solutions), seed


EX1_SOLUTIONS = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1))


class TestNodeLocality:
    """Every node answers from its own equation and its neighbours' states:
    no solve path may evaluate the whole system, at one assignment or
    through the oracle's tables."""

    @pytest.fixture(autouse=True)
    def whole_system_unreadable(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve path evaluated every equation")

        monkeypatch.setattr(BooleanSystem, "satisfies", refuse)
        monkeypatch.setattr(solver, "oracle_solve", refuse)

    @pytest.mark.parametrize("name, expected", [("ex1", EX1_SOLUTIONS), ("ex3", ()), ("ex4", ())])
    def test_solve_exact(self, request, path3, name, expected):
        outcome = solve_exact(request.getfixturevalue(name), path3, RunConfig(seed=7))
        assert outcome.per_node_solutions == (expected,) * 3

    @pytest.mark.parametrize(
        "name, verdict, stage, expected",
        [
            ("ex1", "satisfiable", "solved", EX1_SOLUTIONS),
            ("ex3", "unsatisfiable", "consensus-disagreement", ()),
            ("ex4", "unsatisfiable", "empty-solution-set", ()),
        ],
    )
    def test_verify_satisfiability(self, request, path3, name, verdict, stage, expected):
        system = request.getfixturevalue(name)
        outcome = verify_satisfiability(system, path3, RunConfig(seed=1, epsilon=0.2))
        assert (outcome.verdict, outcome.stage) == (verdict, stage)
        assert outcome.solutions == expected

    def test_solve_approximate(self, ex1, path3):
        outcome = solve_approximate(ex1, path3, RunConfig(seed=5, T=2000))
        assert outcome.per_node_solutions == (EX1_SOLUTIONS,) * 3


class TestTracerContract:
    """perfbench/tracing.py times the layers by swapping wrappers into
    ``netbool.solver``'s globals, so the solver has to keep every wrapped
    name and call it through those globals.  Obsolete once the library
    records its own spans."""

    @pytest.fixture
    def tracing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("tracing")

    def test_wrapped_names_are_solver_globals(self, tracing):
        assert [name for name in tracing._WRAPPED if not hasattr(solver, name)] == []
        # the wrapper reads the graph's node count from the second argument
        params = list(inspect.signature(solver.distributed_lae).parameters)
        assert params == ["eqs", "graph", "config", "initials"]

    def test_solvers_call_through_the_globals(self, tracing, ex1, path3):
        tracer = tracing.Tracer()
        tracer.install(solver)
        try:
            solver.solve_exact(ex1, path3, RunConfig(seed=7))
            solver.solve_approximate(ex1, path3, RunConfig(seed=7, T=50))
            solver.verify_satisfiability(ex1, path3, RunConfig(seed=1))
        finally:
            tracer.uninstall(solver)
        # dist_to_affine stays wrapped, but no solver calls it any more
        expected = {name for name, _ in tracing._WRAPPED.values()} - {"linalg.dist"}
        assert {s.name for s in tracer.spans} == expected
        lae = [s for s in tracer.spans if s.name == "network.lae"]
        assert lae and all(s.counters["n"] == 3 for s in lae)

    def test_sat_stage_one_runs_through_distributed_lae(self, tracing, ex3, path3):
        # ex3's lift is inconsistent, so stage one alone runs: the limits,
        # then their network average, each one distributed_lae call
        tracer = tracing.Tracer()
        tracer.install(solver)
        try:
            outcome = solver.verify_satisfiability(ex3, path3, RunConfig(seed=3))
        finally:
            tracer.uninstall(solver)
        assert outcome.stage == "consensus-disagreement"
        runs = [s for s in tracer.spans if s.parent < 0 and s.name.startswith("network.")]
        assert [s.name for s in runs] == ["network.lae"] * 2
        assert [s.counters["rounds"] for s in runs] == [
            outcome.diagnostics["limit_rounds"],
            outcome.diagnostics["average_rounds"],
        ]

    @pytest.mark.parametrize("mode", ["solve", "solve-approx"])
    def test_one_fit_per_node(self, tracing, ex1, path3, mode):
        # both solve modes take each node's subspace through one
        # best_affine_fit call, so linalg.fit_* count exact solves too;
        # ex1's 4-dimensional hulls certify at the first check, after run 7
        tracer = tracing.Tracer()
        tracer.install(solver)
        try:
            if mode == "solve":
                solver.solve_exact(ex1, path3, RunConfig(seed=7))
            else:
                solver.solve_approximate(ex1, path3, RunConfig(seed=7, T=50))
        finally:
            tracer.uninstall(solver)
        assert [s.name for s in tracer.spans].count("linalg.fit") == path3.n

    def test_one_fit_per_node_per_check(self, tracing):
        # the exact modes' certificate checks are the nodes' fits: 3 checks
        # of 6 nodes, after runs 4, 5 and 6
        doc = SILENT_EMPTY_DOC
        system = BooleanSystem.from_texts(doc["m"], doc["equations"])
        graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
        tracer = tracing.Tracer()
        tracer.install(solver)
        try:
            solver.solve_exact(system, graph, RunConfig(**doc["config"]))
        finally:
            tracer.uninstall(solver)
        names = [s.name for s in tracer.spans]
        assert (names.count("network.lae"), names.count("linalg.fit")) == (6, 18)

    def test_batched_pass_counts_run_rounds(self, tracing, ex1, path3):
        # the k* truncated runs are one span, whose rounds still count every
        # run's rounds, so network.rounds and node_rounds keep their meaning
        tracer = tracing.Tracer()
        tracer.install(solver)
        try:
            solver.solve_approximate(ex1, path3, RunConfig(seed=7, T=50))
        finally:
            tracer.uninstall(solver)
        (lae,) = [s for s in tracer.spans if s.name == "network.lae"]
        assert type(lae.counters["rounds"]) is int and lae.counters["rounds"] == 9 * 50
        assert lae.counters["converged"] is True


class TestOracleSolve:
    def test_worked_examples(self, ex1, ex2, ex3):
        assert oracle_solve(ex1) == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)}
        assert oracle_solve(ex2) == {(1, 0, 0)}
        assert oracle_solve(ex3) == set()

    def test_cap(self):
        system = BooleanSystem(21, ((parse_formula("x21", 21), 1),))
        with pytest.raises(ValueError, match="cap"):
            oracle_solve(system)

    def test_matches_bruteforce_on_random_systems(self):
        rng = np.random.default_rng(16)
        for trial in range(200):
            m, n = 1 + trial % 6, int(rng.integers(1, 7))
            if trial % 2:
                system = random_satisfiable_system(rng, m, n)
            else:
                system = BooleanSystem(m, tuple(
                    (random_formula(rng, m), int(rng.integers(0, 2))) for _ in range(n)
                ))
            assert oracle_solve(system) == oracle_bruteforce(system), f"trial {trial}"

    def test_at_the_cap(self):
        # 2^20 assignments: the uint8 bit columns take 20 MB and each
        # table 8 MB; int64 bit columns alone would take 160 MB
        conjunction = " & ".join(f"x{k}" for k in range(1, 21))
        system = BooleanSystem.from_texts(20, [(conjunction, 1), ("x1 -> !x20", 0)])
        tracemalloc.start()
        try:
            solutions = oracle_solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solutions == {(1,) * 20}
        assert peak < 48 * 2**20


class TestRunConfig:
    def test_default_epsilon(self):
        assert RunConfig().effective_epsilon(3) == pytest.approx(0.3)
        assert RunConfig(epsilon=0.2).effective_epsilon(3) == 0.2

    def test_default_k_star(self):
        assert RunConfig().effective_k_star(3) == 9
        assert RunConfig(k_star=2).effective_k_star(3) == 2

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("T", True, "an integer"),
            ("T", 2.5, "an integer"),
            ("k_star", 3.0, "an integer"),
            ("seed", 1.5, "an integer"),
            ("seed", None, "an integer"),
            ("max_rounds", True, "an integer"),
            ("epsilon", True, "a number"),
            ("epsilon", "0.2", "a number"),
        ],
    )
    def test_field_types_refused(self, field, value, kind):
        # the problem file's rules hold for configs built in Python too
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value!r}$"):
            RunConfig(**{field: value})

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            RunConfig(seed=-1)
        assert RunConfig(seed=0).seed == 0
