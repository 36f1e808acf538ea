import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    EX2_MATRICES,
    central_projected_average,
    chi0,
    project_affine,
    random_connected_graph,
    random_satisfiable_system,
    rank_and_echelon,
    scan_fit_dim,
    stack_equations,
    stacked_rank_consistent,
)
from netbool.formula import BooleanSystem, Const, parse_formula
from netbool.linalg import affine_from_points
from netbool import solver
from netbool.network import Graph
from netbool.solver import (
    RunConfig,
    distributed_lae,
    estimate_contraction_rate,
    lift_system,
    oracle_solve,
    solve_approximate,
    solve_exact,
    verify_satisfiability,
)


class TestLiftSystem:
    def test_right_hand_sides(self, ex1):
        eqs = lift_system(ex1)
        assert np.array_equal(eqs[0].z, [0.0, 1.0])
        assert np.array_equal(eqs[1].z, [1.0, 0.0])
        assert np.array_equal(eqs[2].z, [1.0, 0.0])

    def test_coefficient_matrices(self, ex2):
        eqs = lift_system(ex2)
        for eq, expected in zip(eqs, EX2_MATRICES):
            assert np.array_equal(eq.h, np.array(expected, dtype=float))

    def test_constant_formula_rank_one(self):
        system = BooleanSystem(2, ((Const(1), 1),))
        eqs = lift_system(system)
        rank, _, _ = rank_and_echelon(eqs[0].h)
        assert rank == 1

    def test_solutions_lie_in_every_solution_set(self, ex1):
        from netbool.matricization import btoi, unit_vector

        eqs = lift_system(ex1)
        for x in oracle_solve(ex1):
            e = unit_vector(btoi(x), 8)
            for eq in eqs:
                assert eq.residual(e) < 1e-12


class TestDistributedLAE:
    def test_single_node_returns_projection(self):
        system = BooleanSystem.from_texts(2, [("x1 | x2", 1)])
        eqs = lift_system(system)
        g = Graph(1, frozenset())
        initials = np.array([[0.3, 0.8, 0.1, 0.9]])
        states, rounds, converged = distributed_lae(eqs, g, RunConfig(), initials)
        assert converged and rounds <= 2
        assert np.allclose(states[0], project_affine(eqs[0], initials[0]))

    def test_outputs_solve_every_local_equation(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(2)
        states, _, converged = distributed_lae(
            eqs, path3, RunConfig(), rng.random((3, 8))
        )
        assert converged
        for node_state in states:
            for eq in eqs:
                assert eq.residual(node_state) < 1e-8

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
        config = RunConfig(seed=3, chi0_prior=chi0(ex2))
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
            solve_exact(ex1, Graph.path(2), RunConfig())

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
        hull = affine_from_points(points, tol=1e-6)
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

    @pytest.mark.parametrize("config", [RunConfig(T=50, k_star=0), RunConfig(T=50, chi0_prior=9)])
    def test_no_runs_refused(self, ex1, path3, config):
        with pytest.raises(ValueError, match="k_star must be >= 1, got 0"):
            solve_approximate(ex1, path3, config)

    def test_long_horizon_recovers_exact_set(self, ex1, path3):
        outcome = solve_approximate(ex1, path3, RunConfig(seed=5, T=2000))
        expected = oracle_solve(ex1)
        for node_set in outcome.per_node_solutions:
            assert set(node_set) == expected
        assert outcome.diagnostics["fitted_dims"] == [4, 4, 4]

    @pytest.mark.parametrize("horizon", [50, 200, 2000])
    def test_fitted_dims_match_dimension_scan(self, ex1, path3, horizon):
        outcome = solve_approximate(ex1, path3, RunConfig(seed=3, T=horizon))
        budget = outcome.diagnostics["budget"]
        scanned = [
            scan_fit_dim(outcome.linear_solutions[:, i], budget) for i in range(path3.n)
        ]
        assert outcome.diagnostics["fitted_dims"] == scanned
        for b, (at_b, below) in zip(scanned, outcome.diagnostics["fit_margins"]):
            assert at_b <= 1.0
            assert below is None if b == 0 else below > 1.0

    def test_huge_horizon_degenerates_to_exact(self, ex1, path3):
        # residuals reach the floating-point floor long before 5000 rounds;
        # the distance budget collapses to the plain tolerance and the
        # answer is the exact one
        outcome = solve_approximate(ex1, path3, RunConfig(seed=6, T=5000))
        assert outcome.diagnostics["budget"] == RunConfig().tol
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


EX1_SOLUTIONS = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1))


class TestNodeLocality:
    """Every node answers from its own equation and its neighbours' states:
    no solve path may evaluate the whole system."""

    @pytest.fixture(autouse=True)
    def whole_system_unreadable(self, monkeypatch):
        def refuse(system, x):
            raise AssertionError("a solve path evaluated every equation")

        monkeypatch.setattr(BooleanSystem, "satisfies", refuse)

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
        small = BooleanSystem.from_texts(2, [("x1 & x2", 1)])
        with pytest.raises(ValueError, match="cap"):
            oracle_solve(small, cap=1)


class TestRunConfig:
    def test_default_epsilon(self):
        assert RunConfig().effective_epsilon(3) == pytest.approx(0.3)
        assert RunConfig(epsilon=0.2).effective_epsilon(3) == 0.2

    def test_default_k_star(self):
        assert RunConfig().effective_k_star(3) == 9
        assert RunConfig(chi0_prior=4).effective_k_star(3) == 5
        assert RunConfig(k_star=2).effective_k_star(3) == 2
