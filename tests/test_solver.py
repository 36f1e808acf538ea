import importlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    EX1_TEXTS,
    EX2_MATRICES,
    central_projected_average,
    chi0,
    first_order_limits,
    node_equations,
    oracle_bruteforce,
    path_graph,
    project_affine,
    random_connected_graph,
    random_formula,
    random_satisfiable_system,
    rank_and_echelon,
    scan_rank,
    satisfies,
    sequential_certified_runs,
    stack_equations,
    stacked_rank_consistent,
    unit_vector,
)
from netbool.formula import BooleanSystem, Const, parse_formula
from netbool.linalg import best_affine_fit, dist_to_affine
from netbool.matricization import itob, lift_system
from netbool import solver
from netbool.network import Graph, build_weights, consensus, run_to_convergence
from netbool.solver import (
    RunConfig,
    SplitMix64,
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
        initials = np.array([[[0.3, 0.8, 0.1, 0.9]]])
        states, rounds, converged, _ = distributed_lae(eqs, g, RunConfig(), initials)
        assert converged and rounds <= 2
        assert np.allclose(states[0, 0], project_affine(node_equations(eqs)[0], initials[0, 0]))

    def test_outputs_solve_every_local_equation(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(2)
        (states,), _, converged, _ = distributed_lae(
            eqs, path3, RunConfig(), rng.random((1, 3, 8))
        )
        assert converged
        for node_state in states:
            assert np.abs(eqs.h @ node_state[:, None] - eqs.z).max() < 1e-8

    def test_matches_central_average(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(3)
        initials = rng.random((3, 8))
        (states,), *_ = distributed_lae(eqs, path3, RunConfig(), initials[None])
        expected = central_projected_average(eqs, initials)
        assert np.abs(states - expected).max() < 1e-8

    def test_feasible_initials_are_fixed(self, ex1, path3):
        eqs = lift_system(ex1)
        e = np.zeros(8)
        e[0] = 1.0  # a common feasible point
        states, rounds, converged, _ = distributed_lae(
            eqs, path3, RunConfig(), np.tile(e, (1, 3, 1))
        )
        assert converged and rounds == 1
        assert np.allclose(states, np.tile(e, (1, 3, 1)), atol=1e-12)

    def test_finite_horizon_runs_requested_rounds(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(4)
        initials = rng.random((1, 3, 8))
        states_short, rounds, *_ = distributed_lae(
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
        states, rounds, converged, _ = distributed_lae(eqs, path3, config, initials)
        assert converged and type(rounds) is int and rounds == 4 * 30
        assert states.shape == (4, 3, 8) and states.flags.c_contiguous
        for run, start in zip(states, initials):
            (single,), *_ = distributed_lae(eqs, path3, config, start[None])
            assert np.abs(run - single).max() < 1e-12

    @pytest.mark.parametrize("horizon", [1, 2, 3, 30])
    def test_finite_horizon_reports_the_last_two_shifts(self, ex1, path3, horizon):
        # each node's sup change over the runs in rounds T - 1 and T, taken
        # between rounds' outputs only, so T < 3 has fewer than two
        eqs = lift_system(ex1)
        batch = np.random.default_rng(5).random((4, 3, 8))
        for initials in (batch, batch[:1]):
            *_, shifts = distributed_lae(eqs, path3, RunConfig(T=horizon), initials)
            outputs = list(islice(consensus(build_weights(path3, 0.3), initials, eqs), horizon))
            expected = [np.abs(b - a).max(axis=(0, 2)) for a, b in zip(outputs, outputs[1:])]
            assert len(shifts) == min(horizon - 1, 2)
            for got, want in zip(shifts, expected[-2:]):
                assert np.array_equal(got, want)

    def test_truncated_pass_lets_the_initials_go(self):
        # a T-round pass holds the previous round's states, the new ones and
        # the projection correction, and takes its last two shifts inside
        # the previous round's states; keeping the initials would make a
        # fourth.  The k* = 2^6 + 1 initials are drawn inside the trace, as
        # solve_approximate draws them
        eqs = lift_system(random_satisfiable_system(np.random.default_rng(0), 6, 3))
        config = RunConfig(seed=1, T=5)

        def initials():
            return SplitMix64(config.seed).random((65, 3, 64))

        distributed_lae(eqs, path_graph(3), config, initials())  # warm caches
        tracemalloc.start()
        try:
            states, *_ = distributed_lae(eqs, path_graph(3), config, initials())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * states.nbytes

    def test_convergent_runs_step_a_batch(self, ex1, path3):
        # the batch stops in one round: the rounds come back summed over the
        # runs, as in the T branch, and as the network's own count, an int,
        # beside the batch's one flag
        initials = np.random.default_rng(6).random((4, 3, 8))
        states, rounds, converged, network_rounds = distributed_lae(
            lift_system(ex1), path3, RunConfig(), initials
        )
        assert states.shape == (4, 3, 8) and states.flags.c_contiguous
        assert converged is True and type(network_rounds) is int
        assert rounds == 4 * network_rounds
        w = build_weights(path3, 0.3)
        assert np.abs(states - first_order_limits(w, initials, lift_system(ex1))).max() < 1e-9
        for run, start in zip(states, initials):
            (single,), *_ = distributed_lae(lift_system(ex1), path3, RunConfig(), start[None])
            assert np.abs(run - single).max() < 1e-9


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
            assert satisfies(ex1, x)
        for node_set in outcome.per_node_solutions:
            for x in node_set:
                assert satisfies(ex1, x)

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
        # each node's rank is taken at its own threshold in member_tols,
        # and its gap is the ratio of the singular values on either side
        outcome = solve_approximate(ex1, path3, RunConfig(seed=3, T=horizon))
        tols = outcome.diagnostics["member_tols"]
        points = [outcome.linear_solutions[:, i] for i in range(path3.n)]
        scanned = [scan_rank(p, tol) for p, tol in zip(points, tols)]
        assert outcome.diagnostics["fitted_dims"] == scanned
        for b, p, gap, tol in zip(scanned, points, outcome.diagnostics["rank_gaps"], tols):
            s = np.linalg.svd(p - p.mean(axis=0), compute_uv=False)
            assert gap == pytest.approx(s[b - 1] / s[b], rel=1e-9)
            assert s[b - 1] > tol >= s[b]

    def test_huge_horizon_degenerates_to_exact(self, ex1, path3):
        # residuals reach the floating-point floor long before 5000 rounds;
        # every node counts as converged, its rank threshold collapses to
        # its floor, the exact hull's, and the answer is the exact one
        outcome = solve_approximate(ex1, path3, RunConfig(seed=6, T=5000))
        assert outcome.diagnostics["member_tols"] == [solver.RANK_TOL] * 3
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

    def test_bounds_match_the_distance_to_the_limits(self, ex1, path3):
        # each node's beta_i, from its own last two shifts, against the sup
        # distance of its T-round outputs from their converged limits.  From
        # T = 50 on, every ratio over seeds 0-99 is 0.92-1.04.  At T = 25 the
        # ratio of two shifts is not yet the contraction rate: 12 of these
        # seeds read outside [0.9, 1.1], 11 of them low (down to 0.80 at seed
        # 85) and seed 5 high (1.153 at node 3); the earlier PCG64 draws put
        # 12 of seeds 0-99 outside as well, none of them in 0-9
        eqs = lift_system(ex1)
        w = build_weights(path3, RunConfig().effective_epsilon(path3.n))
        inside = 0
        for seed in range(100):
            initials = SplitMix64(seed).random((9, 3, 8))
            limits = run_to_convergence(w, initials, eqs, 1e-13, 10**5)[0]
            for horizon in (25, 50, 100, 200):
                outcome = solve_approximate(ex1, path3, RunConfig(seed=seed, T=horizon))
                distance = np.abs(outcome.linear_solutions - limits).max(axis=(0, 2))
                ratio = np.array(outcome.diagnostics["bounds"]) / distance
                banded = bool(((0.9 <= ratio) & (ratio <= 1.1)).all())
                assert banded or horizon == 25, (seed, horizon, ratio)
                inside += banded and horizon == 25
        print(f"{inside} of 100 seeds inside the band at T = 25")
        assert inside >= 88

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rate_guards(self):
        # shifts below CONSENSUS_TOL are rounding noise, whatever their
        # ratio or zeros: the node counts as converged; above that floor a
        # shift that did not shrink gives no rate
        before = np.array([4e-3, 3e-17, 0.0, 0.0, 1e-3, 2e-3])
        last = np.array([1e-3, 3.5e-17, 0.0, 1e-11, 1e-3, 3e-3])
        assert estimate_contraction_rate(before, last) == [0.25, 0.0, 0.0, 0.0, None, None]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_short_horizon_has_no_rate(self, ex1, path3, horizon):
        # fewer than two shifts: every node has no rate, and fits and
        # searches at 1/sqrt(2^m)
        outcome = solve_approximate(ex1, path3, RunConfig(seed=7, T=horizon))
        assert outcome.diagnostics["bounds"] == [None] * 3
        assert outcome.diagnostics["member_tols"] == [1 / math.sqrt(8)] * 3
        assert outcome.undecided[:3] == tuple(
            f"node {i}'s shifts give no contraction rate at T = {horizon}" for i in (1, 2, 3)
        )


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

    def test_runs_stepped_counts_stage_two_batch(self, ex1, ex3, path3):
        # stage two's one batch of min(k*, 2^m + 2) = 9 runs, dropped runs
        # included; stage one steps one run per network run and reports
        # only its rounds
        config = RunConfig(seed=1, epsilon=0.2)
        solved = verify_satisfiability(ex1, path3, config)
        assert solved.diagnostics["runs_stepped"] == 9
        assert len(solved.diagnostics["rounds"]) <= 9
        disagreeing = verify_satisfiability(ex3, path3, config)
        assert disagreeing.stage == "consensus-disagreement"
        assert "runs_stepped" not in disagreeing.diagnostics

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

    # a seeded fuzz system (m = 2, n = 5) with one solution, 00
    CAPPED = (
        BooleanSystem.from_texts(2, [
            ("(((x1 & x2) | x2) <-> x2)", 1),
            ("x1", 0),
            ("(((x1 & x2) -> (x1 <-> x2)) & ((x2 -> x2) <-> (x2 & x2)))", 0),
            ("(x2 & !(x1 -> x1))", 0),
            ("x2", 0),
        ]),
        Graph.from_edge_list(5, [[1, 3], [1, 5], [2, 4], [2, 5]]),
    )

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
        # seed 3: stage one converges in 101 rounds, stage two's batch needs
        # 105
        outcome = verify_satisfiability(ex1, path3, RunConfig(seed=3, max_rounds=103))
        assert outcome.diagnostics["limits_converged"]
        assert outcome.stage == "solved"
        assert outcome.undecided == ("consensus hit max_rounds (converged is false)",)

    def test_disagreeing_nodes(self, ex2, path3):
        # two rounds give each node one shift, so no node has a rate and
        # each fits at 1/sqrt(8)
        outcome = solve_approximate(ex2, path3, RunConfig(T=2, seed=4, k_star=5))
        assert not outcome.diagnostics["nodes_agree"]
        assert outcome.diagnostics["fitted_dims"] == [2, 2, 2]
        assert outcome.undecided == (
            *(f"node {i}'s shifts give no contraction rate at T = 2" for i in (1, 2, 3)),
            "nodes disagree (nodes_agree is false)",
            *(f"node {i}'s subspace has dimension {dim}, below the floor 2^m - n - 1 = 4"
              for i, dim in ((1, 2), (2, 2), (3, 2))),
            *(f"node {i}'s rank gap {gap} is below 100"
              for i, gap in ((1, "1.61"), (2, "1.26"), (3, "1.49"))),
        )

    def test_capped_bound(self):
        # from the seeded fuzz: one solution, 00.  At T = 50 the calibrated
        # bound c* exp(-gamma* T) once read 2.28, above the 0.25 cap, and no
        # other check fired; it was decided and wrong before that cap.  The
        # nodes' own thresholds sqrt(5 * 4) beta_i stay below 1/sqrt(4), and
        # the outcome is undecided by the nodes' disagreement and rank gaps.
        # No single seed of the SplitMix64 draws repeats the pinned sets, so
        # a sweep asserts the outcome occurs, no node keeps a non-solution
        # and every decided outcome is right
        system, graph = self.CAPPED
        assert oracle_solve(system) == {(0, 0)}
        seen = 0
        for seed in range(10):
            outcome = solve_approximate(system, graph, RunConfig(seed=seed, T=50))
            assert all(set(s) <= {(0, 0)} for s in outcome.per_node_solutions), seed
            if not outcome.undecided:
                assert all(set(s) == {(0, 0)} for s in outcome.per_node_solutions), seed
            seen += (
                max(outcome.diagnostics["member_tols"]) < 0.5
                and "nodes disagree (nodes_agree is false)" in outcome.undecided
                and any("rank gap" in reason for reason in outcome.undecided)
            )
        assert seen

    def test_fit_without_a_direction(self):
        # test_capped_bound's system at T = 50, seed 252: the limits span a
        # line whose singular value, about 0.05, lies below every node's
        # threshold, so every fit keeps no direction and no node answers 00.
        # No rank gap exists and the dimension floor 2^m - n - 1 is negative;
        # the outputs' spectral norm, not 100 times below the threshold,
        # leaves the outcome undecided
        system, graph = self.CAPPED
        outcome = solve_approximate(system, graph, RunConfig(seed=252, T=50))
        assert outcome.diagnostics["fitted_dims"] == [0] * 5
        assert outcome.per_node_solutions == ((),) * 5
        assert len(outcome.undecided) == 5
        for i, (reason, tol) in enumerate(
            zip(outcome.undecided, outcome.diagnostics["member_tols"]), start=1
        ):
            assert reason.startswith(f"node {i}'s fit keeps no direction")
            assert reason.endswith(f"threshold {tol:.3g}")


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
                    if satisfies(system, itob(j + 1, m)):
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


# sat-mixed's Boolean-unsatisfiable m = 3, n = 6 entry at seed 1 (problem
# 7), whose runs mix slowly.  First-order rounds alone left sat's stage one
# at max_rounds = 5000 with a largest node gap of 3.4e-4, and so
# "unsatisfiable" at stage "consensus-disagreement", undecided; second-order
# rounds, read from the settled rate and re-read once a real root shows,
# reach its limits in 679 rounds, with node gaps of at most 2.6e-11, and
# stage two finds no solution.  The truncated mode stays
# first-order: at T = 2000 its outputs still lie 7.7e-2 to 9.3e-2 from
# their limits, and each node's own bound reads at least 6e-2
SLOW_MIXING_DOC = {
    "m": 3,
    "equations": [
        ("!(x3 | (!x1 -> !x2))", 0),
        ("(x3 & ((x3 -> !x2) <-> (x3 -> x3)))", 0),
        ("(!x2 <-> ((!x1 | !x2) <-> (x3 | !x1)))", 1),
        ("x3", 1),
        ("(!x2 & !!!x2)", 0),
        ("(!x2 <-> !x1)", 0),
    ],
    "edges": [[1, 5], [1, 6], [2, 5], [3, 4], [3, 5]],
    "config": {"seed": 509626757},
}


def test_slow_mixing_stage_one_reaches_its_limits():
    doc = SLOW_MIXING_DOC
    system = BooleanSystem.from_texts(doc["m"], doc["equations"])
    graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
    outcome = verify_satisfiability(system, graph, RunConfig(**doc["config"]))
    assert outcome.diagnostics["limits_converged"]
    assert outcome.diagnostics["limit_rounds"] < 750  # 679, with a 10% margin
    assert max(outcome.diagnostics["node_gaps"]) < 1e-9
    assert (outcome.verdict, outcome.stage, outcome.undecided) == (
        "unsatisfiable",
        "empty-solution-set",
        (),
    )
    assert oracle_solve(system) == set()


def test_slow_runs_bound_themselves():
    doc = SLOW_MIXING_DOC
    system = BooleanSystem.from_texts(doc["m"], doc["equations"])
    graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
    outcome = solve_approximate(system, graph, RunConfig(**doc["config"], T=2000))
    assert min(outcome.diagnostics["bounds"]) >= 6e-2
    tols = [math.sqrt(9 * 8) * bound for bound in outcome.diagnostics["bounds"]]
    assert outcome.undecided[:6] == tuple(
        f"node {i}'s threshold {tol:.3g} is not below 1/sqrt(2^m) = 0.354"
        for i, tol in enumerate(tols, start=1)
    )


def test_no_silent_empty_answer_above_the_floor():
    # over seeds 0-9 every node answers (1, 0, 0); the outcome is decided at
    # seeds 0 and 2, and the others are undecided by rank gaps of 39-99,
    # below GAP_MIN (seed 1: 65-91 at five nodes)
    doc = SILENT_EMPTY_DOC
    system = BooleanSystem.from_texts(doc["m"], doc["equations"])
    graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
    assert oracle_solve(system) == {(1, 0, 0)}
    decided = 0
    for seed in range(10):
        outcome = solve_approximate(system, graph, RunConfig(seed=seed, T=300))
        assert outcome.per_node_solutions == (((1, 0, 0),),) * 6, seed
        decided += outcome.undecided == ()
    assert decided


# seeded fuzz system #104 (m = 4, n = 8, generated graph), four solutions.
# Solved with RunConfig(seed=35, T=300) under the earlier PCG64 draws, it
# was decided and every node returned 2 of the 4: a search slack of
# max(RANK_TOL, sqrt(k* d) beta_i) bounds the fit's noise directions, not a
# solution's distance to the fitted subspace
FUZZ_104 = {
    "m": 4,
    "equations": [
        ("x3", 0),
        ("x1", 1),
        ("x3", 0),
        ("((1 | (x3 <-> x4)) -> x3)", 0),
        ("x3", 0),
        ("(x3 | x3)", 0),
        ("(x3 & !x2)", 0),
        ("!(x1 & x1)", 0),
    ],
    "edges": [[1, 3], [1, 5], [1, 6], [1, 8], [2, 3], [2, 4], [2, 5], [2, 7],
              [4, 5], [4, 6], [4, 8], [5, 8], [6, 7], [7, 8]],
}


def test_search_slack_reaches_every_solution():
    # the Wedin slack bounds a solution's distance to the fitted subspace:
    # no outcome is decided and wrong, and some are decided
    doc = FUZZ_104
    system = BooleanSystem.from_texts(doc["m"], doc["equations"])
    graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
    truth = oracle_solve(system)
    assert len(truth) == 4
    decided = 0
    for seed in range(50):
        outcome = solve_approximate(system, graph, RunConfig(seed=seed, T=300))
        if not outcome.undecided:
            decided += 1
            assert all(set(s) == truth for s in outcome.per_node_solutions), seed
    assert decided


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
        assert outcome.diagnostics["runs_stepped"] == 9
        assert outcome.undecided == ()
        assert outcome.per_node_solutions == (((1, 0, 0),),) * 6
        # the runs are the first 6 of one distributed_lae batch of all 9:
        # k* = 9 is below 2^m + 2 = 10, so the batch is k* runs
        initials = SplitMix64(config.seed).random((9, 6, 8))
        batch, _, _, rounds = distributed_lae(lift_system(system), graph, config, initials)
        assert np.array_equal(outcome.linear_solutions, batch[:6])
        assert outcome.diagnostics["rounds"] == [rounds] * 6

    def test_a_capped_batch_leaves_the_kept_runs_unconverged(self):
        # the batch has one flag: capped one round before its stop, its
        # states already certify SILENT_EMPTY_DOC's 6-run prefix, and that
        # prefix keeps the batch's false flag, so the outcome is undecided
        doc = SILENT_EMPTY_DOC
        system = BooleanSystem.from_texts(doc["m"], doc["equations"])
        graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
        stop = solve_exact(system, graph, RunConfig(**doc["config"])).diagnostics["rounds"][0]
        capped = solve_exact(system, graph, RunConfig(**doc["config"], max_rounds=stop - 1))
        assert capped.diagnostics["rounds"] == [stop - 1] * 6
        assert capped.diagnostics["runs_stepped"] == 9
        assert capped.diagnostics["converged"] is False
        assert capped.undecided == ("consensus hit max_rounds (converged is false)",)

    def test_one_batch_of_two_more_runs_than_the_state(self, monkeypatch, ex1, path3):
        # a hull has dimension at most 2^m - 1, so the check after run
        # 2^m + 2 always certifies: a larger k* draws 2^m + 2 = 10 runs,
        # in one call, and gives the k* = 10 outcome
        batches = []

        def recorded(eqs, graph, config, initials):
            batches.append(initials.shape)
            return distributed_lae(eqs, graph, config, initials)

        monkeypatch.setattr(solver, "distributed_lae", recorded)
        wide = solve_exact(ex1, path3, RunConfig(seed=7, k_star=40))
        assert batches == [(10, 3, 8)]
        capped = solve_exact(ex1, path3, RunConfig(seed=7, k_star=10))
        assert wide.diagnostics["k_star"] == 40
        assert np.array_equal(wide.linear_solutions, capped.linear_solutions)
        assert wide.per_node_solutions == capped.per_node_solutions == (EX1_SOLUTIONS,) * 3
        for key in ("runs_stepped", "rounds", "converged", "rank_gaps"):
            assert wide.diagnostics[key] == capped.diagnostics[key]
        assert wide.diagnostics["runs_stepped"] == 10

    @pytest.fixture
    def exact_small(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("workloads").WORKLOADS["exact-small"]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_batch_matches_runs_drawn_one_at_a_time(self, monkeypatch, exact_small, seed):
        # the batch's certified prefix is the one the sequential draw stops
        # at, with the same node sets; the batch stops in one round, and
        # both draws' runs lie within 1e-8 of their first-order limits
        for doc in exact_small.generate(seed):
            system = BooleanSystem.from_texts(
                doc["m"], [(e["formula"], e["rhs"]) for e in doc["equations"]]
            )
            graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
            config = RunConfig(**doc["config"])
            batched = solve_exact(system, graph, config)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_certified_runs", sequential_certified_runs)
                sequential = solve_exact(system, graph, config)
            assert batched.linear_solutions.shape == sequential.linear_solutions.shape
            n, d = graph.n, 2**system.m
            initials = SplitMix64(config.seed).random((len(batched.linear_solutions), n, d))
            w = build_weights(graph, config.effective_epsilon(n))
            limits = first_order_limits(w, initials, lift_system(system))
            for outcome in (batched, sequential):
                assert np.abs(outcome.linear_solutions - limits).max() < 1e-8
            rounds = batched.diagnostics["rounds"]
            assert rounds == rounds[:1] * len(rounds)
            assert batched.per_node_solutions == sequential.per_node_solutions
            assert batched.undecided == sequential.undecided == ()

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
    no solve path may evaluate the whole system through the oracle's
    tables.  ``BooleanSystem`` has no whole-system evaluator at one
    assignment; the tests' own is ``conftest.satisfies``."""

    @pytest.fixture(autouse=True)
    def whole_system_unreadable(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solve path evaluated every equation")

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
        # of 6 nodes, on the first 4, 5 and 6 runs of one batch of k* = 9
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
        assert (names.count("network.lae"), names.count("linalg.fit")) == (1, 18)

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

    @pytest.mark.parametrize(
        "mode, work",
        [
            ("solve", (1, 954, 2862, 0, 3, 12)),
            ("solve-approx", (1, 450, 1350, 0, 3, 12)),
            ("sat", (3, 1093, 3279, 0, 3, 12)),
        ],
    )
    def test_layer_work_counts(self, tracing, ex1, path3, mode, work):
        # the per-layer work counts the benchmark reports for ex1 on the
        # path at seed 7, pinned: a change to how the engine takes or
        # returns its runs moves none of them.  sat's runs are its two
        # stage-one runs and stage two's batch
        solve = {
            "solve": lambda: solver.solve_exact(ex1, path3, RunConfig(seed=7)),
            "solve-approx": lambda: solver.solve_approximate(ex1, path3, RunConfig(seed=7, T=50)),
            "sat": lambda: solver.verify_satisfiability(ex1, path3, RunConfig(seed=7)),
        }[mode]
        tracer = tracing.Tracer()
        tracer.install(solver)
        try:
            solve()
        finally:
            tracer.uninstall(solver)
        metrics = tracer.layer_metrics()
        keys = (
            "network.runs",
            "network.rounds",
            "network.node_rounds",
            "network.unconverged_runs",
            "linalg.fit_calls",
            "search.hits",
        )
        assert tuple(metrics[key] for key in keys) == work


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

    def test_seed_beyond_64_bits_refused(self, ex1, path3):
        # the stream's state is one uint64 word: its own refusal of a larger
        # seed names no parameter
        with pytest.raises(ValueError, match=f"^seed must be below 2\\^64, got {2**64}$"):
            RunConfig(seed=2**64)
        assert solve_exact(ex1, path3, RunConfig(seed=2**64 - 1)).undecided == ()


class TestSplitMix64:
    def test_known_answer(self):
        words = SplitMix64(1234567).words(5)
        assert words.dtype == np.uint64
        assert words.tolist() == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_doubles_are_the_top_53_bits(self):
        words = SplitMix64(3).words(1000)
        x = SplitMix64(3).random((10, 100))
        assert np.array_equal(x.ravel() * 2.0**53, (words >> 11).astype(float))
        assert 0.0 <= x.min() and x.max() < 1.0

    def test_prefix(self):
        # run j's (n, d) initials are the j-th block of the stream, however
        # the runs are grouped
        batch = SplitMix64(11).random((4, 3, 8))
        stream = SplitMix64(11)
        assert np.array_equal(batch, np.stack([stream.random((3, 8)) for _ in range(4)]))
        stream = SplitMix64(11)
        assert np.array_equal(batch, np.concatenate((stream.random((3, 3, 8)), stream.random((1, 3, 8)))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wraps_without_warnings(self):
        # every product and sum wraps mod 2^64 on arrays, never on a scalar
        assert SplitMix64(2**64 - 1).random((3, 8)).shape == (3, 8)

    def test_solvers_import_neither_numpy_random_nor_hashlib(self, tmp_path):
        # numpy.random's bit generators and, through secrets, hashlib and
        # OpenSSL are several MB of a process's memory; no solve path
        # needs them
        root = Path(__file__).resolve().parents[1]
        code = f"""
import sys
from netbool import BooleanSystem, Graph, RunConfig
from netbool.cli import main
from netbool.solver import solve_approximate, solve_exact, verify_satisfiability
system = BooleanSystem.from_texts(3, {EX1_TEXTS!r})
graph = Graph.from_edge_list(3, [[1, 2], [2, 3]])
solve_exact(system, graph, RunConfig(seed=7))
solve_approximate(system, graph, RunConfig(seed=7, T=50))
verify_satisfiability(system, graph, RunConfig(seed=1))
assert main(["trace", {str(root / "problems" / "ex1.json")!r}, "--seed", "7", "--rounds", "3",
             "--output", {str(tmp_path / "trace.csv")!r}]) == 0
print(sorted(m for m in ("numpy.random", "hashlib") if m in sys.modules))
"""
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"
