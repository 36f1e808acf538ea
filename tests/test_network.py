import math
from itertools import chain, islice

import numpy as np
import pytest

from conftest import (
    EX1_TEXTS,
    EX3_TEXTS,
    Equation,
    central_projected_average,
    complete_graph,
    lifted,
    node_equations,
    path_graph,
    project_affine,
    random_connected_graph,
    random_satisfiable_system,
    stack_equations,
)
from netbool.formula import BooleanSystem
from netbool.matricization import lift_system
from netbool.network import Graph, build_weights, consensus, run_to_convergence

# ex1 with its first equation replaced by the constant 1: one row of that
# node's H is all zero
CONSTANT_TEXTS = [("1", 1)] + EX1_TEXTS[1:]


class TestGraph:
    def test_path_neighbors(self):
        g = path_graph(4)
        assert g.neighbors(1) == (2,)
        assert g.neighbors(2) == (1, 3)
        assert g.degree(3) == 2

    def test_from_edge_list_normalizes(self):
        g = Graph.from_edge_list(3, [[2, 1], [3, 2], [1, 2]])
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edge_list(2, [[1, 1], [1, 2]])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph.from_edge_list(4, [[1, 2], [3, 4]])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="invalid edge"):
            Graph.from_edge_list(2, [[1, 3]])

    def test_single_node(self):
        g = Graph(1, frozenset())
        assert g.neighbors(1) == ()

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            # int() once truncated 1.7 to node 1 and took True as node 1
            (3, [[1.7, 2], [2, 3]], r"invalid edge \(1.7, 2\): node ids must be integers"),
            (3, [[True, 3], [1, 2]], r"invalid edge \(True, 3\): node ids must be integers"),
            # a third entry was dropped without a word
            (3, [[1, 2, 3], [2, 3]], r"invalid edge \[1, 2, 3\]: expected a pair \[i, j\]"),
            (3, [[1], [2, 3]], r"invalid edge \[1\]: expected a pair \[i, j\]"),
            (2.0, [[1, 2]], "node count must be an integer, got 2.0"),
            (True, [], "node count must be an integer, got True"),
        ],
    )
    def test_refuses_what_a_problem_file_refuses(self, n, pairs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph.from_edge_list(n, pairs)


class TestBuildWeights:
    def test_three_node_path(self):
        w = build_weights(path_graph(3), 0.2)
        assert np.allclose(
            w, [[0.8, 0.2, 0.0], [0.2, 0.6, 0.2], [0.0, 0.2, 0.8]]
        )

    def test_two_node_complete(self):
        w = build_weights(complete_graph(2), 0.25)
        assert np.allclose(w, [[0.75, 0.25], [0.25, 0.75]])

    @pytest.mark.parametrize("n,eps", [(3, 0.1), (5, 0.18), (2, 0.49)])
    def test_stochastic_and_symmetric(self, n, eps):
        w = build_weights(complete_graph(n), eps)
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.array_equal(w, w.T)

    def test_epsilon_range(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            build_weights(g, 0.0)
        with pytest.raises(ValueError):
            build_weights(g, 1.0 / 3.0)


class TestAverageConsensus:
    def test_consensus_is_fixed_point(self):
        g = path_graph(3)
        states = np.tile([1.0, 2.0], (3, 1))
        stepped = next(consensus(build_weights(g, 0.2), states))
        assert np.array_equal(stepped, states)

    def test_two_node_step(self):
        g = complete_graph(2)
        stepped = next(consensus(build_weights(g, 0.25), np.array([[0.0], [1.0]])))
        assert np.allclose(stepped, [[0.25], [0.75]])

    def test_sum_conserved(self):
        rng = np.random.default_rng(4)
        g = Graph.from_edge_list(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        initials = rng.random((4, 6))
        total = initials.sum(axis=0)
        for states in islice(consensus(build_weights(g, 0.2), initials), 25):
            assert np.allclose(states.sum(axis=0), total, atol=1e-12)

    def test_limit_is_initial_mean(self):
        rng = np.random.default_rng(5)
        g = path_graph(4)
        initials = rng.random((4, 5))
        states, _, (converged,) = run_to_convergence(
            build_weights(g, 0.2), initials, None, 1e-12, 10000
        )
        assert converged
        assert np.abs(states - initials.mean(axis=0)).max() < 1e-9


class TestProjectionConsensus:
    def test_common_feasible_point_is_fixed(self, ex1, path3):
        eqs = lift_system(ex1)
        # a feasible point of the whole stacked system: any true solution
        feasible = np.zeros(8)
        feasible[0] = 1.0  # unit vector of the all-zero assignment
        states = np.tile(feasible, (3, 1))
        stepped = next(consensus(build_weights(path3, 0.3), states, eqs))
        assert np.allclose(stepped, states, atol=1e-12)

    def test_single_node_is_pure_projection(self):
        eq = Equation(np.array([[1.0, 0.0]]), np.array([2.0]))
        g = Graph(1, frozenset())
        stepped = next(consensus(build_weights(g, 0.5), np.array([[5.0, 7.0]]), lifted([eq])))
        assert np.allclose(stepped[0], project_affine(eq, np.array([5.0, 7.0])))

    def test_wrong_equation_count(self, path3):
        two = lift_system(BooleanSystem.from_texts(3, EX1_TEXTS[:2]))
        rounds = consensus(build_weights(path3, 0.2), np.zeros((3, 8)), two)
        with pytest.raises(ValueError, match="expected 3 equations"):
            next(rounds)

    @pytest.mark.parametrize(
        "shape", [(2, 8), (4, 8), (8,), (2, 2, 8), (2, 4, 8), (2, 3, 8, 1)]
    )
    @pytest.mark.parametrize("with_eqs", [True, False])
    def test_wrong_state_shape(self, ex1, path3, shape, with_eqs):
        eqs = lift_system(ex1) if with_eqs else None
        w = build_weights(path3, 0.2)
        with pytest.raises(ValueError, match="one state row per node"):
            next(consensus(w, np.zeros(shape), eqs))
        with pytest.raises(ValueError, match="one state row per node"):
            run_to_convergence(w, np.zeros(shape), eqs, 1e-6, 10)
        # a well-formed batch steps, each run to its own stop round
        _, rounds, converged = run_to_convergence(w, np.zeros((2, 3, 8)), eqs, 1e-6, 10)
        assert len(rounds) == len(converged) == 2

    def test_projected_sum_conserved(self, ex1, path3):
        # the sum of the stacked-system projections of the node states is
        # invariant along the recursion (satisfiable case)
        eqs = lift_system(ex1)
        stacked = stack_equations(eqs)
        rng = np.random.default_rng(6)
        initials = rng.random((3, 8))

        def projected_sum(states):
            return sum(project_affine(stacked, s) for s in states)

        reference = projected_sum(initials)
        for states in islice(consensus(build_weights(path3, 0.3), initials, eqs), 60):
            assert np.abs(projected_sum(states) - reference).max() < 1e-9

    @pytest.mark.parametrize(
        "texts",
        [EX1_TEXTS, EX3_TEXTS, CONSTANT_TEXTS],
        ids=["ex1", "ex3-least-squares", "constant-zero-row"],
    )
    def test_matches_affine_map_form(self, texts, path3):
        # one engine round equals the affine map built from the stacked
        # null-space projectors and offsets (independent derivation)
        eqs = lift_system(BooleanSystem.from_texts(3, texts))
        w = build_weights(path3, 0.3)
        rng = np.random.default_rng(7)
        states = rng.random((3, 8))
        stepped = next(consensus(w, states, eqs))

        # the projectors from numpy's SVD pseudoinverse, not the lift's own
        reference = node_equations(eqs)
        nullers = np.zeros((3 * 8, 3 * 8))
        for i, eq in enumerate(reference):
            nullers[8 * i : 8 * (i + 1), 8 * i : 8 * (i + 1)] = np.eye(8) - eq.h_pinv @ eq.h
        offsets = np.concatenate([eq.h_pinv @ eq.z for eq in reference])
        big = nullers @ np.kron(w, np.eye(8))
        expected = big @ states.ravel() + offsets
        assert np.allclose(stepped.ravel(), expected, atol=1e-12)


class TestBatchedRuns:
    def test_single_run_round_is_the_plain_formula(self, path3):
        # k = 1: the (n, d) state itself, stepped by exactly these products
        system = BooleanSystem.from_texts(4, EX1_TEXTS)
        eqs = lift_system(system)
        w = build_weights(path3, 0.3)
        x = np.random.default_rng(11).random((3, 16))
        for stepped in islice(consensus(w, x, eqs), 200):
            x = w @ x
            x -= (eqs.h_pinv @ (eqs.h @ x[:, :, None] - eqs.z))[:, :, 0]
            assert stepped.shape == (3, 16)
            assert np.array_equal(stepped, x)

    @pytest.mark.parametrize("with_eqs", [True, False])
    def test_batch_matches_single_runs(self, ex1, path3, with_eqs):
        eqs = lift_system(ex1) if with_eqs else None
        w = build_weights(path3, 0.3)
        batch = np.random.default_rng(12).random((5, 3, 8))
        before = batch.copy()
        singles = [list(islice(consensus(w, run, eqs), 200)) for run in batch]
        for t, stepped in enumerate(islice(consensus(w, batch, eqs), 200)):
            assert stepped.shape == (5, 3, 8)
            for j in range(5):
                assert np.abs(stepped[j] - singles[j][t]).max() < 1e-12
        assert np.array_equal(batch, before)  # the input is not stepped in place


def allocating_rounds(w, x, eqs):
    """The round as a plain formula on the engine's (n, d k) layout, with
    every product a fresh array: the reference for the workspace round."""
    batched = x.ndim == 3
    n, d, k = w.shape[0], x.shape[-1], x.shape[0] if batched else 1
    x = x.transpose(1, 2, 0).reshape(n, d * k) if batched else x.copy()
    while True:
        x = w @ x
        y = x.reshape(n, d, k)
        y -= eqs.h_pinv @ (eqs.h @ y - eqs.z)
        yield y.transpose(2, 0, 1) if batched else x


class TestProjectionWorkspace:
    # the truncated mode's size: m = 7 (d = 128), n = 4, k* = 2^m + 1
    @pytest.fixture
    def wide(self):
        system = random_satisfiable_system(np.random.default_rng(15), 7, 4)
        return build_weights(path_graph(4), 0.2), lift_system(system)

    @pytest.mark.parametrize("shape", [(129, 4, 128), (4, 128)], ids=["batch", "single"])
    def test_matches_allocating_round(self, wide, shape):
        w, eqs = wide
        x = np.random.default_rng(16).random(shape)
        engine = islice(consensus(w, x, eqs), 300)
        for stepped, expected in zip(engine, allocating_rounds(w, x, eqs)):
            assert np.array_equal(stepped, expected)

    @pytest.mark.parametrize("shape", [(5, 4, 128), (4, 128)], ids=["batch", "single"])
    def test_kept_yields_stay_unchanged(self, wide, shape):
        # no workspace array reaches a caller: rounds 1-3, kept while the
        # generator runs on to round 50, still hold their own states
        w, eqs = wide
        rounds = consensus(w, np.random.default_rng(17).random(shape), eqs)
        kept = list(islice(rounds, 3))
        copies = [state.copy() for state in kept]
        for _ in islice(rounds, 47):
            pass
        for state, copy in zip(kept, copies):
            assert np.array_equal(state, copy)


class TestRunToConvergence:
    def test_already_converged(self, ex1, path3):
        eqs = lift_system(ex1)
        feasible = np.zeros(8)
        feasible[0] = 1.0
        _, (rounds,), (converged,) = run_to_convergence(
            build_weights(path3, 0.3), np.tile(feasible, (3, 1)), eqs, 1e-10, 100
        )
        assert converged and rounds == 1

    def test_satisfiable_reaches_central_value(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(8)
        initials = rng.random((3, 8))
        states, _, (converged,) = run_to_convergence(
            build_weights(path3, 0.3), initials, eqs, 1e-10, 5000
        )
        assert converged
        expected = central_projected_average(eqs, initials)
        assert np.abs(states - expected).max() < 1e-8

    def test_unsatisfiable_limits_differ(self, ex3, path3):
        eqs = lift_system(ex3)
        rng = np.random.default_rng(9)
        states, _, (converged,) = run_to_convergence(
            build_weights(path3, 0.2), rng.random((3, 8)), eqs, 1e-10, 5000
        )
        assert converged  # limits exist even though the system is infeasible
        gaps = [
            np.abs(states[i] - states[j]).max()
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert max(gaps) > 1e-3

    @pytest.mark.parametrize("constant", [("1", 1), ("0", 0), ("1", 0), ("0", 1)])
    def test_constant_formula_node_stays_finite(self, path3, constant):
        # a constant f_i leaves one output class empty, so one row of H_i is
        # zero; its h_pinv column is zero, not a division by the class size
        eqs = lift_system(BooleanSystem.from_texts(3, [constant] + EX1_TEXTS[1:]))
        states, _, (converged,) = run_to_convergence(
            build_weights(path3, 0.3), np.random.default_rng(13).random((3, 8)), eqs, 1e-10, 5000
        )
        assert converged and np.isfinite(states).all()

    def test_non_convergence_flagged(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(10)
        _, (rounds,), (converged,) = run_to_convergence(
            build_weights(path3, 0.3), rng.random((3, 8)), eqs, 1e-10, 3
        )
        assert rounds == 3 and not converged

    @pytest.mark.parametrize("seed", range(6))
    def test_extrapolated_stop(self, ex1, path3, seed):
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(seed).random((3, 8))
        states, (rounds,), (converged,) = run_to_convergence(w, initials, eqs, 1e-10, 5000)
        assert converged
        # the plain states up to the round whose sup shift first falls below
        # tol, where the shift rule alone stops
        plain = [initials]
        for x in consensus(w, initials, eqs):
            plain.append(x)
            if np.abs(x - plain[-2]).max() < 1e-10:
                break
        assert rounds < len(plain) - 1
        expected = central_projected_average(eqs, initials)
        distance = np.abs(states - expected).max()
        assert distance < 1e-8
        assert distance < np.abs(plain[rounds] - expected).max()
        # node i's extrapolate moves along its own shift, which lies in the
        # directions of {y : h_i y = z_i}
        residual = eqs.h @ states[:, :, None] - eqs.z
        assert np.abs(residual).max() < 1e-12

    def test_capped_run_returns_the_plain_state(self, ex1, path3):
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(8).random((3, 8))
        _, (rounds,), _ = run_to_convergence(w, initials, eqs, 1e-10, 5000)
        # a cap inside the extrapolating rounds, just before the stop
        states, (capped,), (converged,) = run_to_convergence(w, initials, eqs, 1e-10, rounds - 1)
        assert capped == rounds - 1 and not converged
        plain = list(islice(consensus(w, initials, eqs), rounds - 1))[-1]
        assert np.array_equal(states, plain)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fast", [0.0, -3.0], ids=["zero-shift", "growing-shift"])
    def test_guarded_nodes_keep_the_plain_state(self, path3, fast):
        # plain averaging on the path 1-2-3 below the extrapolation guard,
        # along its slow mode (1, 0, -1) and its fast mode (1, -2, 1): alone,
        # the slow mode never moves node 2 (powers of two keep its mix of
        # nodes 1 and 3 exactly zero); mixed in, the fast mode passes node
        # 1's shift through zero, so that shift grows for a few rounds
        w = build_weights(path3, 0.25)
        modes = np.array([1.0, 0.0, -1.0]) + fast * np.array([1.0, -2.0, 1.0])
        initials = 2.0**-24 * np.tile(modes[:, None], (1, 2))
        shifts = np.abs(np.diff([initials, *islice(consensus(w, initials), 20)], axis=0))
        node = shifts.max(axis=2)
        if fast:
            assert (node[1:] > node[:-1]).any()
        else:
            assert not node[:, 1].any()
        states, _, (converged,) = run_to_convergence(w, initials, None, 1e-10, 5000)
        assert converged
        assert np.abs(states - initials.mean(axis=0)).max() < 1e-9

    def test_batch_matches_single_runs(self):
        # a batch steps its runs together, each to its own stop round.  BLAS
        # may round a batched product's last bit differently from a single
        # run's, which can move a run's stop by a round or two and its
        # limit by about 1e-10
        rng = np.random.default_rng(19)
        matched = total = 0
        for _ in range(8):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            system = random_satisfiable_system(rng, m, n)
            graph = random_connected_graph(rng, n)
            eqs, w = lift_system(system), build_weights(graph, 0.9 / n)
            initials = rng.random((2**m + 1, n, 2**m))
            states, rounds, converged = run_to_convergence(w, initials, eqs, 1e-10, 5000)
            assert all(type(r) is int for r in rounds)
            assert all(type(c) is bool for c in converged)
            for j, start in enumerate(initials):
                single, (r,), (c,) = run_to_convergence(w, start, eqs, 1e-10, 5000)
                assert c is converged[j] is True
                assert abs(r - rounds[j]) <= 4
                assert np.abs(states[j] - single).max() < 1e-9
                matched += r == rounds[j]
                total += 1
        print(f"per-run rounds equal in {matched} of {total} runs")
        assert matched >= 0.9 * total

    def test_each_run_stops_at_its_own_round(self, ex1, path3):
        # a run started at a common feasible point stops after one round; the
        # other runs on, to the cap
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        feasible = np.zeros((3, 8))
        feasible[:, 0] = 1.0
        start = np.random.default_rng(10).random((3, 8))
        states, rounds, converged = run_to_convergence(
            w, np.stack([feasible, start]), eqs, 1e-10, 3
        )
        assert (rounds, converged) == ([1, 3], [True, False])
        assert np.abs(states[0] - feasible).max() < 1e-12
        plain = list(islice(consensus(w, start, eqs), 3))[-1]
        assert np.abs(states[1] - plain).max() < 1e-12

    def test_parameter_validation(self, path3):
        w = build_weights(path3, 0.2)
        with pytest.raises(ValueError):
            run_to_convergence(w, np.zeros((3, 2)), None, 0.0, 10)
        with pytest.raises(ValueError):
            run_to_convergence(w, np.zeros((3, 2)), None, 1e-6, 0)


class TestDeterminism:
    def test_bit_identical_trajectories(self, ex1, path3):
        eqs = lift_system(ex1)

        def trajectory(seed):
            rng = np.random.default_rng(seed)
            rounds = consensus(build_weights(path3, 0.3), rng.random((3, 8)), eqs)
            return list(islice(rounds, 40))

        first = trajectory(123)
        second = trajectory(123)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        third = trajectory(124)
        assert not all(np.array_equal(a, b) for a, b in zip(first, third))


def test_disagreement_decays_exponentially(ex1, path3):
    """After a short burn-in the max pairwise disagreement shrinks toward
    the common limit at a steady geometric rate."""
    eqs = lift_system(ex1)
    rng = np.random.default_rng(0)
    initials = rng.random((3, 8))
    frames = chain([initials], consensus(build_weights(path3, 0.3), initials, eqs))
    gaps = []
    for states in islice(frames, 160):
        gaps.append(
            max(
                np.abs(states[i] - states[j]).max()
                for i in range(3)
                for j in range(i + 1, 3)
            )
        )
    burn = 15
    usable = [g for g in gaps if g > 1e-13]
    assert len(usable) > 60
    ratios = [usable[t + 1] / usable[t] for t in range(burn, len(usable) - 1)]
    assert max(ratios) < 0.99  # strictly contracting every round
    slope = np.polyfit(
        np.arange(burn, len(usable)), [math.log(g) for g in usable[burn:]], 1
    )[0]
    assert slope < -0.01
