import importlib
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    EX1_TEXTS,
    EX3_TEXTS,
    Equation,
    central_projected_average,
    complete_graph,
    first_order_limits,
    lifted,
    node_equations,
    path_graph,
    per_round_convergence,
    project_affine,
    random_connected_graph,
    random_satisfiable_system,
    stack_equations,
)
from netbool import network
from netbool.formula import BooleanSystem
from netbool.matricization import lift_system
from netbool.network import (
    BLOCK,
    SETTLED,
    Graph,
    build_weights,
    consensus,
    run_to_convergence,
)
from netbool.solver import CONSENSUS_TOL, RunConfig, SplitMix64, distributed_lae

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
        states = np.tile([1.0, 2.0], (1, 3, 1))
        stepped = next(consensus(build_weights(g, 0.2), states))
        assert np.array_equal(stepped, states)

    def test_two_node_step(self):
        g = complete_graph(2)
        stepped = next(consensus(build_weights(g, 0.25), np.array([[[0.0], [1.0]]])))
        assert np.allclose(stepped, [[[0.25], [0.75]]])

    def test_sum_conserved(self):
        rng = np.random.default_rng(4)
        g = Graph.from_edge_list(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        initials = rng.random((1, 4, 6))
        total = initials.sum(axis=1)
        for states in islice(consensus(build_weights(g, 0.2), initials), 25):
            assert np.allclose(states.sum(axis=1), total, atol=1e-12)

    def test_limit_is_initial_mean(self):
        rng = np.random.default_rng(5)
        g = path_graph(4)
        initials = rng.random((1, 4, 5))
        states, _, converged = run_to_convergence(
            build_weights(g, 0.2), initials, None, 1e-12, 10000
        )
        assert converged
        assert np.abs(states - initials.mean(axis=1, keepdims=True)).max() < 1e-9


class TestProjectionConsensus:
    def test_common_feasible_point_is_fixed(self, ex1, path3):
        eqs = lift_system(ex1)
        # a feasible point of the whole stacked system: any true solution
        feasible = np.zeros(8)
        feasible[0] = 1.0  # unit vector of the all-zero assignment
        states = np.tile(feasible, (1, 3, 1))
        stepped = next(consensus(build_weights(path3, 0.3), states, eqs))
        assert np.allclose(stepped, states, atol=1e-12)

    def test_single_node_is_pure_projection(self):
        eq = Equation(np.array([[1.0, 0.0]]), np.array([2.0]))
        g = Graph(1, frozenset())
        stepped = next(consensus(build_weights(g, 0.5), np.array([[[5.0, 7.0]]]), lifted([eq])))
        assert np.allclose(stepped[0, 0], project_affine(eq, np.array([5.0, 7.0])))

    def test_wrong_equation_count(self, path3):
        two = lift_system(BooleanSystem.from_texts(3, EX1_TEXTS[:2]))
        rounds = consensus(build_weights(path3, 0.2), np.zeros((1, 3, 8)), two)
        with pytest.raises(ValueError, match="expected 3 equations"):
            next(rounds)

    @pytest.mark.parametrize(
        "shape", [(3, 8), (4, 8), (8,), (2, 2, 8), (2, 4, 8), (2, 3, 8, 1)]
    )
    @pytest.mark.parametrize("with_eqs", [True, False])
    def test_wrong_state_shape(self, ex1, path3, shape, with_eqs):
        eqs = lift_system(ex1) if with_eqs else None
        w = build_weights(path3, 0.2)
        with pytest.raises(ValueError, match="one state row per node"):
            next(consensus(w, np.zeros(shape), eqs))
        with pytest.raises(ValueError, match="one state row per node"):
            run_to_convergence(w, np.zeros(shape), eqs, 1e-6, 10)
        # a well-formed batch steps to one stop round, with one flag
        _, rounds, converged = run_to_convergence(w, np.zeros((2, 3, 8)), eqs, 1e-6, 10)
        assert type(rounds) is int and type(converged) is bool

    @pytest.mark.parametrize("T", [None, 5])
    def test_one_run_is_a_batch_of_one(self, ex1, path3, T):
        # one run's (n, d) states are refused, by name of the (k, n, d)
        # shape the engine takes: the caller builds the batch of one
        eqs, w, one = lift_system(ex1), build_weights(path3, 0.3), np.zeros((3, 8))
        expected = r"shaped \(k, n, d\).*got shape \(3, 8\) for n=3"
        with pytest.raises(ValueError, match=expected):
            next(consensus(w, one, eqs))
        with pytest.raises(ValueError, match=expected):
            run_to_convergence(w, one, eqs, 1e-6, 10)
        with pytest.raises(ValueError, match=expected):
            distributed_lae(eqs, path3, RunConfig(T=T), one)
        states, *_ = distributed_lae(eqs, path3, RunConfig(T=T), one[None])
        assert states.shape == (1, 3, 8)

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
        for (states,) in islice(consensus(build_weights(path3, 0.3), initials[None], eqs), 60):
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
        (stepped,) = next(consensus(w, states[None], eqs))

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
        # k = 1: the batch of one is the (n, d) state, stepped by exactly
        # these products
        system = BooleanSystem.from_texts(4, EX1_TEXTS)
        eqs = lift_system(system)
        w = build_weights(path3, 0.3)
        x = np.random.default_rng(11).random((3, 16))
        for stepped in islice(consensus(w, x[None], eqs), 200):
            x = w @ x
            x -= (eqs.h_pinv @ (eqs.h @ x[:, :, None] - eqs.z))[:, :, 0]
            assert stepped.shape == (1, 3, 16)
            assert np.array_equal(stepped[0], x)

    @pytest.mark.parametrize("with_eqs", [True, False])
    def test_batch_matches_single_runs(self, ex1, path3, with_eqs):
        eqs = lift_system(ex1) if with_eqs else None
        w = build_weights(path3, 0.3)
        batch = np.random.default_rng(12).random((5, 3, 8))
        before = batch.copy()
        singles = [list(islice(consensus(w, run[None], eqs), 200)) for run in batch]
        for t, stepped in enumerate(islice(consensus(w, batch, eqs), 200)):
            assert stepped.shape == (5, 3, 8)
            for j in range(5):
                assert np.abs(stepped[j] - singles[j][t][0]).max() < 1e-12
        assert np.array_equal(batch, before)  # the input is not stepped in place


class TestSecondOrderRounds:
    def test_round_is_the_heavy_ball_formula(self, ex1, path3):
        # one omega for the batch: x(t+1) = omega P(W x(t)) + (1 - omega) x(t-1)
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        for omega in (1.0, 1.5, 1.9):
            before, x = np.random.default_rng(30).random((2, 3, 3, 8))
            for stepped in islice(consensus(w, x, eqs, omega, before), 50):
                expected = omega * next(consensus(w, x, eqs)) + (1 - omega) * before
                assert np.abs(stepped - expected).max() < 1e-12
                before, x = x, stepped

    def test_unit_weight_is_the_first_order_round(self, ex1, path3):
        # 1 y + 0 x(t-1) = y, whatever the previous states
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        x = np.random.default_rng(32).random((1, 3, 8))
        plain = islice(consensus(w, x, eqs), 30)
        unit = consensus(w, x, eqs, 1.0, x + 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(plain, unit))

    def test_keeps_what_a_first_order_round_keeps(self):
        # plain averaging keeps each coordinate's sum over the nodes, and so
        # does a second-order round from two states that share it
        g = Graph.from_edge_list(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
        w = build_weights(g, 0.2)
        initials = np.random.default_rng(31).random((1, 4, 6))
        total = initials.sum(axis=1)
        x = next(consensus(w, initials))
        for states in islice(consensus(w, x, None, 1.8, initials), 100):
            assert np.allclose(states.sum(axis=1), total, atol=1e-12)

    def test_needs_the_previous_states(self, path3):
        w = build_weights(path3, 0.2)
        with pytest.raises(ValueError, match="previous states"):
            next(consensus(w, np.zeros((1, 3, 2)), None, 1.5))
        with pytest.raises(ValueError, match="previous states"):
            next(consensus(w, np.zeros((2, 3, 2)), None, 1.5, np.zeros((1, 3, 2))))


def allocating_rounds(w, x, eqs):
    """The round as a plain formula on the engine's (n, d k) layout, with
    every product a fresh array: the reference for the workspace round."""
    k, n, d = x.shape
    x = x.transpose(1, 2, 0).reshape(n, d * k)
    while True:
        x = w @ x
        y = x.reshape(n, d, k)
        y -= eqs.h_pinv @ (eqs.h @ y - eqs.z)
        yield y.transpose(2, 0, 1)


class TestProjectionWorkspace:
    # the truncated mode's size: m = 7 (d = 128), n = 4, k* = 2^m + 1
    @pytest.fixture
    def wide(self):
        system = random_satisfiable_system(np.random.default_rng(15), 7, 4)
        return build_weights(path_graph(4), 0.2), lift_system(system)

    @pytest.mark.parametrize("shape", [(129, 4, 128), (1, 4, 128)], ids=["batch", "single"])
    def test_matches_allocating_round(self, wide, shape):
        w, eqs = wide
        x = np.random.default_rng(16).random(shape)
        engine = islice(consensus(w, x, eqs), 300)
        for stepped, expected in zip(engine, allocating_rounds(w, x, eqs)):
            assert np.array_equal(stepped, expected)

    @pytest.mark.parametrize("shape", [(5, 4, 128), (1, 4, 128)], ids=["batch", "single"])
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


def record_restarts(monkeypatch):
    """Records (round, omega, states, previous states) for each
    second-order ``consensus`` that ``run_to_convergence`` starts, where
    round is the one whose states it starts from."""
    calls, stepped = [], [0]
    plain = network.consensus

    def recording(w, states, eqs=None, omega=None, previous=None):
        if omega is not None:
            calls.append((stepped[0], float(omega), np.copy(states), np.copy(previous)))
        for x in plain(w, states, eqs, omega, previous):
            stepped[0] += 1
            yield x

    monkeypatch.setattr(network, "consensus", recording)
    return calls


def replayed(w, initials, eqs, restarts, count):
    """The states of rounds 1..count and their sup shifts s(1)..s(count),
    replayed on ``consensus``: first-order from ``initials``, and after
    round t, for each (t, omega, ...) in ``restarts``, second-order at
    omega from the replay's own states of rounds t and t - 1."""
    states, at = [np.asarray(initials, dtype=float)], {r[0]: r[1] for r in restarts}
    runs = consensus(w, states[0], eqs)
    for t in range(1, count + 1):
        states.append(next(runs))
        if t in at:
            runs = consensus(w, states[-1], eqs, at[t], states[-2])
    return states[1:], [float(np.abs(b - a).max()) for a, b in zip(states, states[1:])]


def window_rates(shifts, t):
    """(m, m0): the rates of the windows of 2 ``BLOCK`` shifts ending at
    round t and one window before, from s(1), s(2), ... in ``shifts``."""
    window = 2 * BLOCK
    s = [None, *shifts]  # s[u] is s(u)
    return (s[t] / s[t - window]) ** (1 / window), (s[t - window] / s[t - 2 * window]) ** (1 / window)


def settled(m, m0):
    return m < 1 and abs(m - m0) <= SETTLED * (1 - m)


class TestRunToConvergence:
    def test_already_converged(self, ex1, path3):
        eqs = lift_system(ex1)
        feasible = np.zeros(8)
        feasible[0] = 1.0
        _, rounds, converged = run_to_convergence(
            build_weights(path3, 0.3), np.tile(feasible, (1, 3, 1)), eqs, 1e-10, 100
        )
        assert converged and rounds == 1

    def test_satisfiable_reaches_central_value(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(8)
        initials = rng.random((3, 8))
        (states,), _, converged = run_to_convergence(
            build_weights(path3, 0.3), initials[None], eqs, 1e-10, 5000
        )
        assert converged
        expected = central_projected_average(eqs, initials)
        assert np.abs(states - expected).max() < 1e-8

    def test_unsatisfiable_limits_differ(self, ex3, path3):
        eqs = lift_system(ex3)
        rng = np.random.default_rng(9)
        (states,), _, converged = run_to_convergence(
            build_weights(path3, 0.2), rng.random((1, 3, 8)), eqs, 1e-10, 5000
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
        states, _, converged = run_to_convergence(
            build_weights(path3, 0.3), np.random.default_rng(13).random((1, 3, 8)), eqs, 1e-10, 5000
        )
        assert converged and np.isfinite(states).all()

    def test_non_convergence_flagged(self, ex1, path3):
        eqs = lift_system(ex1)
        rng = np.random.default_rng(10)
        _, rounds, converged = run_to_convergence(
            build_weights(path3, 0.3), rng.random((1, 3, 8)), eqs, 1e-10, 3
        )
        assert rounds == 3 and not converged

    @pytest.mark.parametrize("seed", range(6))
    def test_extrapolated_stop(self, ex1, path3, seed):
        # a second-order round extrapolates each node's mix past its last
        # state, along its own step: the run stops sooner than the
        # first-order rounds' own stop, and nearer its limit
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(seed).random((3, 8))
        (states,), rounds, converged = run_to_convergence(w, initials[None], eqs, 1e-10, 5000)
        assert converged
        # the first-order states up to the round whose sup shift first falls
        # below tol
        plain = [initials]
        for (x,) in consensus(w, initials[None], eqs):
            plain.append(x)
            if np.abs(x - plain[-2]).max() < 1e-10:
                break
        assert rounds < len(plain) - 1
        expected = central_projected_average(eqs, initials)
        distance = np.abs(states - expected).max()
        assert distance < 1e-8
        assert distance < np.abs(plain[rounds] - expected).max()
        # node i's states stay in {y : h_i y = z_i}: from round 2 on, a
        # second-order round is an affine combination of two of its points
        residual = eqs.h @ states[:, :, None] - eqs.z
        assert np.abs(residual).max() < 1e-12

    def test_capped_run_returns_the_plain_state(self, ex1, path3, monkeypatch):
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(8).random((1, 3, 8))
        calls = record_restarts(monkeypatch)
        _, rounds, _ = run_to_convergence(w, initials, eqs, 1e-10, 5000)
        restarts = list(calls)
        # a cap inside the second-order rounds, just before the stop: the
        # round's shift is below tol, but the quiet block is one round
        # short, so the run returns its state in that round, unconverged
        states, capped, converged = run_to_convergence(w, initials, eqs, 1e-10, rounds - 1)
        assert capped == rounds - 1 and not converged
        replay, shifts = replayed(w, initials, eqs, restarts, rounds - 1)
        assert restarts[-1][0] < rounds - 1 and shifts[-1] < 1e-10
        assert np.array_equal(states, replay[-1])

    def test_omega_from_the_first_settled_window(self, ex1, path3, monkeypatch):
        # the run switches at the first block end whose last two windows of
        # 2 BLOCK sup shifts read rates within SETTLED (1 - m) of each
        # other, at omega = 2 / (1 + sqrt(1 - m^2)) from the later one
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(8).random((1, 3, 8))
        calls = record_restarts(monkeypatch)
        states, rounds, converged = run_to_convergence(w, initials, eqs, 1e-10, 5000)
        replay, shifts = replayed(w, initials, eqs, calls, rounds)
        (switch, omega, current, previous), *_ = calls
        ends = range(4 * BLOCK + BLOCK, switch + 1, BLOCK)  # block ends with two windows
        assert [t for t in ends if settled(*window_rates(shifts, t))] == [switch]
        m, _ = window_rates(shifts, switch)
        assert converged and omega == 2 / (1 + math.sqrt(1 - m**2)) and 1 < omega < 2
        assert np.array_equal(current, replay[switch - 1])
        assert np.array_equal(previous, replay[switch - 2])
        assert np.array_equal(states, replay[-1])

    def test_one_switch_for_the_batch(self, ex1, path3, monkeypatch):
        # the batch switches once, at one omega read from its sup shifts,
        # the largest over its runs, nodes and coordinates
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(6).random((4, 3, 8))
        calls = record_restarts(monkeypatch)
        states, rounds, _ = run_to_convergence(w, initials, eqs, 1e-10, 5000)
        replay, shifts = replayed(w, initials, eqs, calls, rounds)
        [(switch, omega, current, previous)] = calls
        m, m0 = window_rates(shifts, switch)
        assert settled(m, m0) and omega == 2 / (1 + math.sqrt(1 - m**2))
        assert np.array_equal(current, replay[switch - 1])
        assert np.array_equal(previous, replay[switch - 2])
        assert np.array_equal(states, replay[-1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_rate_not_below_one_never_switches(self, monkeypatch):
        # w = 1.01 I: every shift grows by 1.01, so the windows agree, at
        # a rate above 1, which gives no omega
        w = 1.01 * np.eye(3)
        initials = np.random.default_rng(8).random((1, 3, 2))
        _, shifts = replayed(w, initials, None, [], 200)
        m, m0 = window_rates(shifts, 200)
        assert abs(m - 1.01) < 1e-12 and abs(m - m0) < 1e-12
        calls = record_restarts(monkeypatch)
        _, rounds, converged = run_to_convergence(w, initials, None, 1e-10, 200)
        assert (rounds, converged, calls) == (200, False, [])

    def test_zero_shifts_read_no_rate(self):
        # a window that starts at a zero shift reads no rate; one that ends
        # at one reads 0, settled when the window before fell nearly as far
        window = 2 * BLOCK

        def rate(first, middle, last):
            return network._settled_rate(
                [first, *[0.5] * (window - 1), middle, *[0.5] * (window - 1), last]
            )

        assert rate(0.0, 0.5, 0.25) is None and rate(0.5, 0.0, 0.25) is None
        assert rate(1.0, 1e-20, 0.0) == 0.0 and rate(1.0, 0.5, 0.0) is None
        assert network._settled_rate([1.0] * (2 * window)) is None  # one shift short

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_zero_rate_reads_no_real_root(self, ex1, path3, monkeypatch):
        # a second-order rate of 0, from a zero shift, is below
        # sqrt(omega - 1): it re-reads nothing, where (m^2 + omega - 1) /
        # (omega m) would divide by zero
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(8).random((1, 3, 8))
        expected = run_to_convergence(w, initials, eqs, 1e-10, 5000)
        calls, plain = record_restarts(monkeypatch), network._settled_rate
        monkeypatch.setattr(network, "_settled_rate", lambda s: 0.0 if calls else plain(s))
        states, rounds, converged = run_to_convergence(w, initials, eqs, 1e-10, 5000)
        assert len(calls) == 1 and converged is True
        assert np.array_equal(states, expected[0]) and rounds == expected[1]

    def test_plain_averaging_switches(self, monkeypatch):
        # the network average, as sat's stage one takes it, follows the
        # same rule, in fewer rounds than the first-order rounds' own stop
        w = build_weights(path_graph(4), 0.2)
        initials = np.random.default_rng(5).random((1, 4, 5))
        calls = record_restarts(monkeypatch)
        states, rounds, converged = run_to_convergence(w, initials, None, 1e-12, 10000)
        assert converged and len(calls) == 1 and 1 < calls[0][1] < 2
        assert np.abs(states - initials.mean(axis=1, keepdims=True)).max() < 1e-9
        prev = initials
        for plain, x in enumerate(consensus(w, initials), start=1):
            if np.abs(x - prev).max() < 1e-12:
                break
            prev = x
        assert rounds < plain

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fast", [0.0, -3.0], ids=["zero-shift", "growing-shift"])
    def test_guarded_nodes_keep_the_plain_state(self, path3, fast):
        # plain averaging on the path 1-2-3 from shifts of about 2^-24,
        # along its slow mode (1, 0, -1) and its fast
        # mode (1, -2, 1): alone, the slow mode never moves node 2 (powers
        # of two keep its mix of nodes 1 and 3 exactly zero); mixed in, the
        # fast mode passes node 1's shift through zero, so that shift grows
        # for a few rounds.  Neither a zero nor a growing node shift enters
        # the run's ratio, which is of its sup shifts
        w = build_weights(path3, 0.25)
        modes = np.array([1.0, 0.0, -1.0]) + fast * np.array([1.0, -2.0, 1.0])
        initials = 2.0**-24 * np.tile(modes[:, None], (1, 1, 2))
        shifts = np.abs(np.diff([initials, *islice(consensus(w, initials), 20)], axis=0))
        node = shifts.max(axis=(1, 3))
        if fast:
            assert (node[1:] > node[:-1]).any()
        else:
            assert not node[:, 1].any()
        states, _, converged = run_to_convergence(w, initials, None, 1e-10, 5000)
        assert converged
        assert np.abs(states - initials.mean(axis=1, keepdims=True)).max() < 1e-9

    def test_batch_matches_single_runs(self):
        # a batch steps as one network run, to one stop round, and each of
        # its runs reaches the limits it reaches alone and its first-order
        # limits
        rng = np.random.default_rng(19)
        for _ in range(8):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            system = random_satisfiable_system(rng, m, n)
            graph = random_connected_graph(rng, n)
            eqs, w = lift_system(system), build_weights(graph, 0.9 / n)
            initials = rng.random((2**m + 1, n, 2**m))
            states, rounds, converged = run_to_convergence(w, initials, eqs, 1e-10, 5000)
            assert type(rounds) is int and converged is True
            assert np.abs(states - first_order_limits(w, initials, eqs)).max() < 1e-9
            for j, start in enumerate(initials):
                (single,), _, c = run_to_convergence(w, start[None], eqs, 1e-10, 5000)
                assert c is True
                assert np.abs(states[j] - single).max() < 1e-9

    def test_batch_stops_in_one_round(self, ex1, path3):
        # a run started at a common feasible point does not move, but rides
        # with the other to the cap: the batch's stop is one for all its runs
        eqs = lift_system(ex1)
        w = build_weights(path3, 0.3)
        feasible = np.zeros((3, 8))
        feasible[:, 0] = 1.0
        start = np.random.default_rng(10).random((3, 8))
        states, rounds, converged = run_to_convergence(
            w, np.stack([feasible, start]), eqs, 1e-10, 3
        )
        assert (rounds, converged) == (3, False)
        assert np.abs(states[0] - feasible).max() < 1e-12
        plain = list(islice(consensus(w, start[None], eqs), 3))[-1][0]
        assert np.abs(states[1] - plain).max() < 1e-12

    def test_parameter_validation(self, path3):
        w = build_weights(path3, 0.2)
        with pytest.raises(ValueError):
            run_to_convergence(w, np.zeros((1, 3, 2)), None, 0.0, 10)
        with pytest.raises(ValueError):
            run_to_convergence(w, np.zeros((1, 3, 2)), None, 1e-6, 0)


def assert_matches_per_round(w, states, eqs, tol, max_rounds):
    """``run_to_convergence`` and the per-round reference agree bit for bit
    on the states, the rounds and the converged flag; returns the engine's
    result."""
    result = run_to_convergence(w, states, eqs, tol, max_rounds)
    expected = per_round_convergence(w, states, eqs, tol, max_rounds)
    assert np.array_equal(result[0], expected[0])
    assert result[1:] == expected[1:]
    return result


class TestLoudBlocks:
    """``run_to_convergence`` takes ``BLOCK`` rounds at once, stops at the
    first one that meets the stop rule and reads rates only at block ends:
    every result equals the per-round loop's
    (``conftest.per_round_convergence``)."""

    def test_single_run(self, ex1, path3):
        w = build_weights(path3, 0.3)
        for seed in range(4):
            initials = np.random.default_rng(seed).random((1, 3, 8))
            _, rounds, converged = assert_matches_per_round(
                w, initials, lift_system(ex1), 1e-10, 5000
            )
            assert converged and rounds > 2 * BLOCK

    def test_settled_run_rides_to_the_batch_stop(self, ex1, path3):
        # run 0 starts at a common feasible point, so its own shift is 0 in
        # every round; the batch's sup shift is the others', and every run
        # stops in its round
        w = build_weights(path3, 0.3)
        feasible = np.zeros((3, 8))
        feasible[:, 0] = 1.0
        starts = np.random.default_rng(20).random((4, 3, 8))
        states, rounds, converged = assert_matches_per_round(
            w, np.concatenate([feasible[None], starts]), lift_system(ex1), 1e-10, 5000
        )
        _, alone, _ = run_to_convergence(w, starts, lift_system(ex1), 1e-10, 5000)
        assert rounds == alone and converged
        assert np.abs(states[0] - feasible).max() < 1e-12

    def test_random_batches(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            eqs = lift_system(random_satisfiable_system(rng, m, n))
            w = build_weights(random_connected_graph(rng, n), 0.9 / n)
            initials = rng.random((2**m + 2, n, 2**m))
            states, rounds, converged = assert_matches_per_round(
                w, initials, eqs, 1e-10, 5000
            )
            assert converged and rounds > BLOCK
            assert np.abs(states - first_order_limits(w, initials, eqs)).max() < 1e-8

    def test_plain_averaging(self):
        w = build_weights(Graph.from_edge_list(4, [[1, 2], [2, 3], [3, 4], [1, 4]]), 0.2)
        initials = np.random.default_rng(22).random((3, 4, 5))
        assert_matches_per_round(w, initials, None, 1e-10, 5000)
        assert_matches_per_round(w, initials[:1], None, 1e-12, 5000)

    @pytest.mark.parametrize("max_rounds", [1, BLOCK, BLOCK + 1, 2 * BLOCK - 1])
    def test_caps_near_a_block(self, ex1, path3, max_rounds, monkeypatch):
        # a block is cut at the cap, so no round past it is stepped, and the
        # batch stops there
        w = build_weights(path3, 0.3)
        initials = np.random.default_rng(23).random((3, 3, 8))
        stepped, plain = [], network.consensus

        def counting(*args):
            for x in plain(*args):
                stepped.append(1)
                yield x

        monkeypatch.setattr(network, "consensus", counting)
        _, rounds, converged = assert_matches_per_round(
            w, initials, lift_system(ex1), 1e-10, max_rounds
        )
        assert rounds == max_rounds and not converged
        assert len(stepped) == max_rounds

    def test_every_round_of_a_block_is_read(self):
        # w = 10 I: the shift grows tenfold a round, so round 1 is below tol
        # and stops the run, though the block's last round is far above it
        w = 10.0 * np.eye(3)
        initials = np.full((1, 3, 2), 1e-11)
        shifts = np.diff([initials, *islice(consensus(w, initials), BLOCK)], axis=0)
        assert np.abs(shifts[0]).max() < 1e-10
        assert np.abs(shifts[-1]).max() > 1e6 * 1e-10
        _, rounds, converged = assert_matches_per_round(w, initials, None, 1e-10, 5000)
        assert (rounds, converged) == (1, True)

    def test_one_coordinate_reads_the_second_eigenvalue(self, path3, monkeypatch):
        # a shift on one coordinate, by plain averaging on the path 1-2-3 at
        # epsilon 0.25, whose W has eigenvalues 1, 0.75 and 0.25: the sup
        # shift is that coordinate's change, its rate settles at the first
        # block end with two windows, round 5 BLOCK, and reads the slow
        # mode's 0.75
        w = build_weights(path3, 0.25)
        initials = np.zeros((1, 3, 8))
        initials[0, 0, 0] = 2.0**-7
        calls = record_restarts(monkeypatch)
        _, rounds, converged = assert_matches_per_round(
            w, initials, None, 1e-10, 5000
        )
        [(switch, omega, _, _)] = calls
        rho = math.sqrt(1 - (2 / omega - 1) ** 2)  # omega = 2 / (1 + sqrt(1 - rho^2))
        assert switch == 5 * BLOCK and abs(rho - 0.75) < 1e-9
        assert converged and rounds > switch + BLOCK


def corpus_batch(doc):
    """(w, initials, lift) of a benchmark corpus document's batch of runs,
    as the exact modes draw it."""
    system = BooleanSystem.from_texts(
        doc["m"], [(e["formula"], e["rhs"]) for e in doc["equations"]]
    )
    graph = Graph.from_edge_list(len(doc["equations"]), doc["edges"])
    config = RunConfig(**doc["config"])
    n, d = graph.n, 2**system.m
    runs = min(config.effective_k_star(system.m), d + 2)
    return (
        build_weights(graph, config.effective_epsilon(n)),
        SplitMix64(config.seed).random((runs, n, d)),
        lift_system(system),
    )


class TestCorpusRuns:
    """Benchmark corpus problems' batches of runs, as the exact modes draw
    them: every exact-small and sat-mixed problem at workload seed 1, and
    single problems that show one part of the rule."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("workloads").WORKLOADS

    @pytest.fixture
    def batches(self, workloads):
        return [
            corpus_batch(doc)
            for name in ("exact-small", "sat-mixed")
            for doc in workloads[name].generate(1)
        ]

    def test_limits_match_first_order_limits(self, batches):
        # against first-order rounds run on to a sup shift of 1e-13
        worst = 0.0
        for w, initials, eqs in batches:
            states, _, converged = run_to_convergence(w, initials, eqs, CONSENSUS_TOL, 5000)
            assert converged
            worst = max(worst, np.abs(states - first_order_limits(w, initials, eqs)).max())
        print(f"largest distance from the first-order limits: {worst:.3g}")
        assert worst < 1e-8

    def test_batches_match_the_per_round_reference(self, batches):
        for w, initials, eqs in batches:
            _, _, converged = assert_matches_per_round(w, initials, eqs, CONSENSUS_TOL, 5000)
            assert converged

    def test_a_second_mode_is_read_back_to_rho(self, workloads, monkeypatch):
        # exact-small seed 1's m = 3, n = 5 entry: its first settled window
        # reads the second mode, 0.965, not rho = 0.990, so the second-order
        # rounds show a real root above sqrt(omega - 1), and the batch
        # re-reads rho from it once
        doc = workloads["exact-small"].generate(1)[2]
        assert (doc["m"], len(doc["equations"])) == (3, 5)
        w, initials, eqs = corpus_batch(doc)
        calls = record_restarts(monkeypatch)
        _, _, converged = run_to_convergence(w, initials, eqs, CONSENSUS_TOL, 5000)
        assert converged and len(calls) == 2
        # rho: the largest modulus below 1 of M = blockdiag(I - h_i^+ h_i)
        # (W kron I), the first-order round's linear part
        n, d = w.shape[0], initials.shape[2]
        project = np.zeros((n * d, n * d))
        for i in range(n):
            project[i * d : (i + 1) * d, i * d : (i + 1) * d] = np.eye(d) - eqs.h_pinv[i] @ eqs.h[i]
        moduli = np.abs(np.linalg.eigvals(project @ np.kron(w, np.eye(d))))
        rho = moduli[moduli < 1 - 1e-9].max()
        optimal = 2 / (1 + math.sqrt(1 - rho**2))
        assert abs(calls[0][1] / optimal - 1) > 0.05
        assert abs(calls[1][1] / optimal - 1) < 0.01

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_reread_at_or_below_the_complex_modulus(self, workloads, monkeypatch):
        # exact-small seed 1's m = 4, n = 6 entry: a settled second-order
        # window reads m <= sqrt(omega - 1), the modulus of the complex
        # roots, which shows no real root, and the batch keeps its omega
        w, initials, eqs = corpus_batch(workloads["exact-small"].generate(1)[7])
        calls = record_restarts(monkeypatch)
        _, rounds, _ = run_to_convergence(w, initials, eqs, CONSENSUS_TOL, 5000)
        [(switch, omega, _, _)] = calls
        _, shifts = replayed(w, initials, eqs, calls, rounds)
        ends = range(switch + 4 * BLOCK, rounds + 1, BLOCK)  # two windows from the switch
        low = [t for t in ends if settled(*window_rates(shifts, t))]
        assert low and all(window_rates(shifts, t)[0] <= math.sqrt(omega - 1) for t in low)

    def test_one_dip_below_tol_does_not_stop(self, workloads, monkeypatch):
        # exact-small seed 2's m = 4, n = 6 entry: ringing complex modes
        # pass the batch's sup shift below tol in one round, 1.3e-8 from
        # the first-order limits, and it rises again; the batch stops only
        # after BLOCK quiet rounds
        w, initials, eqs = corpus_batch(workloads["exact-small"].generate(2)[3])
        calls = record_restarts(monkeypatch)
        states, rounds, _ = run_to_convergence(w, initials, eqs, CONSENSUS_TOL, 5000)
        replay, shifts = replayed(w, initials, eqs, calls, rounds)
        dip = next(t for t, s in enumerate(shifts, start=1) if s < CONSENSUS_TOL)
        assert calls[-1][0] < dip < rounds - BLOCK
        assert max(shifts[dip : dip + BLOCK]) >= CONSENSUS_TOL
        assert max(shifts[-BLOCK:]) < CONSENSUS_TOL
        limits = first_order_limits(w, initials, eqs)
        assert np.abs(replay[dip - 1] - limits).max() > 1e-8
        assert np.abs(states - limits).max() < 1e-9


class TestDeterminism:
    def test_bit_identical_trajectories(self, ex1, path3):
        eqs = lift_system(ex1)

        def trajectory(seed):
            rng = np.random.default_rng(seed)
            rounds = consensus(build_weights(path3, 0.3), rng.random((1, 3, 8)), eqs)
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
    rounds = consensus(build_weights(path3, 0.3), initials[None], eqs)
    frames = chain([initials], (states for (states,) in rounds))
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
