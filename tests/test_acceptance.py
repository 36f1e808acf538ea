"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

The randomized criteria run fixed seed ranges; where an almost-sure claim
backs the expectation, the stated thresholds allow one failure, and the
oracle-equivalence criterion additionally permits one retry with a second
seed per instance to rule out floating-point degeneracies.
"""

import math
import time

import numpy as np

from conftest import (
    EX1_MATRICES,
    EX1_TEXTS,
    EX2_MATRICES,
    EX2_TEXTS,
    EX3_TEXTS,
    EX4_TEXTS,
    boolean_vector_search_bruteforce,
    chi0,
    path_graph,
    project_affine,
    random_connected_graph,
    random_satisfiable_system,
    stack_equations,
    stacked_rank_consistent,
)
from netbool.formula import BooleanSystem
from netbool.linalg import best_affine_fit
from netbool.matricization import boolean_matricization, lift_system
from netbool.network import build_weights, consensus, run_to_convergence
from netbool.search import boolean_vector_search
from netbool.solver import (
    RunConfig,
    oracle_solve,
    solve_approximate,
    solve_exact,
    verify_satisfiability,
)
from test_search import make_instance

EX1_SOLUTIONS = {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1)}


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_1_first_example_reproduction():
    start = time.perf_counter()
    system = BooleanSystem.from_texts(3, EX1_TEXTS)
    graph = path_graph(3)

    matrices_ok = all(
        np.array_equal(
            boolean_matricization(f, 3).astype(int), np.array(expected)
        )
        for (f, _), expected in zip(system.equations, EX1_MATRICES)
    )

    hits = sum(
        set(solve_exact(system, graph, RunConfig(seed=seed, k_star=9)).solutions)
        == EX1_SOLUTIONS
        for seed in range(10)
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        "first worked example: matrices exact, solve correct on >= 9/10 seeds, < 5 s",
        matrices_ok and hits >= 9 and elapsed < 5.0,
        f"matrices_ok={matrices_ok}, correct_seeds={hits}/10, elapsed={elapsed:.2f}s",
    )


def test_criterion_2_second_example_with_image_prior():
    system = BooleanSystem.from_texts(3, EX2_TEXTS)
    graph = path_graph(3)

    image_size = chi0(system)
    matrices_ok = all(
        np.array_equal(
            boolean_matricization(f, 3).astype(int), np.array(expected)
        )
        for (f, _), expected in zip(system.equations, EX2_MATRICES)
    )

    k_star = 2**3 - image_size + 1
    hits = 0
    for seed in range(10):
        outcome = solve_exact(system, graph, RunConfig(seed=seed, k_star=k_star))
        hits += set(outcome.solutions) == {(1, 0, 0)}
    report(
        2,
        "second worked example: image cardinality 4, k*=5 solve exact on >= 9/10 seeds",
        image_size == 4 and k_star == 5 and matrices_ok and hits >= 9,
        f"chi0={image_size}, matrices_ok={matrices_ok}, correct_seeds={hits}/10",
    )


def test_criterion_3_disagreeing_limits_detect_infeasible_lift():
    system = BooleanSystem.from_texts(3, EX3_TEXTS)
    graph = path_graph(3)
    eqs = lift_system(system)

    rng = np.random.default_rng(0)
    states, (rounds,), (converged,) = run_to_convergence(
        build_weights(graph, 0.2), rng.random((3, 8)), eqs, 1e-10, 5000
    )
    max_gap = max(
        float(np.abs(states[i] - states[j]).max())
        for i in range(3)
        for j in range(i + 1, 3)
    )

    outcome = verify_satisfiability(system, graph, RunConfig(seed=0, epsilon=0.2))
    report(
        3,
        "third worked example: limits converge yet differ; verdict at disagreement stage",
        converged
        and max_gap > 1e-3
        and outcome.verdict == "unsatisfiable"
        and outcome.stage == "consensus-disagreement",
        f"rounds={rounds}, max_gap={max_gap:.4f}, stage={outcome.stage}",
    )


def test_criterion_4_consistent_lift_with_empty_boolean_set():
    system = BooleanSystem.from_texts(3, EX4_TEXTS)
    graph = path_graph(3)

    rank_ok = stacked_rank_consistent(lift_system(system))
    hits = 0
    stages_ok = True
    for seed in range(10):
        outcome = verify_satisfiability(system, graph, RunConfig(seed=seed))
        stages_ok &= outcome.stage != "consensus-disagreement"
        hits += (
            outcome.verdict == "unsatisfiable"
            and outcome.stage == "empty-solution-set"
            and outcome.solutions == ()
        )
    report(
        4,
        "fourth worked example: rank-consistent lift, empty search on >= 9/10 seeds",
        rank_ok and stages_ok and hits >= 9,
        f"rank_consistent={rank_ok}, correct_seeds={hits}/10",
    )


def test_criterion_5_oracle_equivalence_on_random_systems():
    start = time.perf_counter()
    rng = np.random.default_rng(20240515)
    matches = 0
    retried = 0
    for trial in range(100):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6))
        system = random_satisfiable_system(rng, m, n)
        graph = random_connected_graph(rng, n)
        expected = oracle_solve(system)
        outcome = solve_exact(system, graph, RunConfig(seed=trial))
        if set(outcome.solutions) == expected:
            matches += 1
            continue
        # documented retry rule: one second seed before counting a failure
        retried += 1
        retry = solve_exact(system, graph, RunConfig(seed=trial + 10_000))
        matches += set(retry.solutions) == expected
    elapsed = time.perf_counter() - start
    report(
        5,
        "100 random satisfiable systems match the oracle on >= 99, < 2 min",
        matches >= 99 and elapsed < 120.0,
        f"matches={matches}/100, retried={retried}, elapsed={elapsed:.1f}s",
    )


def test_criterion_6_search_equals_bruteforce_on_500_instances():
    rng = np.random.default_rng(31337)
    agreements = 0
    for _ in range(500):
        m = int(rng.integers(2, 5))
        b = int(rng.integers(0, 2**m))
        if b == 0:
            d = 2**m
            point = (
                np.eye(d)[int(rng.integers(0, d))]
                if rng.random() < 0.5
                else rng.normal(size=d)
            )
            points = np.tile(point, (int(rng.integers(1, 4)), 1))
        else:
            plant = int(rng.integers(0, min(b + 1, 4) + 1))
            points, _ = make_instance(rng, m, b, plant)
        fast = boolean_vector_search(best_affine_fit(points, 1e-6)[0], 1e-6)
        brute = boolean_vector_search_bruteforce(points, 1e-6)
        agreements += fast == brute
    report(
        6,
        "unit-vector search equals the brute-force oracle on 500/500 instances",
        agreements == 500,
        f"agreements={agreements}/500",
    )


def test_criterion_7_consensus_identities():
    system = BooleanSystem.from_texts(3, EX1_TEXTS)
    graph = path_graph(3)
    eqs = lift_system(system)
    stacked = stack_equations(eqs)
    rng = np.random.default_rng(1)

    # (a) the stacked-projection sum is conserved round by round
    states = rng.random((3, 8))
    rounds = consensus(build_weights(graph, 0.3), states, eqs)
    reference = sum(project_affine(stacked, s) for s in states)
    conservation_error = 0.0
    gaps = []
    for _ in range(200):
        gaps.append(
            max(
                float(np.abs(states[i] - states[j]).max())
                for i in range(3)
                for j in range(i + 1, 3)
            )
        )
        states = next(rounds)
        current = sum(project_affine(stacked, s) for s in states)
        conservation_error = max(
            conservation_error, float(np.abs(current - reference).max())
        )
    conservation_ok = conservation_error < 1e-9

    # (b) plain averaging converges to the initial mean
    initials = rng.random((3, 8))
    final, _, _ = run_to_convergence(
        build_weights(graph, 0.3), initials, None, 1e-12, 20000
    )
    mean_error = float(np.abs(final - initials.mean(axis=0)).max())
    mean_ok = mean_error < 1e-9

    # (c) disagreement decays at a steady exponential rate after burn-in
    usable = [g for g in gaps if g > 1e-13]
    burn = 15
    ratios = [usable[t + 1] / usable[t] for t in range(burn, len(usable) - 1)]
    slope = np.polyfit(
        np.arange(burn, len(usable)), [math.log(g) for g in usable[burn:]], 1
    )[0]
    decay_ok = max(ratios) < 0.99 and slope < -0.01

    report(
        7,
        "conservation to 1e-9, averaging limit to 1e-9, exponential decay trend",
        conservation_ok and mean_ok and decay_ok,
        f"conservation={conservation_error:.1e}, mean={mean_error:.1e}, slope={slope:.3f}",
    )


def test_criterion_8_truncated_mode_failure_trend():
    start = time.perf_counter()
    system = BooleanSystem.from_texts(3, EX1_TEXTS)
    graph = path_graph(3)
    expected = oracle_solve(system)
    trials = 50

    failure_fraction = {}
    for horizon in (25, 100, 400):
        failures = 0
        for seed in range(trials):
            outcome = solve_approximate(system, graph, RunConfig(seed=seed, T=horizon))
            failures += sum(
                set(node_set) != expected for node_set in outcome.per_node_solutions
            )
        failure_fraction[horizon] = failures / (trials * graph.n)

    trend_ok = (
        failure_fraction[25] >= failure_fraction[100] >= failure_fraction[400]
    )

    all_exact = 0
    for seed in range(trials):
        outcome = solve_approximate(system, graph, RunConfig(seed=seed, T=2000))
        all_exact += all(
            set(node_set) == expected for node_set in outcome.per_node_solutions
        )
    elapsed = time.perf_counter() - start
    report(
        8,
        "failure fraction non-increasing in T; T=2000 exact on >= 48/50 trials; < 5 min",
        trend_ok and all_exact >= 48 and elapsed < 300.0,
        f"fractions={failure_fraction}, exact_at_2000={all_exact}/50, elapsed={elapsed:.1f}s",
    )
