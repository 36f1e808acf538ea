import time

import numpy as np
import pytest

from conftest import EX1_SAMPLE_OUTPUTS, EX2_SAMPLE_OUTPUTS, boolean_vector_search_bruteforce
from netbool.linalg import AffineSubspace, best_affine_fit, dist_to_affine
from netbool.search import boolean_vector_search


def search(points, tol):
    return boolean_vector_search(best_affine_fit(points, tol)[0], tol)


def make_instance(rng, m, b, plant=0, extra=2):
    """Points spanning a dimension-b affine subspace of R^(2^m) through
    ``plant`` chosen unit vectors; returns (points, planted indices)."""
    d = 2**m
    plant = min(plant, b + 1)
    planted = sorted(rng.choice(d, size=plant, replace=False) + 1) if plant else []
    anchors = [np.eye(d)[i - 1] for i in planted]
    if not anchors:
        anchors = [rng.normal(size=d)]
    directions = [rng.normal(size=d) for _ in range(b - (len(anchors) - 1))]
    base = anchors[0]
    spanning = anchors[1:] + [base + v for v in directions]
    points = [base] + spanning
    # pad with random affine combinations of the generators
    for _ in range(extra):
        w = rng.normal(size=len(spanning))
        points.append(base + sum(c * (p - base) for c, p in zip(w, spanning)))
    rng.shuffle(points)
    return np.array(points), planted


class TestKnownInstances:
    def test_single_unit_point(self):
        e5 = np.zeros(8)
        e5[4] = 1.0
        assert search([e5], 1e-6) == {5}
        assert boolean_vector_search_bruteforce([e5], 1e-6) == {5}

    def test_published_nine_outputs(self):
        # four-decimal print data, hence the loose tolerance
        assert search(EX1_SAMPLE_OUTPUTS, 1e-3) == {1, 3, 5, 6}
        assert boolean_vector_search_bruteforce(EX1_SAMPLE_OUTPUTS, 1e-3) == {1, 3, 5, 6}

    def test_published_five_outputs(self):
        assert search(EX2_SAMPLE_OUTPUTS, 1e-3) == {5}
        assert boolean_vector_search_bruteforce(EX2_SAMPLE_OUTPUTS, 1e-3) == {5}

    def test_full_space(self):
        # d+1 affinely independent points span everything: all indices hit
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(9, 8))
        assert search(pts, 1e-6) == set(range(1, 9))

    def test_planted_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            b = int(rng.integers(1, 2**m))
            plant = int(rng.integers(0, min(b + 1, 4) + 1))
            points, planted = make_instance(rng, m, b, plant)
            found = search(points, 1e-6)
            assert set(planted) <= found
            # the generic random directions almost surely add no extras
            assert found == boolean_vector_search_bruteforce(points, 1e-6)

    def test_empty_result_is_valid(self):
        rng = np.random.default_rng(23)
        pts = 10.0 + rng.normal(size=(3, 8))  # far from every unit vector
        assert search(pts, 1e-6) == set()


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(150):
            m = int(rng.integers(2, 5))
            b = int(rng.integers(0, 2**m))
            plant = int(rng.integers(0, min(b + 1, 4) + 1))
            if b == 0:
                d = 2**m
                point = (
                    np.eye(d)[int(rng.integers(0, d))]
                    if rng.random() < 0.5
                    else rng.normal(size=d)
                )
                points = np.tile(point, (int(rng.integers(1, 4)), 1))
                planted = None
            else:
                points, planted = make_instance(rng, m, b, plant)
            fast = search(points, 1e-6)
            brute = boolean_vector_search_bruteforce(points, 1e-6)
            assert fast == brute, f"disagreement on trial {trial}: {fast} vs {brute}"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        points, _ = make_instance(rng, 3, 3, plant=2)
        reference = search(points, 1e-6)
        for _ in range(10):
            perm = rng.permutation(len(points))
            assert search(points[perm], 1e-6) == reference


class TestDistanceIdentity:
    @pytest.mark.parametrize("tol", [1e-6, 1e-3, 0.1, 0.25])
    def test_equals_direct_distances_on_orthonormal_hulls(self, tol):
        # offsets near a unit vector put that candidate's distance on both
        # sides of tol; b runs over 0, d and values in between
        rng = np.random.default_rng(round(1 / tol))
        inside = outside = 0
        for _ in range(40):
            d = 2 ** int(rng.integers(1, 6))
            for b in (0, d, int(rng.integers(0, d + 1))):
                basis = np.linalg.qr(rng.normal(size=(d, d)))[0][:, :b].T
                push = rng.normal(size=d)
                offset = np.eye(d)[int(rng.integers(0, d))]
                offset += 2 * tol * rng.random() * push / np.linalg.norm(push)
                hull = AffineSubspace(offset, basis)
                expected = {
                    i + 1 for i in range(d) if dist_to_affine(np.eye(d)[i], hull) <= tol
                }
                assert boolean_vector_search(hull, tol) == expected
                inside += len(expected)
                outside += d - len(expected)
        assert inside > 0 and outside > 0


class TestInputValidation:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            search(np.zeros((0, 8)), 1e-6)


def test_cost_growth_stays_within_bound():
    """Measured runtime may grow no faster than the 2^m * k * b operation
    bound (checked as a trend with generous slack, not a constant)."""
    rng = np.random.default_rng(7)
    sizes = [5, 7, 9, 11]
    times = {}
    for m in sizes:
        d = 2**m
        b = 8
        k = b + 3
        pts, _ = make_instance(rng, m, b, plant=2, extra=k - b - 1)
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            search(pts, 1e-6)
            best = min(best, time.perf_counter() - start)
        times[m] = best
    # fixed k and b: the bound grows linearly in 2^m
    for m in sizes[1:]:
        bound_ratio = 2**m / 2 ** sizes[0]
        assert times[m] <= times[sizes[0]] * bound_ratio * 16
