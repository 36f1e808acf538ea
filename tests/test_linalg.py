import numpy as np
import pytest

from conftest import (
    EX1_MATRICES,
    EX1_SAMPLE_OUTPUTS,
    EX2_MATRICES,
    Equation,
    fixed_dim_fit,
    project_affine,
    rank_and_echelon,
    scan_rank,
    stack_equations,
)
from netbool.linalg import AffineSubspace, best_affine_fit, dist_to_affine


def mp_identities_hold(a, a_pinv, tol=1e-9):
    return (
        np.allclose(a @ a_pinv @ a, a, atol=tol)
        and np.allclose(a_pinv @ a @ a_pinv, a_pinv, atol=tol)
        and np.allclose((a @ a_pinv).T, a @ a_pinv, atol=tol)
        and np.allclose((a_pinv @ a).T, a_pinv @ a, atol=tol)
    )


class TestRankAndEchelon:
    def test_identity(self):
        rank, echelon, pivots = rank_and_echelon(np.eye(3))
        assert rank == 3
        assert pivots == [0, 1, 2]
        assert np.array_equal(echelon, np.eye(3))

    def test_proportional_columns(self):
        rank, echelon, _ = rank_and_echelon(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert rank == 1
        assert echelon.shape == (2, 1)

    def test_worked_example_matrix(self):
        a = np.array(EX1_MATRICES[0], dtype=float)
        rank, _, _ = rank_and_echelon(a)
        assert rank == 2
        assert rank == np.linalg.matrix_rank(a)  # independent oracle

    def test_empty(self):
        rank, echelon, pivots = rank_and_echelon(np.zeros((3, 0)))
        assert rank == 0 and echelon.shape == (3, 0) and pivots == []

    def test_zero_matrix(self):
        rank, _, _ = rank_and_echelon(np.zeros((4, 4)))
        assert rank == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_echelon_contract(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 5))
        a = (rng.normal(size=(9, r)) @ rng.normal(size=(r, 7))).round(6)
        rank, echelon, pivots = rank_and_echelon(a)
        assert rank == np.linalg.matrix_rank(a, tol=1e-8)
        assert len(pivots) == rank == echelon.shape[1]
        # each pivot row carries a 1 in its own column, 0 elsewhere
        sub = echelon[pivots, :]
        assert np.allclose(sub, np.eye(rank), atol=1e-9)
        # echelon columns span the column space: every original column is
        # reproduced by least squares with negligible residual
        coef, *_ = np.linalg.lstsq(echelon, a, rcond=None)
        assert np.abs(echelon @ coef - a).max() < 1e-6

    def test_pivot_tolerance_silences_noise(self):
        rng = np.random.default_rng(5)
        base = np.outer(rng.normal(size=6), rng.normal(size=4))
        noisy = base + 1e-6 * rng.normal(size=base.shape)
        rank, _, _ = rank_and_echelon(noisy, pivot_tol=1e-4)
        assert rank == 1


def h_pinv(a):
    """The reference h_pinv of the equation a y = 0."""
    return Equation(a, np.zeros(len(a))).h_pinv


class TestPseudoinverse:
    def test_invertible_diagonal(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(h_pinv(a), [[0.5, 0.0], [0.0, 0.25]])

    def test_row_vector(self):
        a = np.array([[1.0, 1.0]])
        assert np.allclose(h_pinv(a), [[0.5], [0.5]])

    def test_worked_example_identities(self):
        a = np.array(EX2_MATRICES[2], dtype=float)
        assert mp_identities_hold(a, h_pinv(a))

    def test_zero_matrix(self):
        assert np.array_equal(h_pinv(np.zeros((3, 2))), np.zeros((2, 3)))
        assert h_pinv(np.zeros((0, 3))).shape == (3, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_identities_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        if seed % 2:
            inner = int(rng.integers(1, min(rows, cols) + 1))
            a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
        else:
            a = rng.normal(size=(rows, cols))
        assert mp_identities_hold(a, h_pinv(a))


class TestProjectAffine:
    def test_square_identity(self):
        eq = Equation(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(project_affine(eq, np.array([9.0, -2.0])), [3.0, 4.0])

    def test_fixed_point(self):
        eq = Equation(np.array([[1.0, 1.0]]), np.array([1.0]))
        y = np.array([0.25, 0.75])
        assert np.allclose(project_affine(eq, y), y)

    def test_rank_deficient_analytic(self):
        # constraint row picks y1 = 3; the second coordinate is free
        eq = Equation(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([3.0, 0.0]))
        assert np.allclose(project_affine(eq, np.array([5.0, 7.0])), [3.0, 7.0])

    def test_idempotent_and_consistent(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(2, 8))
        z = h @ rng.normal(size=8)  # guaranteed consistent
        eq = Equation(h, z)
        for _ in range(10):
            y = rng.normal(size=8)
            p = project_affine(eq, y)
            assert np.allclose(project_affine(eq, p), p, atol=1e-9)
            assert np.abs(h @ p - z).max() < 1e-9

    def test_non_expansive(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(3, 6))
        eq = Equation(h, h @ rng.normal(size=6))
        for _ in range(20):
            u, v = rng.normal(size=6), rng.normal(size=6)
            pu, pv = project_affine(eq, u), project_affine(eq, v)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_dimension_mismatch(self):
        eq = Equation(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            project_affine(eq, np.zeros(3))


class TestAffineFromPoints:
    def test_single_point(self):
        p = np.array([1.0, 2.0, 3.0])
        a = best_affine_fit([p], 1e-8)[0]
        assert a.dim == 0
        assert np.array_equal(a.offset, p)
        assert dist_to_affine(p, a) == 0.0

    def test_simplex_plane(self):
        pts = np.eye(3)
        a = best_affine_fit(pts, 1e-8)[0]
        assert a.dim == 2
        assert dist_to_affine(np.full(3, 1.0 / 3.0), a) < 1e-12

    def test_published_sample_outputs(self):
        # nine approximate solutions printed to four decimals: dimension 4,
        # containing the unit vectors at positions 1, 3, 5, 6
        a = best_affine_fit(EX1_SAMPLE_OUTPUTS, 1e-3)[0]
        assert a.dim == 4
        for idx in (1, 3, 5, 6):
            e = np.zeros(8)
            e[idx - 1] = 1.0
            assert dist_to_affine(e, a) <= 1e-3
        for idx in (2, 4, 7, 8):
            e = np.zeros(8)
            e[idx - 1] = 1.0
            assert dist_to_affine(e, a) > 0.1

    def test_inputs_are_members(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(6, 5))
        a = best_affine_fit(pts, 1e-8)[0]
        for p in pts:
            assert dist_to_affine(p, a) < 1e-9

    def test_dependent_point_keeps_dim(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(3, 6))
        dependent = base[0] + 2.5 * (base[1] - base[0])  # on the same plane
        with_dep = best_affine_fit(np.vstack([base, dependent[None, :]]), 1e-8)[0]
        without = best_affine_fit(base, 1e-8)[0]
        assert with_dep.dim == without.dim

    @pytest.mark.parametrize(
        "k, d, scales, noise, tol",
        [
            (6, 5, (1.0,) * 5, 0.0, None),  # k - 1 = d independent directions
            (12, 8, (1.0, 1.0, 1.0), 0.0, None),  # exact 3-dim subspace
            (12, 8, (1.0, 1.0, 1.0), 1e-9, 1e-6),  # residue below tol
            (4, 16, (1.0, 1e-4), 1e-8, 1e-6),  # k < d, a short direction kept
            (9, 8, (1.0, 1.0, 1e-8), 0.0, 1e-6),  # a direction below tol dropped
            (5, 4, (), 1e-9, 1e-6),  # all points equal up to residue
        ],
    )
    def test_dimension_is_svd_rank(self, k, d, scales, noise, tol):
        rng = np.random.default_rng(k * d + len(scales))
        directions = np.linalg.qr(rng.normal(size=(d, d)))[0][:, : len(scales)].T
        coords = rng.normal(size=(k, len(scales))) * np.array(scales)
        pts = rng.normal(size=d) + coords @ directions + noise * rng.normal(size=(k, d))
        # tol None: exact points, whose rank any small threshold finds
        a = best_affine_fit(pts, 1e-8 if tol is None else tol)[0]
        centred = pts - pts.mean(axis=0)
        assert a.dim == np.linalg.matrix_rank(centred, tol=tol)
        assert a.dim == sum(s > 1e-6 for s in scales)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(5, 7))
        a = best_affine_fit(pts, 1e-8)[0]
        assert np.allclose(a.basis @ a.basis.T, np.eye(a.dim), atol=1e-12)


class TestDistToAffine:
    def test_offset_is_member(self):
        a = best_affine_fit(np.array([[1.0, 2.0], [3.0, 2.0]]), 1e-8)[0]
        assert dist_to_affine(np.array([1.0, 2.0]), a) == 0.0

    def test_axis_line(self):
        # the x-axis in the plane; distance of (3, 4) is 4
        a = best_affine_fit(np.array([[0.0, 0.0], [1.0, 0.0]]), 1e-8)[0]
        assert dist_to_affine(np.array([3.0, 4.0]), a) == pytest.approx(4.0)

    def test_self_consistency(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(4, 6))
        a = best_affine_fit(pts, 1e-8)[0]
        for _ in range(10):
            y = rng.normal(size=6)
            proj = a.offset + a.basis.T @ (a.basis @ (y - a.offset))
            assert dist_to_affine(y, a) == pytest.approx(np.linalg.norm(y - proj))
            assert dist_to_affine(proj, a) < 1e-9

    def test_dimension_mismatch(self):
        a = best_affine_fit(np.array([[0.0, 0.0]]), 1e-8)[0]
        with pytest.raises(ValueError):
            dist_to_affine(np.zeros(3), a)


class TestBestAffineFit:
    """The subspace ``best_affine_fit`` returns, against the full-SVD
    fixed-dimension reference ``fixed_dim_fit``."""

    def test_collinear_points(self):
        t = np.linspace(-2, 3, 7)
        pts = np.outer(t, [1.0, 2.0, -1.0]) + np.array([5.0, 0.0, 1.0])
        fit, _ = best_affine_fit(pts, 1e-6)
        assert fit.dim == 1
        assert sum(dist_to_affine(p, fit) for p in pts) < 1e-9

    def test_noisy_plane(self):
        rng = np.random.default_rng(31)
        basis = np.linalg.qr(rng.normal(size=(6, 2)))[0].T
        offset = rng.normal(size=6)
        coords = rng.normal(size=(25, 2))
        noise = 1e-3 * rng.normal(size=(25, 6))
        pts = offset + coords @ basis + noise
        fit, gap = best_affine_fit(pts, 0.1)
        assert fit.dim == 2
        total = sum(dist_to_affine(p, fit) for p in pts)
        assert total <= np.linalg.norm(noise, axis=1).sum()
        # the gap is the smallest kept singular value over the largest dropped
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        assert gap == pytest.approx(s[1] / s[2], rel=1e-12) and gap > 100

    def test_full_dimension_is_exact(self):
        rng = np.random.default_rng(32)
        pts = rng.normal(size=(4, 3))
        fit, _ = best_affine_fit(pts, 1e-8)
        assert fit.dim == 3
        assert all(dist_to_affine(p, fit) < 1e-9 for p in pts)

    def test_matches_affine_hull_at_true_rank(self):
        # points drawn on a 3-dimensional affine subspace: the fit is that
        # subspace, each basis direction of one inside the other (as points
        # through the respective offsets)
        rng = np.random.default_rng(33)
        directions = rng.normal(size=(3, 8))
        offset = rng.normal(size=8)
        pts = rng.normal(size=(12, 3)) @ directions + offset
        truth = AffineSubspace(offset, np.linalg.qr(directions.T)[0].T)
        fit, _ = best_affine_fit(pts, 1e-8)
        assert fit.dim == truth.dim
        for v in fit.basis:
            assert dist_to_affine(fit.offset + v, truth) < 1e-8
        for v in truth.basis:
            assert dist_to_affine(truth.offset + v, fit) < 1e-8

    def test_least_squares_optimality_vs_random_fits(self):
        # no competitor subspace of equal dimension beats the fit on the
        # sum of squared distances
        rng = np.random.default_rng(34)
        pts = rng.normal(size=(10, 5))
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        fit, _ = best_affine_fit(pts, np.sqrt(s[1] * s[2]))
        assert fit.dim == 2
        best = sum(dist_to_affine(p, fit) ** 2 for p in pts)
        for _ in range(25):
            q = np.linalg.qr(rng.normal(size=(5, 2)))[0].T
            rival = AffineSubspace(pts.mean(axis=0) + 0.1 * rng.normal(size=5), q)
            rival_cost = sum(dist_to_affine(p, rival) ** 2 for p in pts)
            assert best <= rival_cost + 1e-12

    def test_is_the_reference_fit_at_the_chosen_dim(self):
        # the thin SVD's leading rows span the full SVD's fit, and the
        # residual's spectral norm, the largest dropped singular value, is
        # within the threshold
        for k, d, seed in [(12, 5, 41), (6, 10, 42), (30, 9, 43)]:
            pts = np.random.default_rng(seed).normal(size=(k, d))
            s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            for tol in s[0] * np.array([1.5, 0.9, 0.5, 0.2, 0.05, 0.01]):
                fit, _ = best_affine_fit(pts, tol)
                ref = fixed_dim_fit(pts, fit.dim)
                assert np.array_equal(fit.offset, ref.offset)
                projector = fit.basis.T @ fit.basis
                assert np.abs(projector - ref.basis.T @ ref.basis).max() < 1e-10
                centred = pts - fit.offset
                assert np.linalg.norm(centred - centred @ projector, 2) <= tol


class TestRankGap:
    """The cases where no kept-over-dropped singular value ratio exists;
    ``TestBestAffineFit.test_noisy_plane`` checks the ratio itself, and
    ``TestMinFitDim.test_single_point`` a single point."""

    def test_none_when_nothing_dropped(self):
        pts = np.random.default_rng(35).normal(size=(10, 4))
        fit, gap = best_affine_fit(pts, 1e-8)
        assert fit.dim == 4 and gap is None

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_none_when_k_points_span_k_minus_one(self, k):
        # the k-th singular value of k centred points is rounding noise,
        # not a dropped direction
        pts = np.random.default_rng(36 + k).normal(size=(k, 12))
        fit, gap = best_affine_fit(pts, 1e-8)
        assert fit.dim == k - 1 and gap is None

    def test_none_when_nothing_kept(self):
        pts = np.random.default_rng(37).normal(size=(6, 3))
        fit, gap = best_affine_fit(pts, 1e3)
        assert fit.dim == 0 and gap is None


class TestMinFitDim:
    """The dimension ``best_affine_fit`` picks at a threshold, against the
    direct scan ``scan_rank``: the lowest dimension whose full-SVD fit
    leaves a residual of spectral norm at most ``tol``."""

    @pytest.mark.parametrize("k,d,seed", [(12, 5, 41), (6, 10, 42), (30, 9, 43)])
    def test_equals_scan_on_random_clouds(self, k, d, seed):
        pts = np.random.default_rng(seed).normal(size=(k, d))
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        for frac in (1.5, 0.9, 0.5, 0.2, 0.05, 0.01):
            tol = frac * s[0]
            fit, _ = best_affine_fit(pts, tol)
            assert fit.dim == scan_rank(pts, tol)

    def test_equal_points_pick_zero(self):
        pts = np.tile(np.arange(6.0), (5, 1))
        fit, gap = best_affine_fit(pts, 1e-6)
        assert fit.dim == 0 == scan_rank(pts, 1e-6)
        assert gap is None

    def test_exact_low_dimensional_subspace(self):
        rng = np.random.default_rng(45)
        pts = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 10)) + rng.normal(size=10)
        fit, gap = best_affine_fit(pts, 1e-6)
        assert fit.dim == 3 == scan_rank(pts, 1e-6)
        assert gap > 1e9  # the dropped values are rounding noise

    @pytest.mark.parametrize("k,d", [(7, 12), (15, 6)])
    def test_budget_at_tol_floor(self, k, d):
        # at the exact modes' threshold a generic cloud keeps every
        # direction its centred points span, so nothing is dropped
        pts = np.random.default_rng(46 + k).normal(size=(k, d))
        fit, gap = best_affine_fit(pts, 1e-6)
        assert fit.dim == min(k - 1, d) == scan_rank(pts, 1e-6)
        assert gap is None

    def test_single_point(self):
        fit, gap = best_affine_fit(np.ones((1, 4)), 1e-6)
        assert fit.dim == 0 and gap is None

    def test_validation(self):
        with pytest.raises(ValueError):
            best_affine_fit(np.zeros(3), 1.0)


class TestStackEquations:
    def test_stacks_rows(self):
        e1 = Equation(np.array([[1.0, 0.0]]), np.array([2.0]))
        e2 = Equation(np.array([[0.0, 1.0]]), np.array([3.0]))
        stacked = stack_equations([e1, e2])
        assert np.array_equal(stacked.h, np.eye(2))
        assert np.array_equal(stacked.z, [2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_equations([])

