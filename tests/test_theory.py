import numpy as np
import pytest

from dntk.errors import NonOrthonormalBasis, NotSmooth
from dntk.theory import (
    decrease_bound_check,
    make_probe,
    pca_optimality_bruteforce,
    projection_residual,
    quadratic_minimizer_check,
    residual_two_ways,
    restricted_minimizer,
    surrogate,
)


def ortho_basis(p, r, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, r)))
    return q


def probe_at(p=8, r=3, smoothness=2.0, seed=0, tasks=4):
    rng = np.random.default_rng(seed)
    grads = rng.normal(size=(tasks, p))
    return make_probe(grads, smoothness, 0.1, ortho_basis(p, r, seed + 1))


class TestSurrogateMinimizer:
    def test_gradient_inside_subspace_closed_form(self):
        # g in span(V), L = 1: minimizer = -g and M = -||g||^2 / 2
        v = ortho_basis(6, 2, 0)
        g = v @ np.array([1.5, -0.5])
        probe = make_probe(g[None], 1.0, 0.1, v)
        star = restricted_minimizer(probe, g)
        np.testing.assert_allclose(star, -g, atol=1e-12)
        assert surrogate(g, star, 1.0) == pytest.approx(-0.5 * g @ g)

    def test_gradient_orthogonal_to_subspace(self):
        v = np.eye(5)[:, :2]
        g = np.array([0.0, 0.0, 1.0, 2.0, -1.0])
        probe = make_probe(g[None], 3.0, 0.1, v)
        star = restricted_minimizer(probe, g)
        np.testing.assert_array_equal(star, np.zeros(5))
        assert surrogate(g, star, 3.0) == 0.0

    def test_minimizer_unimprovable(self):
        probe = probe_at(seed=1)
        worst = quadratic_minimizer_check(probe, trials=200, seed=2)
        assert worst <= 1e-12

    def test_nonorthonormal_basis_rejected(self):
        with pytest.raises(NonOrthonormalBasis):
            make_probe(np.ones((1, 4)), 1.0, 0.1, np.ones((4, 2)))


class TestDecreaseBound:
    def test_holds_on_random_smooth_quadratics(self):
        rng = np.random.default_rng(3)
        probe = probe_at(p=7, r=3, smoothness=5.0, seed=4)
        for _ in range(25):
            q = ortho_basis(7, 7, rng.integers(10**6))
            vals = rng.uniform(0.0, 5.0, size=7)  # lambda_max <= L
            a = q @ np.diag(vals) @ q.T
            b = rng.normal(size=7)
            achieved, bound, holds = decrease_bound_check(probe, a, b)
            assert holds

    def test_tight_at_scaled_identity(self):
        probe = probe_at(p=6, r=2, smoothness=4.0, seed=5)
        b = np.random.default_rng(6).normal(size=6)
        achieved, bound, holds = decrease_bound_check(probe, 4.0 * np.eye(6), b)
        assert holds
        assert achieved == pytest.approx(bound, rel=1e-12)

    def test_linear_loss_doubles_bound(self):
        # A = 0: achieved = (1/L)||Pi g||^2, exactly twice the bound
        probe = probe_at(p=6, r=3, smoothness=2.0, seed=7)
        b = np.random.default_rng(8).normal(size=6)
        achieved, bound, holds = decrease_bound_check(probe, np.zeros((6, 6)), b)
        assert holds
        pig = probe.basis @ (probe.basis.T @ b)
        assert achieved == pytest.approx(float(pig @ pig) / 2.0, rel=1e-12)
        assert achieved == pytest.approx(2.0 * bound, rel=1e-12)

    def test_rough_quadratic_rejected(self):
        probe = probe_at(p=5, r=2, smoothness=1.0, seed=9)
        with pytest.raises(NotSmooth):
            decrease_bound_check(probe, 2.0 * np.eye(5), np.ones(5))


class TestSecondMomentOptimality:
    def test_diagonal_rank_one_residual(self):
        g = np.diag([5.0, 3.0, 1.0])
        v = np.eye(3)[:, :1]
        assert projection_residual(g, v) == pytest.approx(4.0)

    def test_bruteforce_margin_nonnegative(self):
        rng = np.random.default_rng(10)
        b = rng.normal(size=(6, 6))
        g = b @ b.T
        best, margin = pca_optimality_bruteforce(g, r=2, trials=500, seed=11)
        assert margin >= -1e-10
        assert best >= 0.0


class TestResidualTwoWays:
    def test_agreement(self):
        rng = np.random.default_rng(14)
        grads = rng.normal(size=(20, 9))
        v = ortho_basis(9, 4, 15)
        sample, trace_form = residual_two_ways(grads, v)
        assert sample == pytest.approx(trace_form, rel=1e-10)

    def test_spanning_basis_zero_residual(self):
        rng = np.random.default_rng(16)
        grads = rng.normal(size=(3, 8))  # rank 3 rows
        q, _ = np.linalg.qr(grads.T)
        sample, trace_form = residual_two_ways(grads, q[:, :3])
        assert sample < 1e-18
        assert abs(trace_form) < 1e-12
