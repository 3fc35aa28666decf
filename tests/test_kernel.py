import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dntk.errors import BadEps, BadLambda, ScaleMismatch, ZeroTrace
from dntk.kernel import (
    average_kernel,
    bias_variance_diagnostics,
    build_stack,
    class_kernel,
    conditioning,
    data_redundancy_certificate,
    effective_dimension,
    parameter_redundancy_error,
    scale_factor,
    spectral_summary,
    truncation_rank,
)
from dntk.numerics import sym_eig
from dntk.tangent import GradientFeatures, RAW_PARAMS, one_hot


def feats_from_blocks(blocks, dim_kind=RAW_PARAMS):
    per_class = np.asarray(blocks, dtype=np.float64)
    c, n, _ = per_class.shape
    labels = one_hot(np.zeros(n, dtype=int), c)
    logits = np.zeros((n, c))
    return GradientFeatures(per_class, labels, dim_kind, logits)


class TestClassKernel:
    def test_identity_features_scale_none(self):
        feats = feats_from_blocks([np.eye(4)])
        np.testing.assert_array_equal(class_kernel(feats, 0, "none"), np.eye(4))

    def test_single_row_inv_k(self):
        phi = np.array([[3.0, 4.0]])  # norm^2 = 25, width 2
        feats = feats_from_blocks([phi])
        k = class_kernel(feats, 0, "inv_k")
        np.testing.assert_allclose(k, [[12.5]])

    def test_symmetry_enforced(self):
        rng = np.random.default_rng(0)
        feats = feats_from_blocks([rng.normal(size=(6, 9))])
        k = class_kernel(feats, 0)
        np.testing.assert_array_equal(k, k.T)

    def test_scale_factor(self):
        assert scale_factor("none", 7) == 1.0
        assert scale_factor("inv_k", 8) == 0.125
        with pytest.raises(ScaleMismatch):
            scale_factor("bogus", 4)


class TestAverageKernel:
    def test_single_class_is_identity_map(self):
        rng = np.random.default_rng(1)
        feats = feats_from_blocks([rng.normal(size=(5, 7))])
        stack = build_stack(feats, "none")
        np.testing.assert_array_equal(average_kernel(stack), stack.per_class[0])

    def test_two_known_kernels(self):
        # features chosen so K^1 = I and K^2 = 3I under scale none
        a = np.eye(3)
        b = np.sqrt(3.0) * np.eye(3)
        stack = build_stack(feats_from_blocks([a, b]), "none")
        np.testing.assert_allclose(average_kernel(stack), 2.0 * np.eye(3), atol=1e-12)

    def test_entrywise_mean_oracle(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(4, 6, 8))
        stack = build_stack(feats_from_blocks(blocks), "inv_k")
        kbar = average_kernel(stack)
        oracle = np.zeros((6, 6))
        for c in range(4):
            oracle += blocks[c] @ blocks[c].T / 8.0
        oracle /= 4.0
        np.testing.assert_allclose(kbar, oracle, atol=1e-12)


class TestTruncationRank:
    def test_frozen_examples(self):
        assert truncation_rank(np.array([1.0, 0.0, 0.0]), 0.05) == 1
        # cumulative ratios 0.4, 0.7, 0.9, 1.0: need > 0.95
        assert truncation_rank(np.array([4.0, 3.0, 2.0, 1.0]), 0.05) == 4
        # cumulative 0.5, 0.8, 0.95: 0.95 reached at rank 3
        assert truncation_rank(np.array([0.5, 0.3, 0.15, 0.05]), 0.05) == 3

    def test_zero_trace_raises(self):
        with pytest.raises(ZeroTrace):
            truncation_rank(np.zeros(4), 0.05)

    def test_bad_eps(self):
        with pytest.raises(BadEps):
            truncation_rank(np.array([1.0]), 1.0)
        with pytest.raises(BadEps):
            truncation_rank(np.array([1.0]), -0.01)

    def test_eps_zero_needs_all_mass(self):
        assert truncation_rank(np.array([0.6, 0.4, 0.0]), 0.0) == 2

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
           st.floats(0.0, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_mass_property(self, values, eps):
        vals = np.sort(np.asarray(values))[::-1]
        if vals.sum() <= 0:
            return
        r = truncation_rank(vals, eps)
        assert 1 <= r <= vals.size
        assert vals[:r].sum() >= (1 - eps) * vals.sum() - 1e-12
        if r > 1:
            assert vals[: r - 1].sum() < (1 - eps) * vals.sum() + 1e-12


class TestSpectralSummary:
    def test_identity(self):
        s = spectral_summary(np.eye(5))
        assert s.condition == 1.0
        assert s.min_eig == pytest.approx(1.0)
        assert s.trunc_rank == 5  # equal mass: need 95% of 5 -> ceil

    def test_diag_condition(self):
        cond, min_eig = conditioning(np.diag([4.0, 1.0]))
        assert cond == pytest.approx(4.0)
        assert min_eig == pytest.approx(1.0)

    def test_ridge_cross_check(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(8, 8))
        k = b @ b.T
        lam = 1e-4
        cond, _ = conditioning(k, ridge=lam)
        eig = sym_eig(k + lam * np.eye(8))
        assert cond == pytest.approx(eig.values[0] / eig.values[-1], rel=1e-9)

    def test_rank_deficient_condition_is_stable(self):
        # a rank-3 Gram of 12 rows: the 9 null eigenvalues are roundoff and
        # must not set the ratio, so a rotation of the rows leaves it alone
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(12, 3)) @ np.diag([5.0, 1.0, 0.2])
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cond, _ = conditioning(rows @ rows.T)
        cond_rot, _ = conditioning((rows @ q) @ (rows @ q).T)
        assert np.isfinite(cond) and cond < 1e4
        assert cond_rot == pytest.approx(cond, rel=1e-6)

    def test_trace_matches(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(6, 4))
        k = b @ b.T
        s = spectral_summary(k)
        assert s.trace == pytest.approx(np.trace(k))


class TestRedundancy:
    def test_rank_one_certificate(self):
        v = np.arange(1.0, 11.0)
        k = np.outer(v, v)
        ok, summary = data_redundancy_certificate(k, r_factor=10.0, eps=0.05)
        assert ok
        assert summary.trunc_rank == 1

    def test_full_rank_not_redundant(self):
        ok, _ = data_redundancy_certificate(np.eye(10), r_factor=10.0, eps=0.05)
        assert not ok

    def test_parameter_error_spanning_basis(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(4, 10))
        basis, _ = np.linalg.qr(phi.T)  # spans row space
        assert parameter_redundancy_error(phi, basis) < 1e-10

    def test_parameter_error_top_d_closed_form(self):
        # with the top-d right-singular basis the relative Frobenius error
        # collapses to sqrt(tail sum of sigma^4 / total sum of sigma^4)
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(8, 14))
        _, sing, vt = np.linalg.svd(phi, full_matrices=False)
        for d in (2, 5, 7):
            basis = vt[:d].T
            expected = np.sqrt((sing[d:] ** 4).sum() / (sing**4).sum())
            got = parameter_redundancy_error(phi, basis)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_parameter_error_orthogonal_basis(self):
        phi = np.zeros((3, 6))
        phi[:, :3] = np.diag([1.0, 2.0, 3.0])
        basis = np.zeros((6, 3))
        basis[3:, :] = np.eye(3)  # orthogonal to row space
        assert parameter_redundancy_error(phi, basis) == pytest.approx(1.0)


class TestEffectiveDimension:
    def test_equal_modes(self):
        mu = np.full(8, 0.3)
        assert effective_dimension(mu, 0.3) == pytest.approx(4.0)

    def test_frozen_example(self):
        mu = np.array([1.0, 0.1, 0.01])
        # 1/1.1 + 0.1/0.2 + 0.01/0.11 = 1.5 exactly
        assert effective_dimension(mu, 0.1) == pytest.approx(1.5, abs=1e-12)

    def test_small_lambda_approaches_rank(self):
        mu = np.array([2.0, 1.0, 0.0, 0.0])
        assert effective_dimension(mu, 1e-12) == pytest.approx(2.0, abs=1e-9)

    def test_bad_lambda(self):
        with pytest.raises(BadLambda):
            effective_dimension(np.ones(3), 0.0)


class TestBiasVariance:
    def test_lambda_zero_no_bias(self):
        mu = np.array([1.0, 0.5])
        beta = np.array([1.0, 1.0])
        bias, _ = bias_variance_diagnostics(mu, beta, 0.0, n=10)
        assert bias == 0.0

    def test_single_mode_frozen(self):
        bias, _ = bias_variance_diagnostics(np.array([1.0]), np.array([1.0]), 1.0, n=4)
        assert bias == pytest.approx(0.25)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(6)
        mu = np.sort(rng.uniform(0.01, 2.0, size=7))[::-1]
        beta = rng.normal(size=7)
        lam = 0.3
        n = 50
        noise = 0.8
        bias, var = bias_variance_diagnostics(mu, beta, lam, n=n, noise_var=noise)
        bias_oracle = sum(
            (lam / (m + lam)) ** 2 * m * b**2 for m, b in zip(mu, beta)
        )
        var_oracle = noise * sum(m / (m + lam) for m in mu) / n
        assert bias == pytest.approx(bias_oracle, rel=1e-12)
        assert var == pytest.approx(var_oracle, rel=1e-12)
