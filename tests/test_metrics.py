import numpy as np
import pytest

from dntk.errors import (
    NonOrthonormalBasis,
    NotAProjector,
    RankMismatch,
    ShapeMismatch,
    ZeroTrace,
)
from dntk.metrics import (
    accuracy,
    energy_gap_decomposition,
    fidelity,
    kernel_error_bound_check,
    mse,
    nystrom_kernel,
    orthonormal_rows_basis,
    reconstruction_error,
    subspace_coverage,
    subspace_scores,
)


def projector_from(cols):
    q, _ = np.linalg.qr(cols)
    return q @ q.T


class TestFidelity:
    def test_identical(self):
        z = np.random.default_rng(0).normal(size=(8, 3))
        assert fidelity(z, z) == 1.0

    def test_negated_two_class(self):
        z = np.array([[1.0, 0.0], [0.2, 0.9], [2.0, -1.0]])
        assert fidelity(-z, z) == 0.0

    def test_partial(self):
        ref = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        pred = ref.copy()
        pred[3] = [1.0, 0.0]
        assert fidelity(pred, ref) == 0.75

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fidelity(np.zeros((3, 2)), np.zeros((4, 2)))


class TestAccuracy:
    def test_perfect(self):
        z = np.eye(4)
        assert accuracy(z, np.arange(4)) == 1.0

    def test_inverted_binary(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(z, np.array([1, 0])) == 0.0

    def test_half(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(z, np.array([0, 1])) == 0.5


class TestMse:
    def test_zero(self):
        z = np.ones((3, 2))
        assert mse(z, z) == 0.0

    def test_constant_offset(self):
        z = np.zeros((5, 3))
        assert mse(z + 2.0, z) == 4.0

    def test_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4))
        total = 0.0
        for i in range(6):
            for j in range(4):
                total += (a[i, j] - b[i, j]) ** 2
        assert mse(a, b) == pytest.approx(total / 24.0, rel=1e-12)


class TestSubspaceCoverage:
    def test_spanning_basis(self):
        rng = np.random.default_rng(2)
        phi = rng.normal(size=(5, 8))
        v = orthonormal_rows_basis(phi)
        assert subspace_coverage(phi, v, center=False) == pytest.approx(1.0)

    def test_orthogonal_basis(self):
        phi = np.zeros((4, 6))
        phi[:, :2] = np.random.default_rng(3).normal(size=(4, 2))
        v = np.zeros((6, 2))
        v[4:, :] = np.eye(2)
        assert subspace_coverage(phi, v, center=False) == 0.0

    def test_svd_oracle(self):
        # coverage of the top-r right-singular basis = leading sigma^2 mass
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(10, 7))
        _, sing, vt = np.linalg.svd(phi, full_matrices=False)
        r = 3
        cov = subspace_coverage(phi, vt[:r].T, center=False)
        assert cov == pytest.approx((sing[:r] ** 2).sum() / (sing**2).sum(),
                                    rel=1e-12)

    def test_centering_changes_answer(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(6, 4)) + 10.0  # big common mean
        v = orthonormal_rows_basis(phi.mean(axis=0, keepdims=True))
        assert subspace_coverage(phi, v, center=False) > 0.9
        assert subspace_coverage(phi, v, center=True) < 0.5

    def test_rejects_sloppy_basis(self):
        phi = np.random.default_rng(6).normal(size=(4, 5))
        bad = np.ones((5, 2))
        with pytest.raises(NonOrthonormalBasis):
            subspace_coverage(phi, bad)

    def test_zero_energy(self):
        v = np.eye(3)[:, :1]
        with pytest.raises(ZeroTrace):
            subspace_coverage(np.zeros((2, 3)), v, center=False)


class TestReconstructionError:
    def test_full_span_zero(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(5, 9))
        v = orthonormal_rows_basis(phi)
        assert reconstruction_error(phi, v, center=False) < 1e-20

    def test_empty_basis_full_energy(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(4, 6))
        v = np.zeros((6, 0))
        expected = (phi**2).sum() / 4.0
        assert reconstruction_error(phi, v, center=False) == pytest.approx(expected)

    def test_pythagoras_with_coverage(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(8, 10))
        v = orthonormal_rows_basis(phi[:3])
        cov = subspace_coverage(phi, v, center=False)
        err = reconstruction_error(phi, v, center=False)
        total = (phi**2).sum()
        assert err == pytest.approx((1.0 - cov) * total / 8.0, rel=1e-9)


def _rank_deficient_basis(rng):
    # two orthonormal columns of an 8-wide space, drawn from rank-2 rows
    return orthonormal_rows_basis(rng.normal(size=(5, 2)) @ rng.normal(size=(2, 8)))


class TestSubspaceScores:
    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize(
        "make_basis",
        [
            lambda rng: orthonormal_rows_basis(rng.normal(size=(4, 8))),
            _rank_deficient_basis,
            lambda rng: np.zeros((8, 0)),
        ],
        ids=["random_rows", "rank_deficient", "empty"],
    )
    def test_equals_the_two_functions(self, make_basis, center):
        rng = np.random.default_rng(11)
        for _ in range(5):
            phi = rng.normal(size=(12, 8)) * rng.uniform(0.1, 10.0)
            v = make_basis(rng)
            assert subspace_scores(phi, v, center=center) == (
                subspace_coverage(phi, v, center=center),
                reconstruction_error(phi, v, center=center),
            )

    def test_keeps_the_error_paths(self):
        phi = np.random.default_rng(12).normal(size=(4, 5))
        with pytest.raises(NonOrthonormalBasis):
            subspace_scores(phi, np.ones((5, 2)))
        with pytest.raises(ShapeMismatch):
            subspace_scores(phi, np.eye(6)[:, :2])
        with pytest.raises(ZeroTrace):
            subspace_scores(np.zeros((2, 3)), np.eye(3)[:, :1], center=False)


class TestNystromKernel:
    def test_inducing_equals_phi_exact(self):
        rng = np.random.default_rng(10)
        phi = rng.normal(size=(7, 5))
        k_pi, gap = nystrom_kernel(phi, phi)
        np.testing.assert_allclose(k_pi, phi @ phi.T, atol=1e-9)
        assert gap < 1e-8

    def test_orthogonal_inducing_row_zero_kernel(self):
        phi = np.zeros((4, 6))
        phi[:, :3] = np.random.default_rng(11).normal(size=(4, 3))
        z = np.zeros((1, 6))
        z[0, 5] = 1.0
        k_pi, _ = nystrom_kernel(phi, z)
        np.testing.assert_allclose(k_pi, np.zeros((4, 4)), atol=1e-12)

    def test_identity_between_constructions(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            phi = rng.normal(size=(9, 7))
            z = rng.normal(size=(3, 7))
            _, gap = nystrom_kernel(phi, z)
            assert gap < 1e-8

    def test_zero_inducing_raises(self):
        with pytest.raises(ZeroTrace):
            nystrom_kernel(np.ones((3, 4)), np.zeros((2, 4)))


class TestKernelErrorBound:
    def test_identity_projector_zero_both_sides(self):
        rng = np.random.default_rng(13)
        phi = rng.normal(size=(5, 6))
        lhs, rhs, holds = kernel_error_bound_check(phi, np.eye(6))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_zero_projector_cauchy_schwarz(self):
        rng = np.random.default_rng(14)
        phi = rng.normal(size=(6, 8))
        lhs, rhs, holds = kernel_error_bound_check(phi, np.zeros((8, 8)))
        assert holds
        assert lhs == pytest.approx(np.linalg.norm(phi @ phi.T))
        assert rhs == pytest.approx(np.linalg.norm(phi) ** 2)

    def test_random_projectors_hold(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            phi = rng.normal(size=(7, 9))
            pi = projector_from(rng.normal(size=(9, rng.integers(1, 8))))
            _, _, holds = kernel_error_bound_check(phi, pi)
            assert holds

    def test_rejects_non_projector(self):
        with pytest.raises(NotAProjector):
            kernel_error_bound_check(np.ones((3, 4)), 0.5 * np.eye(4))


class TestEnergyGapDecomposition:
    def test_identity_holds(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            phi = rng.normal(size=(8, 10))
            pi = projector_from(rng.normal(size=(10, 4)))
            loss, tail, gap = energy_gap_decomposition(phi, pi)
            assert loss == pytest.approx(tail + gap, rel=1e-9, abs=1e-9)
            assert gap >= -1e-9

    def test_pca_projector_zero_gap(self):
        rng = np.random.default_rng(17)
        phi = rng.normal(size=(9, 7))
        _, _, vt = np.linalg.svd(phi, full_matrices=False)
        pi = vt[:3].T @ vt[:3]
        loss, tail, gap = energy_gap_decomposition(phi, pi)
        assert abs(gap) < 1e-9
        assert loss == pytest.approx(tail, rel=1e-9)

    def test_bottom_projector_maximal_among_rank_r(self):
        rng = np.random.default_rng(18)
        phi = rng.normal(size=(9, 6))
        _, _, vt = np.linalg.svd(phi, full_matrices=False)
        pi_bottom = vt[3:].T @ vt[3:]  # worst rank-3 choice
        loss_b, _, gap_b = energy_gap_decomposition(phi, pi_bottom)
        pi_top = vt[:3].T @ vt[:3]
        loss_t, _, _ = energy_gap_decomposition(phi, pi_top)
        assert loss_b >= loss_t
        assert gap_b > 0

    def test_fractional_trace_rejected(self):
        pi = np.diag([1.0, 0.5, 0.0])  # symmetric but not idempotent
        with pytest.raises(NotAProjector):
            energy_gap_decomposition(np.ones((2, 3)), pi)

    def test_orthonormal_rows_basis_shapes(self):
        rng = np.random.default_rng(19)
        rows = rng.normal(size=(4, 11))
        v = orthonormal_rows_basis(rows)
        assert v.shape == (11, 4)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-10)
