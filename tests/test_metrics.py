import numpy as np
import pytest
from helpers import orthonormal_rows_basis

from dntk.errors import (
    NonOrthonormalBasis,
    NotAProjector,
    RankMismatch,
    ShapeMismatch,
    ZeroTrace,
)
from dntk.krr import fit
from dntk.metrics import (
    accuracy,
    eig_rows_basis,
    energy_gap_decomposition,
    fidelity,
    kernel_error_bound_check,
    mse,
    nystrom_kernel,
    span_scores,
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
        assert subspace_scores(phi, v, center=False)[0] == pytest.approx(1.0)

    def test_orthogonal_basis(self):
        phi = np.zeros((4, 6))
        phi[:, :2] = np.random.default_rng(3).normal(size=(4, 2))
        v = np.zeros((6, 2))
        v[4:, :] = np.eye(2)
        assert subspace_scores(phi, v, center=False)[0] == 0.0

    def test_svd_oracle(self):
        # coverage of the top-r right-singular basis = leading sigma^2 mass
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(10, 7))
        _, sing, vt = np.linalg.svd(phi, full_matrices=False)
        r = 3
        cov = subspace_scores(phi, vt[:r].T, center=False)[0]
        assert cov == pytest.approx((sing[:r] ** 2).sum() / (sing**2).sum(),
                                    rel=1e-12)

    def test_centering_changes_answer(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(6, 4)) + 10.0  # big common mean
        v = orthonormal_rows_basis(phi.mean(axis=0, keepdims=True))
        assert subspace_scores(phi, v, center=False)[0] > 0.9
        assert subspace_scores(phi, v, center=True)[0] < 0.5

    def test_rejects_sloppy_basis(self):
        phi = np.random.default_rng(6).normal(size=(4, 5))
        bad = np.ones((5, 2))
        with pytest.raises(NonOrthonormalBasis):
            subspace_scores(phi, bad)

    def test_zero_energy(self):
        v = np.eye(3)[:, :1]
        with pytest.raises(ZeroTrace):
            subspace_scores(np.zeros((2, 3)), v, center=False)


class TestReconstructionError:
    def test_full_span_zero(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(5, 9))
        v = orthonormal_rows_basis(phi)
        assert subspace_scores(phi, v, center=False)[1] < 1e-20

    def test_empty_basis_full_energy(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(4, 6))
        v = np.zeros((6, 0))
        expected = (phi**2).sum() / 4.0
        assert subspace_scores(phi, v, center=False)[1] == pytest.approx(expected)

    def test_pythagoras_with_coverage(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(8, 10))
        v = orthonormal_rows_basis(phi[:3])
        cov, err = subspace_scores(phi, v, center=False)
        total = (phi**2).sum()
        assert err == pytest.approx((1.0 - cov) * total / 8.0, rel=1e-9)


def _coverage(phi, v, center):
    """Reference: tr(P^T P V V^T) / tr(P^T P) through the dense projector."""
    p = phi - phi.mean(axis=0) if center else phi
    return np.trace(p.T @ p @ (v @ v.T)) / np.trace(p.T @ p)


def _reconstruction_error(phi, v, center):
    """Reference: ||P (I - V V^T)||_F^2 per row through the dense projector."""
    p = phi - phi.mean(axis=0) if center else phi
    return np.linalg.norm(p @ (np.eye(v.shape[0]) - v @ v.T)) ** 2 / p.shape[0]


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
        # _coverage and _reconstruction_error, the dense-projector references
        rng = np.random.default_rng(11)
        for _ in range(5):
            phi = rng.normal(size=(12, 8)) * rng.uniform(0.1, 10.0)
            v = make_basis(rng)
            assert subspace_scores(phi, v, center=center) == pytest.approx(
                (_coverage(phi, v, center), _reconstruction_error(phi, v, center)),
                rel=1e-12, abs=1e-12 * (phi**2).sum(),
            )

    def test_keeps_the_error_paths(self):
        phi = np.random.default_rng(12).normal(size=(4, 5))
        with pytest.raises(NonOrthonormalBasis):
            subspace_scores(phi, np.ones((5, 2)))
        with pytest.raises(ShapeMismatch):
            subspace_scores(phi, np.eye(6)[:, :2])
        with pytest.raises(ZeroTrace):
            subspace_scores(np.zeros((2, 3)), np.eye(3)[:, :1], center=False)


def _rows_with_singulars(singulars, width, rng):
    """Rows whose singular values are exactly `singulars`."""
    q_left, _ = np.linalg.qr(rng.normal(size=(len(singulars), len(singulars))))
    q_right, _ = np.linalg.qr(rng.normal(size=(width, len(singulars))))
    return (q_left * singulars) @ q_right.T


ROW_SETS = {
    "full_rank": lambda rng: rng.normal(size=(6, 15)),
    "more_rows_than_width": lambda rng: rng.normal(size=(20, 7)),
    "duplicate_rows": lambda rng: rng.normal(size=(5, 15))[[0, 1, 2, 1, 3, 4, 0]],
    # lam_min / lam_max = 1e-12: V^T V is off by ~1e-4 until CholeskyQR
    "sigma_ratio_1e-6": lambda rng: _rows_with_singulars(np.logspace(0, -6, 8), 30, rng),
}


def _fit_eigenpairs(rows, scale_kind):
    """The eigenpairs krr.fit hands over for one class, and its scale factor."""
    eigs = []
    fit(rows[None], np.zeros((rows.shape[0], 1)), scale_kind=scale_kind,
        each=lambda ci, rows, eig: eigs.append(eig))
    factor = 1.0 / rows.shape[1] if scale_kind == "inv_k" else 1.0
    return eigs[0].values, eigs[0].vectors, factor


class TestEigRowsBasis:
    @pytest.mark.parametrize("scale_kind", ["inv_k", "none"])
    @pytest.mark.parametrize("rows_id", sorted(ROW_SETS))
    def test_span_equals_svd_reference(self, rows_id, scale_kind):
        rng = np.random.default_rng(20)
        for _ in range(3):
            rows = ROW_SETS[rows_id](rng) * rng.uniform(0.1, 10.0)
            v = eig_rows_basis(rows, *_fit_eigenpairs(rows, scale_kind))
            ref = orthonormal_rows_basis(rows)
            assert v.shape == ref.shape
            assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-10
            assert np.abs(v @ v.T - ref @ ref.T).max() <= 1e-10

    @pytest.mark.parametrize("rows_id", sorted(ROW_SETS))
    def test_scores_equal_svd_reference(self, rows_id):
        rng = np.random.default_rng(21)
        rows = ROW_SETS[rows_id](rng)
        phi = rng.normal(size=(12, rows.shape[1])) + rows[:1]
        cov, err = span_scores(phi, rows, *_fit_eigenpairs(rows, "inv_k"))
        ref_cov, ref_err = subspace_scores(phi, orthonormal_rows_basis(rows))
        assert cov == pytest.approx(ref_cov, rel=1e-10)
        assert err == pytest.approx(ref_err, rel=1e-8, abs=1e-10 * (phi**2).sum())

    @pytest.mark.parametrize("rows_id", sorted(ROW_SETS))
    def test_recon_error_is_the_residual_form(self, rows_id):
        rng = np.random.default_rng(23)
        for _ in range(3):
            rows = ROW_SETS[rows_id](rng)
            phi = rng.normal(size=(40, rows.shape[1])) * rng.uniform(0.1, 10.0)
            cov, err = span_scores(phi, rows, *_fit_eigenpairs(rows, "inv_k"))
            v = eig_rows_basis(rows, *_fit_eigenpairs(rows, "inv_k"))
            ref_cov, ref_err = subspace_scores(phi, v)
            energy = ((phi - phi.mean(axis=0)) ** 2).sum()
            assert err >= 0.0
            assert cov == ref_cov
            assert abs(err - ref_err) <= 1e-12 * energy

    def test_recon_error_is_zero_on_a_full_span(self):
        rng = np.random.default_rng(24)
        for n, width in ((30, 8), (12, 12), (50, 20)):
            phi = rng.normal(size=(n, width)) * rng.uniform(0.1, 100.0)
            cov, err = span_scores(phi, phi, *_fit_eigenpairs(phi, "inv_k"))
            assert err == 0.0
            assert cov == pytest.approx(1.0, rel=1e-12)

    def test_eigenpairs_of_other_rows_raise(self):
        # all-zero eigenvectors with a positive spectrum: V = 0, so the
        # CholeskyQR step has no positive definite Gram to factor
        rows = np.random.default_rng(25).normal(size=(4, 6))
        values, vectors, factor = _fit_eigenpairs(rows, "inv_k")
        with pytest.raises(NonOrthonormalBasis):
            eig_rows_basis(rows, values, np.zeros_like(vectors), factor)
        with pytest.raises(NonOrthonormalBasis):
            span_scores(rows, rows, values, np.zeros_like(vectors), factor)

    def test_error_paths(self):
        rows = np.random.default_rng(22).normal(size=(4, 6))
        values, vectors, factor = _fit_eigenpairs(rows, "inv_k")
        with pytest.raises(ZeroTrace):
            eig_rows_basis(np.zeros((3, 6)), np.zeros(3), np.eye(3), 1.0)
        with pytest.raises(ShapeMismatch):
            eig_rows_basis(rows[:3], values, vectors, factor)
        with pytest.raises(ShapeMismatch):
            span_scores(np.ones((5, 7)), rows, values, vectors, factor)


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
