import numpy as np
import pytest

from dntk.errors import EmptyInput, NonFinite, NotSquare, NotSymmetric, SingularSystem
from dntk.numerics import (
    _SIGN_EPS,
    _pivots_above,
    fix_signs,
    qr_redundancy_filter,
    ridge_solve_direct,
    sym_eig,
    sym_eigvals,
    thin_svd,
)


def rand_sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


def rand_psd(n, seed, rank=None):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, rank or n))
    return b @ b.T


class TestSymEig:
    def test_reconstruction(self):
        s = rand_sym(12, 0)
        eig = sym_eig(s)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        np.testing.assert_allclose(recon, s, atol=1e-10)

    def test_descending_and_orthonormal(self):
        eig = sym_eig(rand_sym(20, 1))
        assert np.all(np.diff(eig.values) <= 1e-12)
        gram = eig.vectors.T @ eig.vectors
        np.testing.assert_allclose(gram, np.eye(20), atol=1e-10)

    def test_identity(self):
        eig = sym_eig(np.eye(5))
        np.testing.assert_allclose(eig.values, np.ones(5))

    def test_diagonal_known_values(self):
        eig = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(eig.values, [3.0, 2.0, 1.0])

    def test_sign_convention_deterministic(self):
        # first nonzero entry of each eigenvector is positive
        eig = sym_eig(rand_sym(9, 7))
        for j in range(9):
            col = eig.vectors[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12)
            assert col[nz[0]] > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSquare):
            sym_eig(np.ones((3, 4)))

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            sym_eig(a)

    def test_rejects_nan(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(NonFinite):
            sym_eig(a)


class TestSymEigvals:
    def test_matches_sym_eig_values(self):
        for s in (rand_sym(12, 0), rand_psd(15, 2, rank=4), np.diag([3.0, 1.0, 2.0])):
            vals = sym_eigvals(s)
            np.testing.assert_allclose(vals, sym_eig(s).values, rtol=0, atol=1e-12)
            assert np.all(np.diff(vals) <= 0.0)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.ones((3, 4)), NotSquare),
            (np.array([[1.0, 2.0], [0.0, 1.0]]), NotSymmetric),
            (np.diag([1.0, np.nan]), NonFinite),
            (np.empty((0, 0)), EmptyInput),
        ],
    )
    def test_same_checks_as_sym_eig(self, bad, error):
        with pytest.raises(error):
            sym_eigvals(bad)
        with pytest.raises(error):
            sym_eig(bad)


class TestThinSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 6))
        res = thin_svd(a)
        recon = res.left @ np.diag(res.singulars) @ res.right.T
        np.testing.assert_allclose(recon, a, atol=1e-10)

    def test_singulars_descending_nonnegative(self):
        rng = np.random.default_rng(4)
        res = thin_svd(rng.normal(size=(7, 11)))
        assert np.all(res.singulars >= 0)
        assert np.all(np.diff(res.singulars) <= 0)

    def test_zero_matrix(self):
        res = thin_svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(res.singulars, np.zeros(3))

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(5)
        res = thin_svd(rng.normal(size=(9, 5)))
        np.testing.assert_allclose(res.left.T @ res.left, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(res.right.T @ res.right, np.eye(5), atol=1e-10)


class TestFixSigns:
    def test_idempotent(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(8, 4))
        once = fix_signs(v)
        np.testing.assert_array_equal(fix_signs(once), once)

    def test_flips_negative_leading_entry(self):
        v = np.array([[-0.1, 0.9], [0.9, -0.1]])
        fixed = fix_signs(v)
        np.testing.assert_allclose(fixed[:, 0], [0.1, -0.9])
        np.testing.assert_allclose(fixed[:, 1], [0.9, -0.1])

    def test_skips_leading_zeros(self):
        v = np.array([[0.0], [-1.0]])
        np.testing.assert_allclose(fix_signs(v)[:, 0], [0.0, 1.0])

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    def test_empty_axes(self, shape):
        v = np.zeros(shape)
        assert fix_signs(v).shape == shape

    def test_matches_loop_form_bitwise(self):
        v = _sign_edge_cases()
        assert fix_signs(v).tobytes() == _loop_fix_signs(v)[0].tobytes()

    def test_thin_svd_matches_loop_form_bitwise(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(7, 5))
        a[0] = 0.0  # left singular vectors start with (near-)zero entries
        a[1, :2] = [_SIGN_EPS, -_SIGN_EPS]
        u, _, vh = np.linalg.svd(a, full_matrices=False)
        want_u, want_v = _loop_fix_signs(u, vh.T)
        got = thin_svd(a)
        assert got.left.tobytes() == want_u.tobytes()
        assert got.right.tobytes() == want_v.tobytes()


def _loop_fix_signs(vectors, partner=None):
    """The per-column loop that fix_signs and thin_svd replaced (reference)."""
    out = np.array(vectors, copy=True)
    other = None if partner is None else np.array(partner, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > _SIGN_EPS)
        if nz.size and col[nz[0]] < 0.0:
            out[:, j] = -col
            if other is not None:
                other[:, j] = -other[:, j]
    return out, other


def _sign_edge_cases():
    """Columns with leading zeros, no nonzero entry and entries at +-_SIGN_EPS."""
    eps = _SIGN_EPS
    above = np.nextafter(eps, 1.0)
    cols = [
        [0.0, 0.0, -1.0, 2.0],  # leading zeros, negative lead: flips
        [0.0, 0.0, 0.0, 0.0],  # no entry above the threshold
        [-0.0, 0.0, -0.0, 0.0],  # negative zeros only
        [-eps, 0.5, -0.2, 0.1],  # -eps is not above the threshold
        [eps, -0.5, 0.2, 0.1],  # +eps neither: the lead is -0.5
        [-above, 0.5, 0.0, 0.0],  # just above: the lead is negative
        [above, -0.5, 0.0, 0.0],
        [-eps, eps, -eps, eps],  # every entry at the threshold
        [-eps, 0.0, 0.0, -above],
    ]
    rng = np.random.default_rng(62)
    return np.column_stack([np.array(cols).T, rng.normal(size=(4, 6))])


def greedy_oracle(a, eps_rel, tie=1e-9):
    """Greedy column selection by least-squares residual norms.

    Each step takes the column farthest from the span of those taken so
    far, the lowest index among residuals within tie * (largest norm) of
    the farthest, and stops when no residual exceeds eps_rel * (largest
    norm) or min(m, n) columns are taken.
    """
    norms = np.linalg.norm(a, axis=0)
    top = norms.max()
    chosen = []
    for _ in range(min(a.shape)):
        if chosen:
            basis = a[:, chosen]
            coef = np.linalg.lstsq(basis, a, rcond=None)[0]
            resid = np.linalg.norm(a - basis @ coef, axis=0)
        else:
            resid = norms.copy()
        resid[chosen] = -np.inf
        best = resid.max()
        if best <= eps_rel * top:
            break
        chosen.append(int(np.flatnonzero(resid >= best - tie * top)[0]))
    return np.sort(np.array(chosen, dtype=np.intp))


def _planted(noise, eps_rel, seed):
    # a half-size copy of column 1 and a double-size copy of column 3, each
    # perturbed by `noise`: the larger of each pair is taken first
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(12, 5))
    extra = np.column_stack([
        0.5 * base[:, 1] + noise * rng.normal(size=12),
        2.0 * base[:, 3] + noise * rng.normal(size=12),
    ])
    return lambda: (np.column_stack([base, extra]), eps_rel)


def _exact_duplicates():
    base = np.random.default_rng(64).normal(size=(10, 4))
    return np.column_stack([base[:, 0], base[:, 1], base[:, 0], base[:, 2],
                            base[:, 1], base[:, 3], base[:, 0]]), 1e-6


def _zero_columns():
    base = np.random.default_rng(65).normal(size=(8, 3))
    z = np.zeros(8)
    return np.column_stack([z, base[:, 0], z, base[:, 1], base[:, 2], z]), 1e-6


def _wide():
    return np.random.default_rng(66).normal(size=(5, 9)), 1e-6


def _wide_duplicates():
    base = np.random.default_rng(67).normal(size=(6, 4))
    return np.column_stack([base, base[:, 2], 3.0 * base[:, 0], base[:, 1:3]]), 1e-6


def _ties_square():
    # exact in floating point: every column is a multiple of a unit vector
    return np.array([
        [2.0, 0.0, 0.0, 2.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]), 1e-6


def _ties_wide():
    return np.array([
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ]), 1e-6


def _tall_full_rank():
    return np.random.default_rng(68).normal(size=(200, 40)), 1e-6


QR_CASES = {
    "near_dup_1e-8_kept": _planted(1e-8, 1e-10, 69),
    "near_dup_1e-8_dropped": _planted(1e-8, 1e-6, 69),
    "near_dup_1e-12_dropped": _planted(1e-12, 1e-6, 70),
    "near_dup_1e-12_below_tight_eps": _planted(1e-12, 1e-10, 70),
    "exact_duplicates": _exact_duplicates,
    "zero_columns": _zero_columns,
    "wide": _wide,
    "wide_duplicates": _wide_duplicates,
    "ties_square": _ties_square,
    "ties_wide": _ties_wide,
    "tall_full_rank": _tall_full_rank,
}
QR_ROUNDOFF_TIES = {"exact_duplicates", "wide_duplicates"}



class TestQrRedundancyFilter:
    def test_orthonormal_columns_all_kept(self):
        q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(10, 4)))
        kept = qr_redundancy_filter(q)
        np.testing.assert_array_equal(kept, np.arange(4))

    def test_duplicate_column_dropped(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(12, 3))
        cols = np.column_stack([base, base[:, 1]])
        kept = qr_redundancy_filter(cols)
        assert kept.size == 3

    def test_near_duplicate_dropped(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(12, 3))
        cols = np.column_stack([base, base[:, 0] + 1e-12 * base[:, 2]])
        assert qr_redundancy_filter(cols, eps_rel=1e-6).size == 3

    def test_kept_columns_independent(self):
        # oracle: rank of kept submatrix equals number kept
        rng = np.random.default_rng(11)
        base = rng.normal(size=(15, 5))
        mix = np.column_stack([base, base @ rng.normal(size=(5, 3))])
        kept = qr_redundancy_filter(mix)
        sub = mix[:, kept]
        assert np.linalg.matrix_rank(sub) == kept.size == 5

    def test_indices_sorted(self):
        rng = np.random.default_rng(12)
        cols = rng.normal(size=(8, 6))
        kept = qr_redundancy_filter(cols)
        assert np.all(np.diff(kept) > 0)

    def test_zero_matrix_keeps_nothing(self):
        assert qr_redundancy_filter(np.zeros((5, 3))).size == 0

    @pytest.mark.parametrize("case", sorted(QR_CASES))
    def test_matches_greedy_oracle(self, case):
        a, eps_rel = QR_CASES[case]()
        np.testing.assert_array_equal(qr_redundancy_filter(a, eps_rel), greedy_oracle(a, eps_rel))

    @pytest.mark.parametrize("case", sorted(QR_CASES))
    def test_matches_scipy_pivoted_qr(self, case):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        a, eps_rel = QR_CASES[case]()
        _, r, piv = scipy_linalg.qr(a, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        want = np.sort(piv[: diag.size][diag > eps_rel * diag.max()])
        kept = qr_redundancy_filter(a, eps_rel)
        if case in QR_ROUNDOFF_TIES:
            # LAPACK picks among bitwise-different copies of a column by
            # roundoff; only the number kept is comparable
            assert kept.size == want.size
        else:
            np.testing.assert_array_equal(kept, want)

    def test_exact_ties_keep_lowest_index(self):
        # columns 0, 1 and 3 tie at norm 2; 3 duplicates 0
        a, eps_rel = QR_CASES["ties_square"]()
        np.testing.assert_array_equal(qr_redundancy_filter(a, eps_rel), [0, 1, 2])
        a, eps_rel = QR_CASES["ties_wide"]()
        np.testing.assert_array_equal(qr_redundancy_filter(a, eps_rel), [0, 1])

    def test_pivoting_loop_keeps_all_of_a_well_conditioned_matrix(self):
        # the early exit and the loop it skips must agree where both apply
        a = np.random.default_rng(63).normal(size=(20, 8))
        r = np.linalg.qr(a, mode="r")
        top = np.linalg.norm(r, axis=0).max()
        kept = _pivots_above(r, 1e-6 * top, 20 * np.finfo(np.float64).eps * top)
        np.testing.assert_array_equal(np.sort(kept), np.arange(8))
        np.testing.assert_array_equal(qr_redundancy_filter(a), np.arange(8))



class TestRidgeSolveDirect:
    def test_identity_kernel_lambda_zero(self):
        y = np.random.default_rng(13).normal(size=(6, 2))
        alpha = ridge_solve_direct(np.eye(6), y, 0.0)
        np.testing.assert_allclose(alpha, y, atol=1e-12)

    def test_against_explicit_inverse(self):
        rng = np.random.default_rng(14)
        k = rand_psd(9, 14)
        y = rng.normal(size=(9, 3))
        lam = 0.37
        expected = np.linalg.inv(k + lam * np.eye(9)) @ y
        got = ridge_solve_direct(k, y, lam)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)

    def test_residual_property(self):
        rng = np.random.default_rng(15)
        k = rand_psd(20, 15)
        y = rng.normal(size=(20, 1))
        lam = 1e-3
        alpha = ridge_solve_direct(k, y, lam)
        resid = np.linalg.norm((k + lam * np.eye(20)) @ alpha - y)
        assert resid <= 1e-8 * np.linalg.norm(y)

    def test_singular_lambda_zero_raises(self):
        k = rand_psd(10, 16, rank=3)  # rank deficient
        y = np.ones((10, 1))
        with pytest.raises(SingularSystem):
            ridge_solve_direct(k, y, 0.0)
