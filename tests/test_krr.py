import dataclasses

import numpy as np
import pytest
from helpers import class_blocks

from dntk import sketch
from dntk.errors import InsufficientMemory, ScaleMismatch, ShapeMismatch, SingularSystem
from dntk.kernel import build_stack
from dntk.krr import class_eigensystems, fit, predict
from dntk.numerics import ridge_solve_direct, sym_eig
from dntk.tangent import extract_features, gen_gaussian_mixture, init_params, one_hot


def random_basis(s, d, c, seed, rank=None):
    """(C, s, D) gradient rows per class."""
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.normal(size=(s, d, c)).transpose(2, 0, 1)
    out = np.empty((c, s, d))
    for ci in range(c):
        out[ci] = rng.normal(size=(s, rank)) @ rng.normal(size=(rank, d))
    return out


class TestFit:
    def test_identity_kernel_interpolates(self):
        # orthonormal rows scaled so the class kernel is exactly I
        d, s = 12, 4
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(d, s)))
        basis = (q * np.sqrt(d)).T[None]  # (1, s, d)
        y = np.random.default_rng(1).normal(size=(s, 1))
        model = fit(basis, y, lambda_reg=0.0)
        np.testing.assert_allclose(model.alpha, y, atol=1e-10)

    def test_matches_direct_solver(self):
        basis = random_basis(9, 20, 3, seed=2)
        y = np.random.default_rng(3).normal(size=(9, 3))
        lam = 0.05
        model = fit(basis, y, lambda_reg=lam, scale_kind="inv_k")
        for c in range(3):
            k = basis[c] @ basis[c].T / 20.0
            ref = ridge_solve_direct(k, y[:, c:c + 1], lam)
            np.testing.assert_allclose(model.alpha[:, c:c + 1], ref,
                                       rtol=1e-8, atol=1e-10)

    def test_lambda_zero_interpolation(self):
        basis = random_basis(7, 15, 2, seed=4)
        y = np.random.default_rng(5).normal(size=(7, 2))
        model = fit(basis, y, lambda_reg=0.0)
        pred = predict(model, basis)
        np.testing.assert_allclose(pred, y, rtol=1e-7, atol=1e-8)

    def test_singular_lambda_zero_raises(self):
        basis = random_basis(8, 20, 1, seed=6, rank=3)
        y = np.random.default_rng(7).normal(size=(8, 1))
        with pytest.raises(SingularSystem):
            fit(basis, y, lambda_reg=0.0)

    def test_refuses_eigenvectors_larger_than_free_memory(self, monkeypatch):
        # one class's 9 x 9 kernel and eigenvectors are held at a time
        basis = random_basis(9, 20, 3, seed=8)
        y = np.random.default_rng(9).normal(size=(9, 3))
        need = 2 * 8 * 9 * 9
        ref = fit(basis, y)
        monkeypatch.setattr(sketch, "available_memory", lambda: need - 1)
        with pytest.raises(InsufficientMemory, match=f"9 x 9 class kernel and its eigenvectors "
                                                     f"needs {need} bytes, {need - 1} bytes"):
            fit(basis, y)
        for left in (need, None):
            monkeypatch.setattr(sketch, "available_memory", lambda: left)
            np.testing.assert_array_equal(fit(basis, y).alpha, ref.alpha)

    def test_hands_each_class_eigensystem_over(self):
        # each(ci, rows, eig) sees every class once, in order, with the rows
        # it fit and the eigensystem class_eigensystems makes of them
        basis = random_basis(7, 5, 3, seed=4)
        y = np.random.default_rng(5).normal(size=(7, 3))
        seen = []
        model = fit(basis, y, lambda_reg=0.1, scale_kind="none",
                    each=lambda ci, rows, eig: seen.append((ci, rows, eig)))
        ref = list(class_eigensystems(basis, "none"))
        assert [ci for ci, _, _ in seen] == [0, 1, 2]
        for (ci, rows, eig), (_, ref_rows, ref_eig) in zip(seen, ref):
            np.testing.assert_array_equal(rows, model.basis[ci])
            np.testing.assert_array_equal(rows, ref_rows)
            np.testing.assert_array_equal(eig.values, ref_eig.values)
            np.testing.assert_array_equal(eig.vectors, ref_eig.vectors)
        assert {f.name for f in dataclasses.fields(model)} == {
            "basis", "alpha", "lambda_reg", "scale_kind"}


class TestPredict:
    def test_zero_test_rows_zero_logits(self):
        basis = random_basis(5, 9, 2, seed=11)
        y = np.random.default_rng(12).normal(size=(5, 2))
        model = fit(basis, y, lambda_reg=0.1)
        pred = predict(model, np.zeros((2, 3, 9)))
        np.testing.assert_array_equal(pred, np.zeros((3, 2)))

    def test_cross_kernel_formula(self):
        basis = random_basis(6, 10, 2, seed=13)
        test = random_basis(4, 10, 2, seed=14)
        y = np.random.default_rng(15).normal(size=(6, 2))
        model = fit(basis, y, lambda_reg=0.2, scale_kind="inv_k")
        pred = predict(model, test)
        for c in range(2):
            cross = test[c] @ basis[c].T / 10.0
            np.testing.assert_allclose(pred[:, c], cross @ model.alpha[:, c],
                                       atol=1e-12)

    @pytest.mark.parametrize("contiguous", [False, True], ids=["array", "contiguous"])
    @pytest.mark.parametrize(
        "s, scale_kind", [(6, "inv_k"), (25, "inv_k"), (6, "none")],
        ids=["s_lt_d", "s_gt_d", "unscaled"],
    )
    def test_primal_equals_cross_kernel_reference(self, contiguous, s, scale_kind):
        # random_basis returns a strided view; its contiguous copy must agree
        basis = random_basis(s, 10, 3, seed=18)
        test = random_basis(8, 10, 3, seed=19)
        y = np.random.default_rng(20).normal(size=(s, 3))
        model = fit(basis, y, lambda_reg=0.01, scale_kind=scale_kind)
        # reference: the dual form through the (t, s) cross kernel
        factor = 1.0 / 10.0 if scale_kind == "inv_k" else 1.0
        ref = np.stack(
            [factor * (test[c] @ basis[c].T) @ model.alpha[:, c]
             for c in range(3)],
            axis=1,
        )
        arg = np.ascontiguousarray(test) if contiguous else test
        np.testing.assert_allclose(predict(model, arg), ref,
                                   rtol=1e-10, atol=1e-12 * np.abs(ref).max())

    def test_fits_extracted_rows_on_the_stack_kernels(self):
        # fit forms each class kernel as build_stack does, so its spectra are
        # those of the stack's layers; a strided selection of the extracted
        # rows fits and predicts like its contiguous copy
        params = init_params([4, 7, 3], seed=0)
        data = gen_gaussian_mixture(3, 6, 4, 0.4, seed=1)
        feats = extract_features(params, data.inputs, data.labels)
        rows = class_blocks(feats.per_class)
        targets = one_hot(feats.labels, 3)
        eigs = []
        fit(rows, targets, lambda_reg=0.1, each=lambda ci, rows, eig: eigs.append(eig))
        for got, k in zip(eigs, build_stack(feats), strict=True):
            eig = sym_eig(k)
            np.testing.assert_array_equal(got.values, eig.values)
            np.testing.assert_array_equal(got.vectors, eig.vectors)
        strided = rows[:, ::2]
        a = fit(strided, targets[::2], lambda_reg=0.1)
        b = fit(strided.copy(), targets[::2], lambda_reg=0.1)
        np.testing.assert_allclose(a.alpha, b.alpha, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(predict(a, rows), predict(b, rows),
                                   rtol=1e-12, atol=1e-14)

    def test_width_mismatch(self):
        basis = random_basis(5, 9, 2, seed=16)
        y = np.zeros((5, 2))
        model = fit(basis, y, lambda_reg=0.1)
        with pytest.raises(ScaleMismatch):
            predict(model, random_basis(3, 8, 2, seed=17))

    def test_class_count_mismatch(self):
        # rows of the (s, D, C) layout no longer fit: the class axis leads
        basis = random_basis(5, 9, 2, seed=16)
        model = fit(basis, np.zeros((5, 2)), lambda_reg=0.1)
        with pytest.raises(ShapeMismatch, match=r"\(2, t, D\)"):
            predict(model, np.zeros((3, 9, 2)))
        with pytest.raises(ShapeMismatch, match=r"\(C, rows, D\)"):
            fit(np.zeros((5, 9)), np.zeros((5, 1)))


class TestScaleCoherence:
    def test_co_scaled_lambda_same_predictions(self):
        # kernel scale none = inv_k * D; lambda co-scaled keeps predictions
        d = 16
        basis = random_basis(7, d, 2, seed=22)
        test = random_basis(5, d, 2, seed=23)
        y = np.random.default_rng(24).normal(size=(7, 2))
        lam = 0.03
        a = predict(fit(basis, y, lambda_reg=lam, scale_kind="inv_k"), test)
        b = predict(fit(basis, y, lambda_reg=lam * d, scale_kind="none"), test)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-11)

    def test_scale_kind_recorded(self):
        basis = random_basis(4, 6, 1, seed=25)
        model = fit(basis, np.zeros((4, 1)), lambda_reg=0.1, scale_kind="none")
        assert model.scale_kind == "none"
        with pytest.raises(ScaleMismatch):
            fit(basis, np.zeros((4, 1)), lambda_reg=0.1, scale_kind="bad")


class TestOnRealFeatures:
    def test_interpolates_trained_network_logits(self):
        params = init_params([5, 10, 3], seed=26)
        data = gen_gaussian_mixture(3, 6, 5, 0.4, seed=27)
        feats = extract_features(params, data.inputs, data.labels)
        rows = class_blocks(feats.per_class)
        model = fit(rows, feats.model_logits, lambda_reg=1e-8)
        pred = predict(model, rows)
        np.testing.assert_allclose(pred, feats.model_logits, atol=1e-4)
